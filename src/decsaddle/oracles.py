"""Stochastic gradient oracles: plain minibatch (GSGO) and variance
reduced (SVRGO), evaluated for every node at once.

Iterates are stacked (2, m, d) arrays, block 0 for x and block 1 for y,
row i of each belonging to node i; gradients come back in the same
layout.  Both draws take their batches from one sampler, which draws one
uniform per node, in node order, in a single rng.random call.  A solver
binds its draw once (gsgo_draw, svrgo_draw) to the ensemble's stacked
point and calls it at every step.

Gradient units count batch-gradient evaluations as the paper's oracles
spend them: 1 per node per GSGO draw, 2 per node per SVRGO draw, and m*n
for a full reference refresh.  The simulator keeps the batch gradients of
the last refresh, so an SVRGO draw only evaluates the fresh batch, but it
is still charged 2 units per node.  The cache is laid out by the
problem's flat batch row i*n + j, so the index that gathers the fresh
batches also gathers their cached gradients.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .problem import SaddleProblem, batch_mean


def _bind_batches(p: SaddleProblem, rng: np.random.Generator):
    """Bound uniform batch sampler: returns batches() -> the flat batch
    rows row0 + J of the problem, in a new (m,) array, where node i's batch
    index J[i] is the k with k/n <= u_i < (k+1)/n for m uniforms u drawn
    in one rng.random call, in node order; searchsorted on the cells'
    upper ends (k+1)/n counts those at or below u_i."""
    ends = np.arange(1, p.n + 1) / p.n
    row0, m = p.row0, p.m

    def batches():
        J = ends.searchsorted(rng.random(m), side="right")
        return np.add(row0, J, J)

    return batches


def gsgo_draw(p: SaddleProblem, Z: np.ndarray, rng: np.random.Generator):
    """Bound minibatch draw at the stacked (2, m, d) point Z, read at every
    call: returns draw() -> (G, cost), a uniformly sampled batch gradient
    per node (unbiased for full_grads) in a (2, m, d) array the draw owns
    and overwrites, with cost = m gradient units."""
    grads, batches, m = p.bind_batch_grads(Z), _bind_batches(p, rng), p.m
    return lambda: (grads(batches()), m)


@dataclass
class SvrgState:
    """Per-node reference points and their cached gradients.

    The reference point, its batch gradients and their kernel are
    allocated once (initialize); a refresh overwrites them in place."""

    Z_tilde: np.ndarray  # (2, m, d) stacked reference points
    # () -> the (2, m, n, d) batch gradients at Z_tilde, in one array
    grads: Callable[[], np.ndarray] = field(repr=False)
    p: float  # Bernoulli refresh probability in (0, 1], as cdpsvrg_params checks
    g_rows: np.ndarray = field(init=False, repr=False)  # (2, m*n, d) view of grads()
    g_tilde: np.ndarray = field(init=False)  # (2, m, d) their means: the full gradients
    unread: bool = field(init=False, repr=False)  # no draw since the refresh

    def __post_init__(self):
        self.g_tilde = np.empty_like(self.Z_tilde)

    @classmethod
    def initialize(cls, prob: SaddleProblem, Z: np.ndarray, p: float) -> "SvrgState":
        """Allocate the reference point, its batch gradients and their
        kernel, bound to all n batch rows of every node, then refresh at
        the stacked (2, m, d) point Z.  Every refresh rewrites the kernel's
        one gradient array, so its cached-row view is bound here, once."""
        Z_tilde = np.empty((2, prob.m, prob.d))
        grads = prob.bind_batch_grads(Z_tilde, prob.n)
        rows = prob.row0[:, None] + np.arange(prob.n)
        st = cls(Z_tilde, lambda: grads(rows), p)
        st.g_rows = st.refresh(Z).reshape(2, -1, prob.d)  # row i*n + j
        return st

    def refresh(self, Z: np.ndarray) -> np.ndarray:
        """Move every reference point to a copy of the stacked point Z and
        overwrite its batch gradients and their means in place; returns
        the (2, m, n, d) batch gradients.  The copy matters: the
        ensemble's rows are overwritten by later steps, and the first-draw
        check compares against them."""
        np.copyto(self.Z_tilde, Z)
        G = self.grads()
        batch_mean(G, self.g_tilde)
        self.unread = True
        return G


def svrgo_draw(
    p: SaddleProblem, Z: np.ndarray, st: SvrgState, rng: np.random.Generator
):
    """Bound variance-reduced draw at the stacked (2, m, d) point Z, read at
    every call, against the state st (whose references may be refreshed
    between calls): returns draw() -> (G, cost).  Row i of G is node i's
    control variate grad_J(Z) - grad_J(Z_tilde) + g_tilde on a uniformly
    drawn batch J, in a (2, m, d) array the draw owns and overwrites; cost
    is 2 gradient units per node, the paper's SVRGO price, though only the
    fresh batch is evaluated (the reference batch is read from the state).

    The first draw after a refresh (or after initialize) usually comes at
    the reference point itself, as in the variance-reduced solver.  There
    the fresh batch gradients equal the cached rows bit for bit, so the
    control variate is exactly +0 and the gradient is g_tilde + 0.0 (the
    same bits, -0.0 turned +0.0 as the subtraction does): that draw still
    draws J and is charged 2 units per node, but runs no kernel.
    """
    grads, batches, cost = p.bind_batch_grads(Z), _bind_batches(p, rng), 2 * p.m
    G, ref = np.empty_like(Z), np.empty_like(Z)  # ref: the cached rows

    def draw():
        rows = batches()
        if st.unread:
            st.unread = False
            if Z.tobytes() == st.Z_tilde.tobytes():
                return np.add(st.g_tilde, 0.0, G), cost
        F = grads(rows)  # overwritten in place by the control variate
        np.subtract(F, st.g_rows.take(rows, axis=1, out=ref), F)
        return np.add(F, st.g_tilde, F), cost

    return draw


def svrgo_update_reference(
    st: SvrgState, prob: SaddleProblem, Z: np.ndarray, rng: np.random.Generator
):
    """Shared Bernoulli(p) refresh of every node's reference point to the
    stacked (2, m, d) point Z.

    Returns (st, cost): when the coin fires, st is refreshed in place and
    cost is m*n gradient units, else cost is 0.  The same coin is used for
    all nodes so references stay synchronized.
    """
    if not rng.random() < st.p:
        return st, 0
    st.refresh(Z)
    return st, prob.m * prob.n
