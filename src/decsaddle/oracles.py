"""Stochastic gradient oracles: plain minibatch (GSGO) and variance
reduced (SVRGO), evaluated for every node at once.

Iterates are stacked (m, d) arrays, row i belonging to node i; gradients
come back as one (2, m, d) array, block 0 for x and block 1 for y.  Each
sampler draws one batch index per node in a single call that consumes
exactly the draws of m sequential per-node calls, in node order.  A
solver binds its draw once (gsgo_draw, svrgo_draw) to the ensemble's
stacked point and calls it at every step.

Gradient units count batch-gradient evaluations as the paper's oracles
spend them: 1 per node per GSGO draw, 2 per node per SVRGO draw, and m*n
for a full reference refresh.  The simulator keeps the batch gradients of
the last refresh, so an SVRGO draw only evaluates the fresh batch, but it
is still charged 2 units per node.  The cache and the sampling weights are
laid out by the problem's flat batch row i*n + j, so the index that
gathers the fresh batches also gathers their cached gradients and weights.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .problem import RobustLRProblem


def gsgo_draw(p: RobustLRProblem, Z: np.ndarray, rng: np.random.Generator):
    """Bound minibatch draw at the stacked (2, m, d) point Z, read at every
    call: returns draw() -> (G, cost), a uniformly sampled batch gradient
    per node (unbiased for full_grads) in a (2, m, d) array the draw owns
    and overwrites, with cost = m gradient units."""
    grads = p.bind_batch_grads(Z)
    n, m, row0 = p.n, p.m, p.row0

    def draw():
        J = rng.integers(n, size=m)  # the draws of m calls rng.integers(n)
        return grads(np.add(row0, J, J)), m

    return draw


@dataclass
class SvrgState:
    """Per-node reference points, their cached gradients, and sampling law.

    The reference point, its batch gradients and their kernel are
    allocated once (initialize); a refresh overwrites them in place."""

    Z_tilde: np.ndarray  # (2, m, d) stacked reference points
    # () -> the (2, m, n, d) batch gradients at Z_tilde, in one array
    grads: Callable[[], np.ndarray] = field(repr=False)
    P: np.ndarray  # (m, n) sampling probabilities, rows sum to 1
    p: float  # Bernoulli refresh probability
    g_rows: np.ndarray = field(init=False, repr=False)  # (2, m*n, d) view of grads()
    g_tilde: np.ndarray = field(init=False)  # (2, m, d) their means: the full gradients
    cdf: np.ndarray = field(init=False, repr=False)
    shared_cdf: np.ndarray | None = field(init=False, repr=False)  # every row alike
    weights: np.ndarray = field(init=False, repr=False)  # (m*n, 1): 1 / (n P)
    unit_weights: bool = field(init=False, repr=False)  # every weight exactly 1
    unread: bool = field(init=False, repr=False)  # no draw since the refresh

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"refresh probability p = {self.p} outside (0, 1]")
        P = np.asarray(self.P, dtype=float)
        if np.any(P <= 0.0):
            raise ValueError("all sampling probabilities must be positive")
        if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("each node's sampling law must sum to 1")
        self.P = P
        # normalized row-wise cumulative law, as Generator.choice builds it
        cdf = np.cumsum(P, axis=1)
        self.cdf = cdf / cdf[:, -1:]
        # the default uniform law: one row serves every node, and its
        # weights are exactly 1 (whenever n * (1/n) rounds to 1)
        self.shared_cdf = self.cdf[0] if (self.cdf == self.cdf[0]).all() else None
        self.weights = (1.0 / (P.shape[1] * P)).reshape(-1, 1)
        self.unit_weights = bool((self.weights == 1.0).all())
        self.g_tilde = np.empty_like(self.Z_tilde)

    @classmethod
    def initialize(
        cls,
        prob: RobustLRProblem,
        Z: np.ndarray,
        p: float,
        P: np.ndarray | None = None,
    ) -> "SvrgState":
        """Allocate the reference point, its batch gradients and their
        kernel, then refresh at the stacked (2, m, d) point Z; uniform law
        by default."""
        if P is None:
            P = np.full((prob.m, prob.n), 1.0 / prob.n)
        Z_tilde = np.empty((2, prob.m, prob.d))
        st = cls(Z_tilde, prob.bind_all_batch_grads(Z_tilde), P, p)
        st.refresh(Z)
        return st

    def refresh(self, Z: np.ndarray):
        """Move every reference point to a copy of the stacked point Z and
        overwrite its batch gradients and their means in place; the law
        stays.  The copy matters: the ensemble's rows are overwritten by
        later steps, and the first-draw check compares against them."""
        np.copyto(self.Z_tilde, Z)
        G = self.grads()
        self.g_rows = _rows(G)
        # batch_mean(G), into g_tilde
        np.divide(np.add.reduce(G, 2, None, self.g_tilde), G.shape[2], self.g_tilde)
        self.unread = True

    def draw_batches(self, rng: np.random.Generator) -> np.ndarray:
        """One batch index per node from its row of P.

        Consumes the draws of m calls rng.choice(n, p=P[i]): one uniform
        per node, located by searchsorted(cdf[i], u, side="right"), which
        counts the entries of the nondecreasing row at or below u.
        """
        u = rng.random(self.cdf.shape[0])
        if self.shared_cdf is not None:
            return self.shared_cdf.searchsorted(u, side="right")
        return np.add.reduce(self.cdf <= u[:, None], axis=1)


def svrgo_draw(
    p: RobustLRProblem, Z: np.ndarray, st: SvrgState, rng: np.random.Generator
):
    """Bound variance-reduced draw at the stacked (2, m, d) point Z, read at
    every call, against the state st (whose references may be refreshed
    between calls): returns draw() -> (G, cost).  Row i of G is node i's
    control variate w (grad_J(Z) - grad_J(Z_tilde)) + g_tilde on a batch J
    drawn from row i of the sampling law, w = 1 / (n P[i, J]), in a
    (2, m, d) array the draw owns and overwrites; cost is 2 gradient units
    per node, the paper's SVRGO price, though only the fresh batch is
    evaluated (the reference batch is read from the state).

    The first draw after a refresh (or after initialize) usually comes at
    the reference point itself, as in the variance-reduced solver.  There
    the fresh batch gradients equal the cached rows bit for bit, so the
    control variate is exactly +0 and the gradient is g_tilde + 0.0 (the
    same bits, -0.0 turned +0.0 as the subtraction does): that draw still
    draws J and is charged 2 units per node, but runs no kernel.
    """
    grads = p.bind_batch_grads(Z)
    row0, cost = p.row0, 2 * p.m
    G, ref = np.empty_like(Z), np.empty_like(Z)

    def draw():
        rows = st.draw_batches(rng)
        if st.unread:
            st.unread = False
            if _same_bits(Z, st.Z_tilde):
                return np.add(st.g_tilde, 0.0, G), cost
        np.add(row0, rows, rows)
        return _control_variate(grads(rows), st, rows, ref), cost

    return draw


def svrgo_update_reference(
    st: SvrgState, prob: RobustLRProblem, Z: np.ndarray, rng: np.random.Generator
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


def _control_variate(G, st: SvrgState, rows, ref):
    """w (G - cached rows) + g_tilde, in place on G; ref is a work array
    shaped like G."""
    np.subtract(G, st.g_rows.take(rows, axis=1, out=ref), G)
    if not st.unit_weights:  # a product by 1.0 changes no bit
        np.multiply(st.weights.take(rows, axis=0), G, G)
    return np.add(G, st.g_tilde, G)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _rows(Gb: np.ndarray) -> np.ndarray:
    """(2, m*n, d) view of (2, m, n, d) batch gradients: row i*n + j."""
    return Gb.reshape(2, -1, Gb.shape[-1])
