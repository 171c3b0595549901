"""Stochastic gradient oracles: plain minibatch (GSGO) and variance
reduced (SVRGO), evaluated for every node at once.

Iterates are stacked (m, d) arrays, row i belonging to node i.  Each
sampler draws one batch index per node in a single call that consumes
exactly the draws of m sequential per-node calls, in node order.

Gradient units count batch-gradient evaluations: 1 per node per GSGO
draw, 2 per node per SVRGO draw, and m*n for a full reference refresh.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .problem import RobustLRProblem


def gsgo_sample(
    p: RobustLRProblem, X: np.ndarray, Y: np.ndarray, rng: np.random.Generator
):
    """Uniformly sampled batch gradient per node; unbiased for full_grads.

    Returns (Gx, Gy, cost) with cost = m gradient units.
    """
    J = rng.integers(p.n, size=p.m)  # the draws of m calls rng.integers(n)
    Gx, Gy = p.batch_grads(X, Y, J)
    return Gx, Gy, p.m


@dataclass
class SvrgState:
    """Per-node reference points, cached full gradients, and sampling law."""

    x_tilde: np.ndarray  # (m, d) reference points
    y_tilde: np.ndarray
    gx_tilde: np.ndarray  # (m, d) full gradients at the reference points
    gy_tilde: np.ndarray
    P: np.ndarray  # (m, n) sampling probabilities, rows sum to 1
    p: float  # Bernoulli refresh probability
    cdf: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)  # 1 / (n P)

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
        self.weights = 1.0 / (P.shape[1] * P)

    @property
    def p_min(self) -> float:
        return float(np.min(self.P))

    @classmethod
    def initialize(
        cls,
        prob: RobustLRProblem,
        X: np.ndarray,
        Y: np.ndarray,
        p: float,
        P: np.ndarray | None = None,
    ) -> "SvrgState":
        """Reference at (X, Y) with fresh full gradients; uniform law by default."""
        if P is None:
            P = np.full((prob.m, prob.n), 1.0 / prob.n)
        Gx, Gy = prob.full_grads(X, Y)
        return cls(x_tilde=X, y_tilde=Y, gx_tilde=Gx, gy_tilde=Gy, P=P, p=p)

    def draw_batches(self, rng: np.random.Generator) -> np.ndarray:
        """One batch index per node from its row of P.

        Consumes the draws of m calls rng.choice(n, p=P[i]): one uniform
        per node, located by searchsorted(cdf[i], u, side="right").
        """
        u = rng.random(self.cdf.shape[0])
        return np.sum(self.cdf <= u[:, None], axis=1)


def svrgo_grad(
    p: RobustLRProblem,
    X: np.ndarray,
    Y: np.ndarray,
    st: SvrgState,
    J: np.ndarray,
):
    """Control-variate gradient of every node on batch J[i], anchored at the
    node's reference point.

    Returns (Gx, Gy, cost) with cost = 2 gradient units per node (fresh
    batch gradient plus the same batch at the reference).
    """
    m = len(J)
    w = st.weights[np.arange(m), J][:, None]
    # fresh rows 0..m-1 and reference rows m..2m-1 in one kernel call
    Gx, Gy = p.batch_grads(
        np.concatenate([X, st.x_tilde]), np.concatenate([Y, st.y_tilde]),
        np.concatenate([J, J]),
    )
    Gx = w * (Gx[:m] - Gx[m:]) + st.gx_tilde
    Gy = w * (Gy[:m] - Gy[m:]) + st.gy_tilde
    return Gx, Gy, 2 * m


def svrgo_sample(
    p: RobustLRProblem,
    X: np.ndarray,
    Y: np.ndarray,
    st: SvrgState,
    rng: np.random.Generator,
):
    """svrgo_grad on batches drawn from the sampling law."""
    return svrgo_grad(p, X, Y, st, st.draw_batches(rng))


def svrgo_update_reference(
    st: SvrgState,
    prob: RobustLRProblem,
    X: np.ndarray,
    Y: np.ndarray,
    rng: np.random.Generator,
):
    """Shared Bernoulli(p) refresh of every node's reference point.

    Returns (state, cost): cost is m*n gradient units when the refresh
    fires, else 0.  The same coin is used for all nodes so references stay
    synchronized.
    """
    omega = rng.random() < st.p
    if not omega:
        return st, 0
    # same law and coin, so the checked fields carry over unchanged
    state = copy.copy(st)
    state.x_tilde, state.y_tilde = X, Y
    state.gx_tilde, state.gy_tilde = prob.full_grads(X, Y)
    return state, prob.m * prob.n
