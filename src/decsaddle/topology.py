"""Gossip weight matrices for ring / 2D-torus networks and spectral helpers.

All per-node state in this package is stored as a stacked array of shape
(m, d): row i is the local vector of node i.  W is built here; the step's
gossip product W Q is bound once, in compression.bind_exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DISCONNECT_TOL = 1e-10
# jacobi_eigh stops at off-diagonal norm <= JACOBI_TOL * norm, or after JACOBI_SWEEPS
JACOBI_TOL, JACOBI_SWEEPS = 1e-13, 100


class DisconnectedGraphError(ValueError):
    """Second-smallest eigenvalue of I-W is (numerically) zero."""


@dataclass(frozen=True)
class DecGraph:
    """Symmetric row-stochastic mixing matrix of the m nodes."""

    W: np.ndarray
    m = property(lambda self: self.W.shape[0])

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError(f"W must be square, got {W.shape}")
        if not np.array_equal(W, W.T):
            raise ValueError("W must be exactly symmetric")
        if np.max(np.abs(W.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("W must be row stochastic")
        if W.shape[0] > 1 and np.any(np.diag(W) <= 0):
            raise ValueError("W must have positive diagonal")
        object.__setattr__(self, "W", W)


@dataclass(frozen=True)
class SpectralInfo:
    """Eigendecomposition of I-W (ascending), with the quantities the
    step-size formulas need."""

    eigvals: np.ndarray
    eigvecs: np.ndarray  # columns are orthonormal eigenvectors of I-W
    lambda_max: float = field(init=False)
    lambda_second_smallest: float = field(init=False)
    kappa_g: float = field(init=False)

    def __post_init__(self):
        lam = np.asarray(self.eigvals, dtype=float)
        object.__setattr__(self, "eigvals", lam)
        object.__setattr__(self, "eigvecs", np.asarray(self.eigvecs, dtype=float))
        object.__setattr__(self, "lambda_max", float(lam[-1]))
        object.__setattr__(self, "lambda_second_smallest", float(lam[1]))
        object.__setattr__(self, "kappa_g", float(lam[-1] / lam[1]))


def _cycle(k: int) -> np.ndarray:
    """Adjacency of the k-cycle: the identity shifted one place each way
    (the two shifts hit distinct entries for k >= 3)."""
    I = np.eye(k)
    return np.roll(I, 1, axis=1) + np.roll(I, -1, axis=1)


def build_ring(m: int) -> DecGraph:
    """Ring with weight 1/3 on self and on both neighbors."""
    if m < 3:
        raise ValueError(f"ring needs m >= 3, got {m}")
    return DecGraph((np.eye(m) + _cycle(m)) * (1.0 / 3.0))


def build_torus(rows: int, cols: int) -> DecGraph:
    """2D torus with weight 1/5 on self and the four wrap-around neighbors:
    node r * cols + c neighbors its row's and its column's cycles."""
    if rows < 3 or cols < 3:
        raise ValueError(f"torus needs rows, cols >= 3, got ({rows}, {cols})")
    m = rows * cols
    A = np.kron(_cycle(rows), np.eye(cols)) + np.kron(np.eye(rows), _cycle(cols))
    return DecGraph((np.eye(m) + A) * (1.0 / 5.0))


def jacobi_eigh(A: np.ndarray):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns (eigvals ascending, eigvecs as columns).  Deterministic; good
    enough for the small (m <= few hundred) matrices we see here.
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    V = np.eye(n)
    norm = np.linalg.norm(A)
    if norm == 0.0:
        return np.zeros(n), V
    tol = JACOBI_TOL * norm
    for _ in range(JACOBI_SWEEPS):
        # sum the off-diagonal entries directly: subtracting the diagonal
        # sum of squares from the total cancels catastrophically once the
        # off-diagonal part is small
        off = np.sqrt(np.sum((A - np.diag(np.diag(A))) ** 2))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= tol / n:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                G_p = A[:, p].copy()
                G_q = A[:, q].copy()
                A[:, p] = c * G_p - s * G_q
                A[:, q] = s * G_p + c * G_q
                G_p = A[p, :].copy()
                G_q = A[q, :].copy()
                A[p, :] = c * G_p - s * G_q
                A[q, :] = s * G_p + c * G_q
                G_p = V[:, p].copy()
                G_q = V[:, q].copy()
                V[:, p] = c * G_p - s * G_q
                V[:, q] = s * G_p + c * G_q
    lam = np.diag(A).copy()
    order = np.argsort(lam)
    return lam[order], V[:, order]


def spectral(g: DecGraph) -> SpectralInfo:
    """Eigendecomposition of I-W; fails if the graph is disconnected."""
    L = np.eye(g.m) - g.W
    lam, V = jacobi_eigh(L)
    if g.m < 2 or lam[1] <= DISCONNECT_TOL:
        raise DisconnectedGraphError(
            "graph disconnected: second-smallest eigenvalue of I-W is "
            f"{lam[1] if g.m >= 2 else 0.0:.3e}"
        )
    if abs(lam[0]) > 1e-10:
        raise ValueError(f"smallest eigenvalue of I-W should be 0, got {lam[0]:.3e}")
    return SpectralInfo(eigvals=lam, eigvecs=V)


def mix(g: DecGraph, V: np.ndarray) -> np.ndarray:
    """Apply the mixing matrix to V of shape (..., m, d): output row i of
    every (m, d) block is sum_j W_ij V[j], in a new array."""
    V = np.asarray(V, dtype=float)
    if V.ndim < 2 or V.shape[-2] != g.m:
        raise ValueError(f"expected {g.m} node blocks, got shape {V.shape}")
    return g.W @ V


def pinv_weighted_sqnorm(spec: SpectralInfo, V: np.ndarray):
    """Squared norm of the (m, d) node rows V in the pseudoinverse metric
    of I-W, reduced over the last two axes: a float for one (m, d) block,
    one value per block for a stacked (..., m, d) array.

    The all-ones (zero-eigenvalue) direction is projected out; every other
    eigendirection is weighted by 1/lambda_e.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim < 2 or V.shape[-2] != spec.eigvals.shape[0]:
        raise ValueError("node-block count does not match the graph")
    # coeffs[..., e, :] = (u_e^T o I) V, one row per eigenvector
    coeffs = spec.eigvecs.T @ V
    lam = spec.eigvals
    keep = lam > DISCONNECT_TOL
    return np.sum(np.sum(coeffs[..., keep, :] ** 2, axis=-1) / lam[keep], axis=-1)
