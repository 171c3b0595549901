"""Ring and 2D-torus networks: their gossip product and spectral helpers.

A graph is its torus shape dims, from which m and W follow.  All per-node
state in this package is stored as a stacked array of shape (..., m, d):
row i of every (m, d) block is the local vector of node i, and node (r,
c) of a torus is row r * cols + c.  W is read here only: bind_mix binds
the gossip product W V, which compression.bind_exchange runs once per
step, and spectral decomposes I - W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# eigenvalues of I-W at or below ZERO_TOL count as the all-ones direction's 0
ZERO_TOL = 1e-10
# jacobi_eigh stops at off-diagonal norm <= JACOBI_TOL * norm, or after JACOBI_SWEEPS
JACOBI_TOL, JACOBI_SWEEPS = 1e-13, 100


@dataclass(frozen=True)
class DecGraph:
    """The torus of shape dims: (m,) for a ring of m nodes, (rows, cols)
    for a rows x cols torus and () for the single node.  Every axis has at
    least 3 nodes, so a node's neighbours are distinct and the graph is
    connected."""

    dims: tuple
    m = property(lambda self: math.prod(self.dims))

    def __post_init__(self):
        if any(n < 3 for n in self.dims):
            raise ValueError(f"a torus axis needs >= 3 nodes, got dims {self.dims}")

    @cached_property
    def W(self) -> np.ndarray:
        """The read-only m x m mixing matrix: one weight, 1/(1 + 2
        len(dims)), on each node and on its two wrap-around neighbours
        along every axis."""
        weight = 1.0 / (1 + 2 * len(self.dims))
        node = np.arange(self.m).reshape(self.dims)
        W = np.zeros((self.m, self.m))
        W[node, node] = weight
        for axis in range(len(self.dims)):
            for shift in (1, -1):
                W[node, np.roll(node, shift, axis)] = weight
        W.flags.writeable = False
        return W


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


def build_ring(m: int) -> DecGraph:
    """Ring of m >= 3 nodes, weight 1/3 on self and on both neighbours."""
    return DecGraph((m,))


def build_torus(rows: int, cols: int) -> DecGraph:
    """rows x cols torus, rows, cols >= 3, weight 1/5 on self and on the
    four wrap-around neighbours."""
    return DecGraph((rows, cols))


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
    """Eigendecomposition of I-W.  A torus of two or more nodes is
    connected, so its second-smallest eigenvalue is positive; the single
    node has none and is refused (ValueError)."""
    if g.m < 2:
        raise ValueError("the single node has no spectral gap")
    lam, V = jacobi_eigh(np.eye(g.m) - g.W)
    return SpectralInfo(eigvals=lam, eigvecs=V)


def bind_mix(g: DecGraph, shape: tuple):
    """mix(V, out): the gossip product out = W V of a float array V of the
    given shape (..., m, d), returning out; row i of every (m, d) block of
    out is sum_j W_ij V[j].  The node count is checked here once."""
    if len(shape) < 2 or shape[-2] != g.m:
        raise ValueError(f"expected {g.m} node blocks, got shape {shape}")
    W = g.W
    return lambda V, out: np.matmul(W, V, out)


def mix(g: DecGraph, V: np.ndarray) -> np.ndarray:
    """bind_mix's product W V, once, in a new array."""
    V = np.asarray(V, dtype=float)
    return bind_mix(g, V.shape)(V, np.empty_like(V))


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
    keep = lam > ZERO_TOL
    return np.sum(np.sum(coeffs[..., keep, :] ** 2, axis=-1) / lam[keep], axis=-1)
