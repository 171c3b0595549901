"""Robust logistic regression as a strongly-convex-strongly-concave saddle
problem.

Each node i holds n batches; batch (i, j) contributes

    f_ij(x, y) = (n/N) sum_l log(1 + exp(-b_l x^T (a_l + y)))
                 + (lambda/2m) ||x||^2 - (beta/2m) ||y||^2

with x constrained to the R_x ball and the perturbation y to the R_y ball.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Partition


@dataclass(frozen=True)
class SaddleConstants:
    """Smoothness / strong-convexity moduli of the local losses."""

    mu_x: float
    mu_y: float
    L_xx: float
    L_yy: float
    L_xy: float
    L_yx: float
    L: float = field(init=False)
    mu: float = field(init=False)
    kappa_f: float = field(init=False)

    def __post_init__(self):
        vals = (self.mu_x, self.mu_y, self.L_xx, self.L_yy, self.L_xy, self.L_yx)
        if any(v <= 0 for v in vals):
            raise ValueError(f"all constants must be positive, got {vals}")
        L = max(self.L_xx, self.L_yy, self.L_xy, self.L_yx)
        mu = min(self.mu_x, self.mu_y)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa_f", L / mu)
        if self.kappa_f < 1.0:
            raise ValueError("kappa_f < 1: moduli exceed smoothness constants")


@dataclass(frozen=True)
class PrimalDualPoint:
    x: np.ndarray
    y: np.ndarray

    def stacked(self) -> np.ndarray:
        """(2, 1, d): [x, y] as a one-row stacked primal-dual block."""
        return np.array([self.x, self.y], dtype=float)[:, None, :]


class RobustLRProblem:
    """Per-node, per-batch losses with gradients, ball projections, and
    worst-case smoothness constants.

    The batches are stored once as packed records: row i*n + j of the
    (m*n, B, d + 1) array `records` is batch (i, j), one sample per line,
    its d features followed by its label, B the largest batch size.  A
    padded sample has features 0 and label 0, so it adds exactly zero to
    both gradient blocks.  One flat index row0 + J gathers the batches J[i]
    of every node i at once.  Every gradient, for one node or the whole
    ensemble, goes through _grad, which sets no error state of its own:
    callers enter overflow_guard() around it (the solvers once per solve).
    """

    def __init__(
        self,
        ds: Dataset,
        part: Partition,
        lam: float,
        beta: float,
        R_x: float,
        R_y: float,
        constants: SaddleConstants | None = None,
    ):
        if lam <= 0 or beta <= 0:
            raise ValueError("lambda and beta must be positive")
        if R_x <= 0 or R_y <= 0:
            raise ValueError("ball radii must be positive")
        self.N = ds.N
        self.d = ds.d
        self.m = part.m
        self.n = part.n
        self.lam = lam
        self.beta = beta
        self.R_x = R_x
        self.R_y = R_y
        self._radii = np.array([R_x, R_y], dtype=float)[:, None, None]
        self.row0 = np.arange(self.m) * self.n  # record row of each node's batch 0
        # kernel scalars; -n/N carries the sign of -b sigmoid(-t)
        self._neg_c = -self.n / self.N
        self._lam_m = lam / self.m
        self._beta_m = beta / self.m
        covered = np.concatenate(
            [part.batch(i, j) for i in range(part.m) for j in range(part.n)]
        )
        # every sample exactly once (np.unique would import numpy.ma)
        once = np.bincount(covered, minlength=self.N) == 1
        if len(covered) != self.N or not once.all():
            raise ValueError("partition is not a disjoint cover of the dataset")
        self.sizes = np.array(
            [[len(part.batch(i, j)) for j in range(part.n)] for i in range(part.m)]
        )
        if np.any(self.sizes == 0):
            i, j = np.argwhere(self.sizes == 0)[0]
            raise ValueError(f"batch ({i}, {j}) is empty")
        dense = ds.dense()
        B = int(self.sizes.max())
        self.records = np.zeros((self.m * self.n, B, self.d + 1))
        for i in range(self.m):
            for j in range(self.n):
                idx = part.batch(i, j)
                rec = self.records[i * self.n + j, : len(idx)]
                rec[:, : self.d] = dense[idx]
                rec[:, self.d] = ds.labels[idx]
        # the same records as (m, n, B, d + 1): batch (i, j) at [i, j]
        self.batches = self.records.reshape(self.m, self.n, B, self.d + 1)
        self.constants = (
            constants if constants is not None else self.lipschitz_constants()
        )

    def batch(self, i: int, j: int):
        """(A, b) of batch (i, j) without padding."""
        rec = self.batches[i, j, : self.sizes[i, j]]
        return rec[:, : self.d], rec[:, self.d]

    def loss_batch(self, i: int, j: int, z: PrimalDualPoint) -> float:
        A, b = self.batch(i, j)
        t = b * ((A + z.y) @ z.x)
        # log(1 + exp(-t)) computed stably for large |t|
        logistic = np.logaddexp(0.0, -t)
        return float(
            (self.n / self.N) * np.sum(logistic)
            + (self.lam / (2 * self.m)) * np.dot(z.x, z.x)
            - (self.beta / (2 * self.m)) * np.dot(z.y, z.y)
        )

    def _grad(self, R: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Gradient blocks of a stack of batch losses, (2, *lead, d).

        R holds records (*lead, B, d + 1); X and Y broadcast against
        (*lead, d).  Entry r of each block is the gradient of the loss over
        the samples of R[r], evaluated at (X[r], Y[r]), plus the
        regularizers; block 0 is the x-gradient, block 1 the y-gradient.
        """
        d = self.d
        A, b = R[..., :d], R[..., d]
        AY = A + Y[..., None, :]
        t = np.matvec(AY, X)
        np.multiply(b, t, out=t)
        # b sigmoid(-t), in place on t; the -b of the loss derivative rides
        # on _neg_c, which negates exactly
        np.exp(t, out=t)
        np.add(1.0, t, out=t)
        np.divide(1.0, t, out=t)
        bs = np.multiply(b, t, out=t)
        c = self._neg_c
        G = np.empty((2,) + AY.shape[:-2] + (d,))
        np.add(c * np.vecmat(bs, AY), self._lam_m * X, out=G[0])
        cbs = c * np.add.reduce(bs, axis=-1)
        np.subtract(cbs[..., None] * X, self._beta_m * Y, out=G[1])
        return G

    def batch_grads(self, X: np.ndarray, Y: np.ndarray, J: np.ndarray) -> np.ndarray:
        """Row i of each block: gradient of node i's batch J[i] at (X[i], Y[i])."""
        return self._grad(self.records.take(self.row0 + J, axis=0), X, Y)

    def all_batch_grads(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """(2, m, n, d): every batch gradient of node i at (X[i], Y[i]); a
        single row X, Y serves every node."""
        return self._grad(self.batches, X[:, None], Y[:, None])

    def full_grads(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Row i of each block: average of node i's n batch gradients at
        (X[i], Y[i]); (2, m, d)."""
        return batch_mean(self.all_batch_grads(X, Y))

    def grad_batch(self, i: int, j: int, z: PrimalDualPoint):
        G = self._grad(self.batches[i, j][None], z.x[None], z.y[None])
        return G[0, 0], G[1, 0]

    def grad_full(self, i: int, z: PrimalDualPoint):
        """Average of batch gradients; costs n gradient units."""
        G = batch_mean(self._grad(self.batches[i : i + 1], z.x, z.y))
        return G[0, 0], G[1, 0]

    def prox(self, Z: np.ndarray, s: float, out: np.ndarray | None = None):
        """Ball projection of a stacked (2, k, d) primal-dual block: every
        row of Z[0] onto the R_x ball, every row of Z[1] onto the R_y ball;
        into out if given.  Raises FloatingPointError if a row norm is not
        finite."""
        return _project_ball(Z, self._radii, out=out)

    def lipschitz_constants(self) -> SaddleConstants:
        """Worst-case per-batch smoothness bounds over the constraint balls."""
        c = self.n / self.N
        N_ij = self.sizes
        A = self.batches[..., : self.d]
        sq = np.sum(A**2, axis=(2, 3))
        norms = np.sum(np.linalg.norm(A, axis=3), axis=2)
        L_xx = np.max(0.5 * c * sq + 0.5 * c * N_ij * self.R_y**2) + self.lam / self.m
        L_yy = np.max(0.25 * c * N_ij * self.R_x**2) + self.beta / self.m
        L_xy = np.max(
            c * ((1.0 + self.R_x * self.R_y / 4.0) * N_ij + (self.R_x / 4.0) * norms)
        )
        return SaddleConstants(
            mu_x=self.lam,
            mu_y=self.beta,
            L_xx=float(L_xx),
            L_yy=float(L_yy),
            L_xy=float(L_xy),
            L_yx=float(L_xy),
        )

    def saddle_residual(self, z: PrimalDualPoint, s: float) -> float:
        """Squared fixed-point residual of the prox-gradient optimality map."""
        if s <= 0:
            raise ValueError("step size must be positive")
        Z = z.stacked()
        g = self.full_grads(Z[0], Z[1]).sum(axis=1, keepdims=True)
        return self.prox_residual(Z, g, s / self.m)

    def prox_residual(self, Z: np.ndarray, G: np.ndarray, s: float) -> float:
        """Squared norm of Z - prox(Z + s (-G_x, +G_y)) for a one-row
        stacked (2, 1, d) point Z and its gradient blocks G."""
        r = Z - self.prox(Z + np.array([-s, s])[:, None, None] * G, s)
        rx, ry = r[0, 0], r[1, 0]
        return float(np.dot(rx, rx) + np.dot(ry, ry))


def overflow_guard():
    """Error state for gradient evaluations: exp in the kernel overflows to
    inf for far out-of-margin samples, which gives the right sigmoid value
    0, so overflow is ignored.  The solvers enter it once per solve, not
    once per kernel call."""
    return np.errstate(over="ignore")


def batch_mean(Gb: np.ndarray) -> np.ndarray:
    """(2, k, d) means of (2, k, n, d) batch gradients: summed over batches
    in batch order, then divided by n."""
    return Gb.sum(axis=2) / Gb.shape[2]


def _project_ball(v: np.ndarray, R, out: np.ndarray | None = None) -> np.ndarray:
    """Project each row of v (a 1-D v is one row) onto the R-ball, into out
    if given; R may be an array broadcasting against the row norms.

    Raises FloatingPointError if a squared row norm is not finite: a row
    holding a NaN or an inf, or a finite row whose squared norm overflows
    (which would otherwise be sent to the origin).
    """
    v = np.asarray(v, dtype=float)
    norm = np.add.reduce(v * v, axis=-1, keepdims=True)
    # NaN propagates through the maximum and fails the comparison
    if not np.maximum.reduce(norm, axis=None, initial=0.0) < np.inf:
        raise FloatingPointError("non-finite row norm in a ball projection")
    np.sqrt(norm, out=norm)
    # R / max(norm, R) is exactly 1 inside the ball
    np.divide(R, np.maximum(norm, R, out=norm), out=norm)
    return np.multiply(v, norm, out=out)
