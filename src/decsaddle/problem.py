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


class RobustLRProblem:
    """Per-node, per-batch losses with gradients, ball projections, and
    worst-case smoothness constants.

    The batches are stored once as a zero-padded (m, n, B, d) feature tensor
    A with (m, n, B) labels b, B the largest batch size.  A padded sample has
    features 0 and label 0, so it adds exactly zero to both gradient blocks.
    Every gradient, for one node or the whole ensemble, goes through _grad.
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
        self.nodes = np.arange(self.m)  # row index of every node, for gathers
        covered = np.concatenate(
            [part.batch(i, j) for i in range(part.m) for j in range(part.n)]
        )
        if len(covered) != self.N or len(np.unique(covered)) != self.N:
            raise ValueError("partition is not a disjoint cover of the dataset")
        self.sizes = np.array(
            [[len(part.batch(i, j)) for j in range(part.n)] for i in range(part.m)]
        )
        if np.any(self.sizes == 0):
            i, j = np.argwhere(self.sizes == 0)[0]
            raise ValueError(f"batch ({i}, {j}) is empty")
        dense = ds.dense()
        B = int(self.sizes.max())
        self.A = np.zeros((self.m, self.n, B, self.d))
        self.b = np.zeros((self.m, self.n, B))
        for i in range(self.m):
            for j in range(self.n):
                idx = part.batch(i, j)
                self.A[i, j, : len(idx)] = dense[idx]
                self.b[i, j, : len(idx)] = ds.labels[idx]
        self.constants = (
            constants if constants is not None else self.lipschitz_constants()
        )

    def batch(self, i: int, j: int):
        """(A, b) of batch (i, j) without padding."""
        k = self.sizes[i, j]
        return self.A[i, j, :k], self.b[i, j, :k]

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

    def _grad(self, A, b, X, Y, c: float) -> np.ndarray:
        """Gradient blocks of k losses at once, stacked as (2, k, d).

        Row r is the loss over samples A[r] (B, d) with labels b[r], scaled
        by c, plus the regularizers, evaluated at (X[r], Y[r]); block 0 is
        the x-gradient, block 1 the y-gradient.
        """
        AY = A + Y[:, None, :]
        t = b * (AY @ X[:, :, None])[..., 0]
        coeff = -b * sigmoid(-t)  # one scalar per sample
        G = np.empty((2,) + X.shape)
        np.add(c * (coeff[:, None, :] @ AY)[:, 0], (self.lam / self.m) * X, out=G[0])
        np.subtract(
            (c * coeff.sum(axis=1))[:, None] * X, (self.beta / self.m) * Y, out=G[1]
        )
        return G

    def batch_grads(self, X: np.ndarray, Y: np.ndarray, J: np.ndarray) -> np.ndarray:
        """Row i of each block: gradient of node i's batch J[i] at (X[i], Y[i])."""
        return self._grad(
            self.A[self.nodes, J], self.b[self.nodes, J], X, Y, self.n / self.N
        )

    def all_batch_grads(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """(2, m, n, d): every batch gradient of node i at (X[i], Y[i])."""
        return self._all_batches(self.A, self.b, X, Y)

    def full_grads(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Row i of each block: average of node i's n batch gradients at
        (X[i], Y[i]); (2, m, d)."""
        return batch_mean(self.all_batch_grads(X, Y))

    def _all_batches(self, A, b, X, Y):
        """(2, k, n, d): gradient of batch A[r, j] at (X[r], Y[r])."""
        k, n, B, d = A.shape
        G = self._grad(
            A.reshape(k * n, B, d), b.reshape(k * n, B),
            np.repeat(X, n, axis=0), np.repeat(Y, n, axis=0), self.n / self.N,
        )
        return G.reshape(2, k, n, d)

    def grad_batch(self, i: int, j: int, z: PrimalDualPoint):
        G = self._grad(
            self.A[i, j][None], self.b[i, j][None], z.x[None], z.y[None],
            self.n / self.N,
        )
        return G[0, 0], G[1, 0]

    def grad_full(self, i: int, z: PrimalDualPoint):
        """Average of batch gradients; costs n gradient units."""
        A, b = self.A[i : i + 1], self.b[i : i + 1]
        G = batch_mean(self._all_batches(A, b, z.x[None], z.y[None]))
        return G[0, 0], G[1, 0]

    def prox(self, Z: np.ndarray, s: float) -> np.ndarray:
        """Ball projection of a stacked primal-dual block: every row of
        Z[0] onto the R_x ball, every row of Z[1] onto the R_y ball."""
        return _project_ball(Z, self._radii)

    def prox_primal(self, x: np.ndarray, s: float) -> np.ndarray:
        return _project_ball(x, self.R_x)

    def prox_dual(self, y: np.ndarray, s: float) -> np.ndarray:
        return _project_ball(y, self.R_y)

    def lipschitz_constants(self) -> SaddleConstants:
        """Worst-case per-batch smoothness bounds over the constraint balls."""
        c = self.n / self.N
        N_ij = self.sizes
        sq = np.sum(self.A**2, axis=(2, 3))
        norms = np.sum(np.linalg.norm(self.A, axis=3), axis=2)
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
        Gx, Gy = self.full_grads(
            np.tile(z.x, (self.m, 1)), np.tile(z.y, (self.m, 1))
        )
        gx = Gx.sum(axis=0)
        gy = Gy.sum(axis=0)
        rx = z.x - self.prox_primal(z.x - (s / self.m) * gx, s)
        ry = z.y - self.prox_dual(z.y + (s / self.m) * gy, s)
        return float(np.dot(rx, rx) + np.dot(ry, ry))


def sigmoid(t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)), elementwise; exp overflows to inf for t < -709,
    giving 0 without a warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


def batch_mean(Gb: np.ndarray) -> np.ndarray:
    """(2, k, d) means of (2, k, n, d) batch gradients: summed over batches
    in batch order, then divided by n."""
    return Gb.sum(axis=2) / Gb.shape[2]


def _project_ball(v: np.ndarray, R) -> np.ndarray:
    """Project each row of v (a 1-D v is one row) onto the R-ball; R may be
    an array broadcasting against the row norms."""
    v = np.asarray(v, dtype=float)
    norm = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    # R / max(norm, R) is exactly 1 inside the ball
    return v * (R / np.maximum(norm, R))
