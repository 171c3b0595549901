"""Robust logistic regression as a strongly-convex-strongly-concave saddle
problem.

Each node i holds n batches; batch (i, j) contributes

    f_ij(x, y) = (n/N) sum_l log(1 + exp(-b_l x^T (a_l + y)))
                 + (lambda/2m) ||x||^2 - (beta/2m) ||y||^2

with x constrained to the R_x ball and the perturbation y to the R_y ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .data import Dataset

# the signs of a gradient step on the (x, y) block pair: x descends, y ascends
BLOCK_SIGNS = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class SaddleConstants:
    """Smoothness / strong-convexity moduli of the local losses; a
    non-finite one, as from an overflowing bound, or a smoothness constant
    or kappa_f whose square (which the schedules take) is not finite,
    raises OverflowError naming it."""

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
        names = ("mu_x", "mu_y", "L_xx", "L_yy", "L_xy", "L_yx")
        vals = tuple(getattr(self, name) for name in names)
        for name, v in zip(names, vals):
            if not math.isfinite(v):
                raise OverflowError(f"constant {name} = {v} is not finite")
        if any(v <= 0 for v in vals):
            raise ValueError(f"all constants must be positive, got {vals}")
        L, mu = max(vals[2:]), min(vals[:2])
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa_f", L / mu)
        for name in (*names[2:], "kappa_f"):
            v = getattr(self, name)
            if not math.isfinite(v * v):
                raise OverflowError(f"constant {name} = {v:.6g} has no finite square")
        if self.kappa_f < 1.0:
            raise ValueError("kappa_f < 1: moduli exceed smoothness constants")


class SaddleProblem(Protocol):
    """All that solvers, oracles, ipdhg and metrics read of a problem: m
    nodes of n batches in dimension d, batch j of node i at flat row
    row0[i] + j, its constants, the batch gradients and their per-node
    means, and the projections.  RobustLRProblem documents each member."""

    m: int
    n: int
    d: int
    row0: np.ndarray
    constants: SaddleConstants

    def bind_batch_grads(self, Z: np.ndarray, per_node: int | None = None): ...
    def full_grads(self, Z: np.ndarray) -> np.ndarray: ...
    def bind_prox(self, shape: tuple): ...
    def prox_step(self, Z: np.ndarray, G: np.ndarray, s: float) -> np.ndarray: ...
    def prox_residual(self, Z: np.ndarray, G: np.ndarray, s: float) -> float: ...


class RobustLRProblem:
    """Per-node, per-batch losses with gradients, ball projections, and
    worst-case smoothness constants.

    The batches are stored once, as contiguous features and labels: row
    i*n + j of the (m*n, B, d) array `features` and of the (m*n, B) array
    `labels` is batch (i, j), one sample per line, B the largest batch
    size.  A padded sample has features 0 and label 0, so it adds exactly
    zero to both gradient blocks.  One flat index row0 + J gathers the
    batches J[i] of every node i at once.  Every gradient, of one batch per
    node or of all of them, goes through bind_batch_grads, which sets no
    error state of its own: callers enter overflow_guard() around it (the
    solvers once per solve).
    """

    def __init__(
        self,
        ds: Dataset,
        index: np.ndarray,
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
        self.N, self.d = ds.N, ds.d
        self.m, self.n = index.shape[:2]
        self.lam, self.beta, self.R_x, self.R_y = lam, beta, R_x, R_y
        self._radii = np.array([R_x, R_y], dtype=float)[:, None, None]
        self.row0 = np.arange(self.m) * self.n  # flat batch row of each node's batch 0
        # kernel constants: -n/N, and the regularizer factors [lam/m,
        # -beta/m] of the stacked gradient's blocks
        self._neg_c = -self.n / self.N
        self._reg = (lam / self.m, -(beta / self.m))
        # one count per sample, and one for the padding index N
        counts = np.bincount(index.ravel(), minlength=self.N + 1)
        if counts.size != self.N + 1 or not (counts[: self.N] == 1).all():
            raise ValueError("partition is not a disjoint cover of the dataset")
        self.sizes = (index < self.N).sum(axis=-1)
        if np.any(self.sizes == 0):
            i, j = np.argwhere(self.sizes == 0)[0]
            raise ValueError(f"batch ({i}, {j}) is empty")
        # the samples plus one zero row and label, which padding reads
        A, b = np.zeros((self.N + 1, self.d)), np.zeros(self.N + 1)
        A[: self.N], b[: self.N] = ds.features, ds.labels
        B = index.shape[2]
        rows = index.reshape(self.m * self.n, B)
        self.features, self.labels = A.take(rows, axis=0), b.take(rows)
        self.constants = (
            constants if constants is not None else self.lipschitz_constants()
        )

    def batch(self, i: int, j: int):
        """(A, b) of batch (i, j) without padding."""
        r, k = i * self.n + j, self.sizes[i, j]
        return self.features[r, :k], self.labels[r, :k]

    def loss_batch(self, i: int, j: int, z: np.ndarray) -> float:
        """f_ij at the stacked (2, d) point z = [x, y]."""
        A, b = self.batch(i, j)
        x, y = z
        t = b * ((A + y) @ x)
        # log(1 + exp(-t)) computed stably for large |t|
        logistic = np.logaddexp(0.0, -t)
        return float(
            (self.n / self.N) * np.sum(logistic)
            + (self.lam / (2 * self.m)) * np.dot(x, x)
            - (self.beta / (2 * self.m)) * np.dot(y, y)
        )

    def bind_batch_grads(self, Z: np.ndarray, per_node: int | None = None):
        """Batch gradients bound to the stacked (2, m, d) point Z, which is
        read at every call (so it may advance in place between calls); a
        (2, 1, d) point serves every node.

        Returns grads(rows), rows flat batch rows (i*n + j for node i's
        batch j): by default an (m,) array, one batch per node, whose
        gradients come back as (2, m, d); with per_node = k an (m, k)
        array, whose gradients come back as (2, m, k, d).  Row i of rows
        is differentiated at (Z[0, i], Z[1, i]).  The result, the gathered
        batches, the work arrays and the constants at the shapes they meet
        live in arrays allocated here once, and each call overwrites them:
        a product of same-shape arrays skips NumPy's scalar conversion and
        broadcasting set-up, and a view made once skips its overlap check,
        with the same bits (out arrays go positionally, as in the step
        plan).
        """
        m, d = self.m, self.d
        if Z.shape not in ((2, m, d), (2, 1, d)):
            raise ValueError(f"expected a (2, {m}, {d}) point, got {Z.shape}")
        lead = (m,) if per_node is None else (m, per_node)
        if per_node is not None:
            Z = Z[:, :, None, :]
        feats, labels = self.features, self.labels
        AY = np.empty((*lead, labels.shape[1], d))
        lb = AY.shape[:-1]  # (*lead, B)
        b, t, one = np.empty(lb), np.empty(lb), np.ones(lb)
        G, v, cb = np.empty((2, *lead, d)), np.empty((*lead, d)), np.empty((*lead, 1))
        # -n/N carries the sign of the loss derivative -b sigmoid(-t)
        cv, ccb = np.full(v.shape, self._neg_c), np.full(cb.shape, self._neg_c)
        X, Yb, G0, G1 = Z[0], Z[1][..., None, :], G[0], G[1]
        reg = np.empty(Z.shape)
        reg[0], reg[1] = self._reg

        def grads(rows):
            feats.take(rows, axis=0, out=AY)
            np.add(AY, Yb, AY)
            labels.take(rows, axis=0, out=b)
            # both regularizers in one product: [lam/m x, -beta/m y]
            np.multiply(reg, Z, G)
            np.matvec(AY, X, t)
            np.multiply(b, t, t)
            # b sigmoid(-t) = b / (1 + exp(t)), in place on t
            np.exp(t, t)
            np.add(one, t, t)
            np.divide(one, t, t)
            np.multiply(b, t, t)
            np.add(np.multiply(cv, np.vecmat(t, AY, v), v), G0, G0)
            np.multiply(ccb, np.add.reduce(t, axis=-1, keepdims=True, out=cb), cb)
            np.add(np.multiply(cb, X, v), G1, G1)
            return G

        return grads

    def all_batch_grads(self, Z: np.ndarray) -> np.ndarray:
        """(2, m, n, d): [:, i, j] is the gradient of node i's batch j at
        the stacked point Z, as bind_batch_grads takes it, in a new array.
        The binder is looked up on the class, so a wrapper set on an
        instance's bind_batch_grads sees only bound draws."""
        n = self.n
        grads = RobustLRProblem.bind_batch_grads(self, np.asarray(Z, dtype=float), n)
        return grads(self.row0[:, None] + np.arange(n))

    def full_grads(self, Z: np.ndarray) -> np.ndarray:
        """Row i of each block: average of node i's n batch gradients at
        the stacked point Z, as all_batch_grads takes it; (2, m, d)."""
        return batch_mean(self.all_batch_grads(Z))

    def prox(self, Z: np.ndarray):
        """Ball projection of a stacked (2, k, d) primal-dual block: every
        row of Z[0] onto the R_x ball, every row of Z[1] onto the R_y ball,
        in a new array.  Raises FloatingPointError if a row norm is not
        finite."""
        return _project_ball(Z, self._radii)

    def prox_step(self, Z: np.ndarray, G: np.ndarray, s: float) -> np.ndarray:
        """prox(Z + s (-G_x, +G_y)): the projected gradient step of step
        size s from a stacked (2, k, d) point Z with gradient blocks G, x
        descending and y ascending."""
        return self.prox(Z + (s * BLOCK_SIGNS)[:, None, None] * G)

    def bind_prox(self, shape: tuple):
        """prox(Z, out) for stacked blocks of the given (2, k, d) shape,
        with the radii at the row norms' shape and the work arrays
        allocated here once."""
        sq, norm = np.empty(shape), np.empty(shape[:-1] + (1,))
        R = np.broadcast_to(self._radii, norm.shape).copy()
        return lambda Z, out: _project_ball(Z, R, out, sq, norm)

    def lipschitz_constants(self) -> SaddleConstants:
        """Worst-case per-batch smoothness bounds over the constraint balls;
        a bound that overflows, the radii's squares included, is refused by
        SaddleConstants."""
        c = self.n / self.N
        N_ij = self.sizes
        # batch (i, j) at [i, j]; the radii as float64, whose square
        # overflows to inf under the errstate where a float's raises
        A = self.features.reshape(self.m, self.n, -1, self.d)
        R_x, R_y = self._radii.ravel()
        with np.errstate(over="ignore"):
            sq = np.sum(A**2, axis=(2, 3))
            norms = np.sum(np.linalg.norm(A, axis=3), axis=2)
            L_xx = np.max(0.5 * c * sq + 0.5 * c * N_ij * R_y**2) + self.lam / self.m
            L_yy = np.max(0.25 * c * N_ij * R_x**2) + self.beta / self.m
            L_xy = np.max(c * ((1.0 + R_x * R_y / 4.0) * N_ij + (R_x / 4.0) * norms))
        return SaddleConstants(
            mu_x=self.lam, mu_y=self.beta, L_xx=float(L_xx), L_yy=float(L_yy),
            L_xy=float(L_xy), L_yx=float(L_xy),
        )

    def prox_residual(self, Z: np.ndarray, G: np.ndarray, s: float) -> float:
        """Squared norm of Z - prox_step(Z, G, s) for a one-row stacked
        (2, 1, d) point Z and its gradient blocks G."""
        r = Z - self.prox_step(Z, G, s)
        rx, ry = r[0, 0], r[1, 0]
        return float(np.dot(rx, rx) + np.dot(ry, ry))


def overflow_guard():
    """Error state for gradient evaluations: exp in the kernel overflows to
    inf for far out-of-margin samples, which gives the right sigmoid value
    0, so overflow is ignored.  The solvers enter it once per solve, not
    once per kernel call."""
    return np.errstate(over="ignore")


def batch_mean(Gb: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(2, k, d) means of (2, k, n, d) batch gradients, into out if given:
    summed over batches in batch order, then divided by n."""
    return np.divide(np.add.reduce(Gb, 2, None, out), Gb.shape[2], out)


def _project_ball(v, R, out=None, sq=None, norm=None) -> np.ndarray:
    """Project each row of v (a 1-D v is one row) onto the R-ball, into out
    if given; R may be an array broadcasting against the row norms, and sq
    (shaped like v) and norm (the row norms, last axis 1) are work arrays
    if given.

    Raises FloatingPointError if a squared row norm is not finite: a row
    holding a NaN or an inf, or a finite row whose squared norm overflows
    (which would otherwise be sent to the origin).
    """
    v = np.asarray(v, dtype=float)
    sq = np.multiply(v, v, out=sq)
    norm = np.add.reduce(sq, axis=-1, keepdims=True, out=norm)
    # NaN propagates through the maximum and fails the comparison
    if not np.maximum.reduce(norm, axis=None, initial=0.0) < np.inf:
        raise FloatingPointError("non-finite row norm in a ball projection")
    np.sqrt(norm, out=norm)
    # R / max(norm, R) is exactly 1 inside the ball
    np.divide(R, np.maximum(norm, R, out=norm), out=norm)
    return np.multiply(v, norm, out=out)
