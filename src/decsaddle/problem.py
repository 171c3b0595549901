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

import numpy as np

from .data import Dataset

# the signs of a gradient step on the (x, y) block pair: x descends, y ascends
BLOCK_SIGNS = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class SaddleConstants:
    """Smoothness / strong-convexity moduli of the local losses; a
    non-finite one, as from an overflowing bound, raises OverflowError."""

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
        for name, v in zip(("mu_x", "mu_y", "L_xx", "L_yy", "L_xy", "L_yx"), vals):
            if not math.isfinite(v):
                raise OverflowError(f"constant {name} = {v} is not finite")
        if any(v <= 0 for v in vals):
            raise ValueError(f"all constants must be positive, got {vals}")
        L = max(self.L_xx, self.L_yy, self.L_xy, self.L_yx)
        mu = min(self.mu_x, self.mu_y)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa_f", L / mu)
        if self.kappa_f < 1.0:
            raise ValueError("kappa_f < 1: moduli exceed smoothness constants")


class RobustLRProblem:
    """Per-node, per-batch losses with gradients, ball projections, and
    worst-case smoothness constants.

    The batches are stored once, as contiguous features and labels: row
    i*n + j of the (m*n, B, d) array `features` and of the (m*n, B) array
    `labels` is batch (i, j), one sample per line, B the largest batch
    size.  A padded sample has features 0 and label 0, so it adds exactly
    zero to both gradient blocks.  One flat index row0 + J gathers the
    batches J[i] of every node i at once.  Every gradient, of gathered
    batches or of all of them, goes through _bind_grad, which sets no error
    state of its own: callers enter overflow_guard() around it (the solvers
    once per solve).
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
        self.N = ds.N
        self.d = ds.d
        self.m, self.n = index.shape[:2]
        self.lam = lam
        self.beta = beta
        self.R_x = R_x
        self.R_y = R_y
        self._radii = np.array([R_x, R_y], dtype=float)[:, None, None]
        self.row0 = np.arange(self.m) * self.n  # flat batch row of each node's batch 0
        # kernel constants: -n/N, and the (2, 1, 1) regularizer factors
        # [lam/m, -beta/m] of the stacked gradient
        self._neg_c = -self.n / self.N
        self._reg = np.array([lam / self.m, -(beta / self.m)])[:, None, None]
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
        # the same features as (m, n, B, d): batch (i, j) at [i, j]
        self.batches = self.features.reshape(self.m, self.n, B, self.d)
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

    def _bind_grad(self, AY, b, X, G):
        """run(): add the loss gradients of a stack of batches to G, in
        place, reading the arrays bound here at every run; returns G.

        AY holds the batch features plus the dual rows, (*lead, B, d), b
        the labels (*lead, B) and X the primal rows, broadcasting against
        (*lead, d); G (2, *lead, d) holds the regularizers on entry, block
        0 the x-gradient and block 1 the y-gradient.  The work arrays, the
        blocks' views and the constants at the shapes they meet are made
        here once: a product of same-shape arrays skips NumPy's scalar
        conversion and broadcasting set-up, and a view made once skips its
        overlap check, with the same bits (out arrays go positionally, as
        in the step plan).
        """
        t = np.empty(b.shape)
        v, cb = np.empty(G.shape[1:]), np.empty(b.shape[:-1] + (1,))
        one, cv, ccb = np.empty(b.shape), np.empty(v.shape), np.empty(cb.shape)
        one.fill(1.0)
        # -n/N carries the sign of the loss derivative -b sigmoid(-t)
        cv.fill(self._neg_c)
        ccb.fill(self._neg_c)
        G0, G1 = G[0], G[1]

        def run():
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

        return run

    def bind_batch_grads(self, Z: np.ndarray):
        """Batch gradients bound to the stacked (2, m, d) point Z, which is
        read at every call (so it may advance in place between calls).

        Returns grads(rows): row i of each block of the (2, m, d) result is
        the gradient of batch rows[i] (a flat batch row, i*n + j for node
        i's batch j) at (Z[0, i], Z[1, i]).  The result and the gathered
        batches live in arrays allocated here once; each call overwrites
        them.
        """
        m, d = self.m, self.d
        B = self.labels.shape[1]
        if Z.shape != (2, m, d):
            raise ValueError(f"expected a (2, {m}, {d}) point, got {Z.shape}")
        feats, labels = self.features, self.labels
        Yb = Z[1][:, None, :]
        reg = np.empty(Z.shape)
        np.copyto(reg, self._reg)
        AY, b, G = np.empty((m, B, d)), np.empty((m, B)), np.empty((2, m, d))
        run = self._bind_grad(AY, b, Z[0], G)

        def grads(rows):
            feats.take(rows, axis=0, out=AY)
            np.add(AY, Yb, AY)
            labels.take(rows, axis=0, out=b)
            # both regularizers in one product: [lam/m x, -beta/m y]
            np.multiply(reg, Z, G)
            return run()

        return grads

    def bind_all_batch_grads(self, Z: np.ndarray):
        """Every batch gradient bound to the stacked (2, m, d) point Z,
        which is read at every call; a (2, 1, d) point serves every node.

        Returns grads() -> the (2, m, n, d) array whose [:, i, j] is the
        gradient of node i's batch j at (Z[0, i], Z[1, i]).  That array and
        the batch features plus dual rows live in arrays allocated here
        once; each call overwrites them.
        """
        Z = Z[:, :, None, :]
        reg, feats = self._reg[..., None], self.batches
        AY, G = np.empty(feats.shape), np.empty((2, self.m, self.n, self.d))
        labels = self.labels.reshape(feats.shape[:-1])
        run = self._bind_grad(AY, labels, Z[0], G)
        Yb = Z[1][..., None, :]

        def grads():
            np.add(feats, Yb, AY)
            np.multiply(reg, Z, G)  # [lam/m x, -beta/m y]
            return run()

        return grads

    def all_batch_grads(self, Z: np.ndarray) -> np.ndarray:
        """bind_all_batch_grads(Z)'s gradients, once, in a new array."""
        return self.bind_all_batch_grads(np.asarray(Z, dtype=float))()

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
        R = np.empty(norm.shape)
        np.copyto(R, self._radii)
        return lambda Z, out: _project_ball(Z, R, out, sq, norm)

    def lipschitz_constants(self) -> SaddleConstants:
        """Worst-case per-batch smoothness bounds over the constraint balls;
        a bound that overflows is refused by SaddleConstants."""
        c = self.n / self.N
        N_ij = self.sizes
        A, R_x, R_y = self.batches, self.R_x, self.R_y
        with np.errstate(over="ignore"):
            sq = np.sum(A**2, axis=(2, 3))
            norms = np.sum(np.linalg.norm(A, axis=3), axis=2)
            L_xx = np.max(0.5 * c * sq + 0.5 * c * N_ij * R_y**2) + self.lam / self.m
            L_yy = np.max(0.25 * c * N_ij * R_x**2) + self.beta / self.m
            L_xy = np.max(c * ((1.0 + R_x * R_y / 4.0) * N_ij + (R_x / 4.0) * norms))
        return SaddleConstants(
            mu_x=self.lam,
            mu_y=self.beta,
            L_xx=float(L_xx),
            L_yy=float(L_yy),
            L_xy=float(L_xy),
            L_yx=float(L_xy),
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
