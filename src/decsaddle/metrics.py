"""Cost accounting, the benchmark distance, and the Lyapunov diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problem import BLOCK_SIGNS, SaddleProblem
from .topology import SpectralInfo, pinv_weighted_sqnorm


@dataclass
class Trace:
    """A run's cost totals (batch-gradient evaluations, gossip rounds,
    bits), which only grow, and its log rows of the totals at an iteration."""

    grad_units: int = 0
    comm_rounds: int = 0
    bits: int = 0
    rows: list = field(default_factory=list)

    def add_grad(self, units: int):
        self.grad_units += units

    def add_round(self, bits: int):
        self.comm_rounds += 1
        self.bits += bits

    def log(self, it, dist_sq):
        if not math.isfinite(dist_sq):
            raise FloatingPointError(
                f"non-finite metric at iteration {it}: dist_sq={dist_sq}"
            )
        self.rows.append(
            (it, self.grad_units, self.comm_rounds, self.bits, float(dist_sq))
        )

    def to_csv(self) -> str:
        lines = ["iter,grad_units,comm_rounds,bits,dist_sq"]
        lines += ["%d,%d,%d,%d,%.17g" % row for row in self.rows]
        return "\n".join(lines) + "\n"


# the block signs at (2, 1, 1), against the stacked (2, m, d) arrays
_SIGNS = BLOCK_SIGNS[:, None, None]


@dataclass(frozen=True)
class SaddleAnchors:
    """Stationary values at the saddle point, each node-stacked at (2, m,
    d), block 0 for x and block 1 for y: the iterates Z* (every node at
    z*), the dual trackers D* and the references H*."""

    Z_star: np.ndarray
    D_star: np.ndarray
    H_star: np.ndarray


def compute_anchors(
    prob: SaddleProblem, z_star: np.ndarray, s: float
) -> SaddleAnchors:
    """Anchors of the stacked (2, d) saddle point z_star at step size s.

    H anchors depend on s, so anchors are recomputed whenever s changes
    (each restart stage).
    """
    m = prob.m
    G = prob.full_grads(z_star[:, None])
    # subtract the per-node mean: projection by I - J with J = 11^T / m
    D_star = _SIGNS * (G - G.mean(axis=1, keepdims=True))
    H = z_star + _SIGNS[..., 0] * ((s / m) * G.sum(axis=1))
    Z_star, H_star = (np.repeat(v[:, None], m, axis=1) for v in (z_star, H))
    return SaddleAnchors(Z_star=Z_star, D_star=D_star, H_star=H_star)


def _sqnorms(V: np.ndarray) -> np.ndarray:
    """(2,): the squared norm of each block of a stacked (2, ...) array."""
    return (V**2).reshape(2, -1).sum(axis=1)


def distance_to_saddle(ens, Z_star: np.ndarray) -> float:
    """Sum over nodes of the squared distance to the saddle point,
    node-stacked at (2, m, d) as Z_star; each block is summed on its own,
    then the two sums are added."""
    s = _sqnorms(ens.Z - Z_star)
    return float(s[0] + s[1])


def phi(ens, anchors: SaddleAnchors, params, spec: SpectralInfo) -> float:
    """Lyapunov diagnostic: iterate, dual-tracking and reference errors,
    each summed per block and weighted by the (x, y) pairs M and 2s^2 /
    gamma, and by sqrt(delta), with delta = params.delta.  The dual terms
    use the pseudoinverse metric of I-W."""
    s2 = params.s**2
    err = _sqnorms(ens.Z - anchors.Z_star)
    val = np.dot(params.M, err)
    val += np.dot(
        np.divide(2.0 * s2, params.gamma),
        pinv_weighted_sqnorm(spec, ens.D - anchors.D_star),
    )
    val += np.sqrt(params.delta) * np.sum(_sqnorms(ens.H - anchors.H_star))
    return float(val)


def phi_tilde(ens, anchors: SaddleAnchors, svrg_state, params, spec: SpectralInfo) -> float:
    """phi plus the reference-point error terms of the variance-reduced
    run, weighted by the (x, y) pair c_tilde."""
    err = _sqnorms(svrg_state.Z_tilde - anchors.Z_star)
    return phi(ens, anchors, params, spec) + float(np.dot(params.c_tilde, err))
