"""Cost accounting, the benchmark distance, and the Lyapunov diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problem import PrimalDualPoint, RobustLRProblem
from .topology import SpectralInfo, pinv_weighted_sqnorm


@dataclass
class CostCounters:
    """Cumulative batch-gradient evaluations, gossip rounds, and bits."""

    grad_units: int = 0
    comm_rounds: int = 0
    bits: int = 0

    def add_grad(self, units: int):
        self.grad_units += units

    def add_round(self, payload_coords: int, bits_per_coord: int):
        self.comm_rounds += 1
        self.bits += payload_coords * bits_per_coord


@dataclass
class Trace:
    """Per-iteration log rows; cumulative counters are nondecreasing."""

    rows: list = field(default_factory=list)

    def log(self, it, counters: CostCounters, dist_sq):
        if not np.isfinite(dist_sq):
            raise FloatingPointError(
                f"non-finite metric at iteration {it}: dist_sq={dist_sq}"
            )
        self.rows.append(
            (it, counters.grad_units, counters.comm_rounds, counters.bits, float(dist_sq))
        )

    def to_csv(self) -> str:
        lines = ["iter,grad_units,comm_rounds,bits,dist_sq"]
        lines += ["%d,%d,%d,%d,%.17g" % row for row in self.rows]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SaddleAnchors:
    """Stationary values of the tracked quantities at the saddle point.

    H anchors depend on the step size s, so anchors are recomputed whenever
    s changes (each restart stage).
    """

    z_star: PrimalDualPoint
    D_star_x: np.ndarray
    D_star_y: np.ndarray
    H_star_x: np.ndarray
    H_star_y: np.ndarray
    s: float


def compute_anchors(prob: RobustLRProblem, z_star: PrimalDualPoint, s: float) -> SaddleAnchors:
    m = prob.m
    Gx, Gy = prob.full_grads(np.tile(z_star.x, (m, 1)), np.tile(z_star.y, (m, 1)))
    # subtract the per-node mean: projection by I - J with J = 11^T / m
    D_star_x = -(Gx - Gx.mean(axis=0))
    D_star_y = Gy - Gy.mean(axis=0)
    sum_gx = Gx.sum(axis=0)
    sum_gy = Gy.sum(axis=0)
    H_star_x = np.tile(z_star.x - (s / m) * sum_gx, (m, 1))
    H_star_y = np.tile(z_star.y + (s / m) * sum_gy, (m, 1))
    return SaddleAnchors(
        z_star=z_star,
        D_star_x=D_star_x,
        D_star_y=D_star_y,
        H_star_x=H_star_x,
        H_star_y=H_star_y,
        s=s,
    )


def distance_to_saddle(ens, z_star: np.ndarray) -> float:
    """Sum over nodes of the squared distance to the saddle point, given
    stacked as z_star = PrimalDualPoint.stacked(); each block is summed
    on its own, then the two sums are added."""
    sq = (ens.Z - z_star) ** 2
    s = sq.reshape(2, -1).sum(axis=1)
    return float(s[0] + s[1])


def phi(ens, anchors: SaddleAnchors, params, delta: float, spec: SpectralInfo) -> float:
    """Lyapunov diagnostic: weighted iterate, dual-tracking, and reference
    errors.  The dual terms use the pseudoinverse metric of I-W."""
    val = params.M_x * float(np.sum((ens.x - anchors.z_star.x) ** 2))
    val += params.M_y * float(np.sum((ens.y - anchors.z_star.y) ** 2))
    s2 = params.s**2
    val += (2.0 * s2 / params.gamma_x) * pinv_weighted_sqnorm(
        spec, ens.Dx - anchors.D_star_x
    )
    val += (2.0 * s2 / params.gamma_y) * pinv_weighted_sqnorm(
        spec, ens.Dy - anchors.D_star_y
    )
    rd = np.sqrt(delta)
    if rd > 0.0:
        val += rd * float(np.sum((ens.comm_x.H - anchors.H_star_x) ** 2))
        val += rd * float(np.sum((ens.comm_y.H - anchors.H_star_y) ** 2))
    return val


def phi_tilde(ens, anchors: SaddleAnchors, svrg_state, params, spec: SpectralInfo) -> float:
    """phi plus the reference-point error terms of the variance-reduced run."""
    val = phi(ens, anchors, params, params.delta, spec)
    xt, yt = svrg_state.x_tilde, svrg_state.y_tilde
    val += params.c_tilde_x * float(np.sum((xt - anchors.z_star.x) ** 2))
    val += params.c_tilde_y * float(np.sum((yt - anchors.z_star.y) ** 2))
    return val
