"""One synchronized step of inexact primal-dual hybrid gradient with
compressed gossip, the core shared by both solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compression import CommState, Compressor, comm_step
from .metrics import CostCounters
from .problem import RobustLRProblem
from .topology import DecGraph


@dataclass
class StepParams:
    """Per-step scalars; feasibility windows are checked at construction."""

    s: float
    gamma_x: float
    gamma_y: float
    alpha_x: float
    alpha_y: float
    delta: float = 0.0

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError(f"step size s = {self.s} must be positive")
        hi = 1.0 / (1.0 + self.delta)
        for name, a in (("alpha_x", self.alpha_x), ("alpha_y", self.alpha_y)):
            if not 0.0 < a < hi:
                raise ValueError(f"{name} = {a:.4g} outside (0, {hi:.4g})")
        if self.gamma_x <= 0 or self.gamma_y <= 0:
            raise ValueError("gamma_x, gamma_y must be positive")


@dataclass
class NodeEnsemble:
    """Stacked per-node iterates, dual trackers, and compression states."""

    x: np.ndarray  # (m, d_x)
    y: np.ndarray  # (m, d_y)
    Dx: np.ndarray
    Dy: np.ndarray
    comm_x: CommState
    comm_y: CommState

    @classmethod
    def initialize(cls, g: DecGraph, x0: np.ndarray, y0: np.ndarray) -> "NodeEnsemble":
        """Fresh ensemble: D = 0, references H at the starting iterates."""
        x0 = np.array(x0, dtype=float)
        y0 = np.array(y0, dtype=float)
        return cls(
            x=x0,
            y=y0,
            Dx=np.zeros_like(x0),
            Dy=np.zeros_like(y0),
            comm_x=CommState.from_reference(g, x0),
            comm_y=CommState.from_reference(g, y0),
        )


def ipdhg_step(
    ens: NodeEnsemble,
    params: StepParams,
    g: DecGraph,
    oracle,
    prob: RobustLRProblem,
    compressor: Compressor,
    rng: np.random.Generator,
    counters: CostCounters | None = None,
) -> NodeEnsemble:
    """Advance every node one iteration, as array operations over the whole
    (m, d) ensemble.

    oracle(X, Y, rng) -> (Gx, Gy, cost): stacked gradient blocks of every
    node at its rows of (X, Y), with cost the gradient units summed over
    nodes.  Both gradient blocks are evaluated at the old (x, y); the
    x-block then the y-block are updated.  One gossip round is recorded:
    the x and y payloads piggyback on a single exchange.  Raises
    FloatingPointError if a new iterate is not finite.
    """
    s = params.s
    Gx, Gy, cost = oracle(ens.x, ens.y, rng)

    nu_x = ens.x - s * Gx - s * ens.Dx
    nu_hat_x, nu_hat_w_x, comm_x = comm_step(
        nu_x, ens.comm_x, params.alpha_x, g, compressor, rng
    )
    diff_x = nu_hat_x - nu_hat_w_x
    Dx_new = ens.Dx + (params.gamma_x / (2.0 * s)) * diff_x
    x_new = prob.prox_primal(nu_x - (params.gamma_x / 2.0) * diff_x, s)

    nu_y = ens.y + s * Gy - s * ens.Dy
    nu_hat_y, nu_hat_w_y, comm_y = comm_step(
        nu_y, ens.comm_y, params.alpha_y, g, compressor, rng
    )
    diff_y = nu_hat_y - nu_hat_w_y
    Dy_new = ens.Dy + (params.gamma_y / (2.0 * s)) * diff_y
    y_new = prob.prox_dual(nu_y - (params.gamma_y / 2.0) * diff_y, s)

    if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(y_new))):
        raise FloatingPointError("non-finite iterate after an IPDHG step")
    if counters is not None:
        counters.add_grad(cost)
        payload_coords = g.m * (ens.x.shape[1] + ens.y.shape[1])
        counters.add_round(payload_coords, compressor.bits_per_coord)

    return NodeEnsemble(
        x=x_new, y=y_new, Dx=Dx_new, Dy=Dy_new, comm_x=comm_x, comm_y=comm_y
    )
