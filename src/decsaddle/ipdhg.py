"""One synchronized step of inexact primal-dual hybrid gradient with
compressed gossip, the core shared by both solvers.

The ensemble state is stacked primal-dual: every array has shape
(2, m, d), block 0 holding the primal rows x and block 1 the dual rows y,
so one step quantizes, gossips and projects both halves in one call each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compression import CommState, Compressor, InfeasibleParameterError, comm_step
from .metrics import CostCounters
from .problem import RobustLRProblem
from .topology import DecGraph


def _blocks(a: float, b: float) -> np.ndarray:
    """(2, 1, 1) per-block factor: a for the x rows, b for the y rows."""
    return np.array([a, b], dtype=float)[:, None, None]


def _derived():
    return field(init=False, repr=False, compare=False)


@dataclass
class StepParams:
    """Per-step scalars; feasibility windows are checked at construction,
    which also builds the (2, 1, 1) per-block factors of the stacked step."""

    s: float
    gamma_x: float
    gamma_y: float
    alpha_x: float
    alpha_y: float
    delta: float = 0.0
    signed_s: np.ndarray = _derived()  # -s (descent), +s (ascent)
    gamma_2s: np.ndarray = _derived()  # gamma / (2 s)
    half_gamma: np.ndarray = _derived()  # gamma / 2
    alpha: np.ndarray = _derived()
    keep: np.ndarray = _derived()  # 1 - alpha

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError(f"step size s = {self.s} must be positive")
        hi = 1.0 / (1.0 + self.delta)
        for name, a in (("alpha_x", self.alpha_x), ("alpha_y", self.alpha_y)):
            if not 0.0 < a < hi:
                raise InfeasibleParameterError(
                    f"{name} = {a:.4g} outside (0, 1/(1+delta)) with "
                    f"delta = {self.delta:.4g}"
                )
        if self.gamma_x <= 0 or self.gamma_y <= 0:
            raise ValueError("gamma_x, gamma_y must be positive")
        s = self.s
        self.signed_s = _blocks(-s, s)
        self.gamma_2s = _blocks(self.gamma_x / (2.0 * s), self.gamma_y / (2.0 * s))
        self.half_gamma = _blocks(self.gamma_x / 2.0, self.gamma_y / 2.0)
        self.alpha = _blocks(self.alpha_x, self.alpha_y)
        self.keep = 1.0 - self.alpha


@dataclass
class NodeEnsemble:
    """Stacked per-node iterates Z, dual trackers D and compression state,
    each (2, m, d) with the x rows in block 0 and the y rows in block 1
    (the compression state as its [H, Hw] pair, (2, 2, m, d))."""

    Z: np.ndarray
    D: np.ndarray
    comm: CommState

    @property
    def x(self) -> np.ndarray:
        return self.Z[0]

    @property
    def y(self) -> np.ndarray:
        return self.Z[1]

    @property
    def Dx(self) -> np.ndarray:
        return self.D[0]

    @property
    def Dy(self) -> np.ndarray:
        return self.D[1]

    @property
    def comm_x(self) -> CommState:
        return CommState(HH=self.comm.HH[:, 0])

    @property
    def comm_y(self) -> CommState:
        return CommState(HH=self.comm.HH[:, 1])

    @classmethod
    def initialize(cls, g: DecGraph, x0: np.ndarray, y0: np.ndarray) -> "NodeEnsemble":
        """Fresh ensemble: D = 0, references H at the starting iterates."""
        Z = np.array([x0, y0], dtype=float)
        return cls(Z=Z, D=np.zeros_like(Z), comm=CommState.from_reference(g, Z))


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
    (2, m, d) ensemble.

    oracle(X, Y, rng) -> (G, cost): the (2, m, d) stacked gradient blocks
    of every node at its rows of (X, Y), with cost the gradient units
    summed over nodes.  Both blocks are evaluated at the old (x, y) and
    updated together: the x rows descend, the y rows ascend.  The x and y
    payloads travel in one gossip round, quantized x rows first.  Raises
    InfeasibleParameterError if params were validated for a smaller
    compression factor than the compressor's (their alpha window would not
    hold), and FloatingPointError if a new iterate is not finite.  The
    gradient kernel's exp may overflow harmlessly; callers enter
    problem.overflow_guard() around their steps, as the solvers do once
    per solve.
    """
    if params.delta < compressor.delta:
        raise InfeasibleParameterError(
            f"step parameters validated for delta = {params.delta:.4g}, "
            f"compressor has delta = {compressor.delta:.4g}"
        )
    Z = ens.Z
    G, cost = oracle(Z[0], Z[1], rng)
    nu = Z + params.signed_s * G - params.s * ens.D
    nu_hat, nu_hat_w, comm = comm_step(
        nu, ens.comm, params.alpha, params.keep, g, compressor, rng
    )
    diff = nu_hat - nu_hat_w
    D_new = ens.D + params.gamma_2s * diff
    Z_new = prob.prox(nu - params.half_gamma * diff, params.s)
    if not np.isfinite(Z_new).all():
        raise FloatingPointError("non-finite iterate after an IPDHG step")
    if counters is not None:
        counters.add_grad(cost)
        counters.add_round(Z.size, compressor.bits_per_coord)
    return NodeEnsemble(Z=Z_new, D=D_new, comm=comm)
