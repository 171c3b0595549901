"""One synchronized step of inexact primal-dual hybrid gradient with
compressed gossip, the core shared by both solvers.

The ensemble state is stacked primal-dual: every array has shape
(2, m, d), block 0 holding the primal rows x and block 1 the dual rows y,
so one step quantizes, gossips and projects both halves in one call each.
A step advances the ensemble in place, in work arrays the ensemble
allocates once.
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
    which also builds the per-block factors of the stacked step."""

    s: float
    gamma_x: float
    gamma_y: float
    alpha_x: float
    alpha_y: float
    delta: float = 0.0
    signed_s: np.ndarray = _derived()  # (2, 1, 1): -s (descent), +s (ascent)
    # (2, 2, 1, 1): gamma / (2 s) for D, -gamma / 2 for the pre-projection point
    pair: np.ndarray = _derived()
    alpha: np.ndarray = _derived()  # (2, 1, 1)
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
        s, gx, gy = self.s, self.gamma_x, self.gamma_y
        self.signed_s = _blocks(-s, s)
        self.pair = np.array(
            [_blocks(gx / (2.0 * s), gy / (2.0 * s)), _blocks(-gx / 2.0, -gy / 2.0)]
        )
        self.alpha = _blocks(self.alpha_x, self.alpha_y)
        self.keep = 1.0 - self.alpha


@dataclass
class NodeEnsemble:
    """Stacked per-node iterates Z, dual trackers D and compression state,
    each (2, m, d) with the x rows in block 0 and the y rows in block 1
    (the compression state as its [H, Hw] pair, (2, 2, m, d)).

    The ensemble owns its arrays (construction copies them) and ipdhg_step
    overwrites them in place.  D is the first slot of the (2, 2, m, d) pair
    [D, nu] whose second slot holds a step's pre-projection point, so both
    advance in one product; the [nu_hat, nu_hat_w] pair and the difference
    are the step's other work arrays, allocated here once.
    """

    Z: np.ndarray
    D: np.ndarray
    comm: CommState
    D_nu: np.ndarray = _derived()
    nu_pair: np.ndarray = _derived()
    diff: np.ndarray = _derived()
    bound: StepParams | None = _derived()  # whose factors are held
    factors: tuple = _derived()

    def __post_init__(self):
        self.Z = np.array(self.Z, dtype=float)
        self.D_nu = np.empty((2,) + self.Z.shape)
        self.D_nu[0] = self.D
        self.D = self.D_nu[0]
        self.comm = CommState(HH=np.array(self.comm.HH, dtype=float))
        self.nu_pair = np.empty_like(self.comm.HH)
        self.diff = np.empty_like(self.Z)
        self.bound = None

    def step_factors(self, params: StepParams) -> tuple:
        """(signed_s, alpha, keep) of params at the shapes they multiply, Z's
        and the [H, Hw] pair's, built on the first step with params: a
        product of same-shape arrays skips NumPy's broadcasting set-up and
        gives the same bits."""
        if self.bound is not params:
            Zs, HHs = self.Z.shape, self.comm.HH.shape
            self.factors = (
                np.broadcast_to(params.signed_s, Zs).copy(),
                np.broadcast_to(params.alpha, HHs).copy(),
                np.broadcast_to(params.keep, HHs).copy(),
            )
            self.bound = params
        return self.factors

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
    """Advance every node one iteration, in place, as array operations over
    the whole (2, m, d) ensemble; returns ens itself.

    oracle(X, Y, rng) -> (G, cost): the (2, m, d) stacked gradient blocks
    of every node at its rows of (X, Y), with cost the gradient units
    summed over nodes.  Both blocks are evaluated at the old (x, y) and
    updated together: the x rows descend, the y rows ascend.  The x and y
    payloads travel in one gossip round, quantized x rows first.  Raises
    InfeasibleParameterError if params were validated for a smaller
    compression factor than the compressor's (their alpha window would not
    hold), and FloatingPointError (from the projection) if a new iterate
    is not finite; the ensemble is then partly advanced.  The gradient
    kernel's exp may overflow harmlessly; callers enter
    problem.overflow_guard() around their steps, as the solvers do once
    per solve.
    """
    if params.delta < compressor.delta:
        raise InfeasibleParameterError(
            f"step parameters validated for delta = {params.delta:.4g}, "
            f"compressor has delta = {compressor.delta:.4g}"
        )
    Z, D_nu, diff = ens.Z, ens.D_nu, ens.diff
    nu = D_nu[1]
    signed_s, alpha, keep = ens.step_factors(params)
    G, cost = oracle(Z[0], Z[1], rng)
    # nu = Z + signed_s G - s D
    np.multiply(signed_s, G, out=nu)
    np.add(Z, nu, out=nu)
    np.subtract(nu, np.multiply(params.s, D_nu[0], out=diff), out=nu)
    nu_hat, nu_hat_w, _ = comm_step(
        nu, ens.comm, alpha, keep, g, compressor, rng, out=ens.nu_pair
    )
    np.subtract(nu_hat, nu_hat_w, out=diff)
    # D + gamma/(2s) diff and nu - gamma/2 diff in one product (the pair
    # is free again); x - y z equals x + (-y) z to the bit
    np.add(D_nu, np.multiply(params.pair, diff, out=ens.nu_pair), out=D_nu)
    prob.prox(nu, params.s, out=Z)
    if counters is not None:
        counters.add_grad(cost)
        counters.add_round(Z.size, compressor.bits_per_coord)
    return ens
