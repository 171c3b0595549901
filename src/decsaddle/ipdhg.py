"""One synchronized step of inexact primal-dual hybrid gradient with
compressed gossip, the core shared by both solvers.

The ensemble state is stacked primal-dual: every array has shape
(2, m, d), block 0 holding the primal rows x and block 1 the dual rows y,
so one step quantizes, gossips and projects both halves in one call each.

A step is bound once per solve as a plan (step_plan): the ensemble's
arrays, the step factors, the graph's W, the oracle draw, the
compressor, the RNG and the counters are checked and bound when the plan
is built, and each step then runs as one flat sequence of NumPy calls
into arrays allocated once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compression import CommState, Compressor, InfeasibleParameterError, bind_exchange
from .metrics import CostCounters
from .problem import RobustLRProblem
from .topology import DecGraph


def _factor(shape: tuple, *blocks) -> np.ndarray:
    """A new array of the given shape holding the per-block factors: the
    nested (x, y) pairs blocks, each broadcast over the trailing (m, d)
    axes."""
    out = np.empty(shape)
    np.copyto(out, np.reshape(blocks, np.shape(blocks) + (1, 1)))
    return out


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
                raise InfeasibleParameterError(
                    f"{name} = {a:.4g} outside (0, 1/(1+delta)) with "
                    f"delta = {self.delta:.4g}"
                )
        if self.gamma_x <= 0 or self.gamma_y <= 0:
            raise ValueError("gamma_x, gamma_y must be positive")


@dataclass
class NodeEnsemble:
    """Stacked per-node iterates Z, dual trackers D and compression state,
    each (2, m, d) with the x rows in block 0 and the y rows in block 1
    (the compression state as its [H, Hw] pair, (2, 2, m, d)).

    The ensemble owns its arrays (construction copies them) and a step
    overwrites them in place.  D is the first slot of the (2, 2, m, d) pair
    [D, nu] whose second slot holds a step's pre-projection point, so both
    advance in one product.
    """

    Z: np.ndarray
    D: np.ndarray
    comm: CommState
    D_nu: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.Z = np.array(self.Z, dtype=float)
        self.D_nu = np.empty((2,) + self.Z.shape)
        self.D_nu[0] = self.D
        self.D = self.D_nu[0]
        self.comm = CommState(HH=np.array(self.comm.HH, dtype=float))

    @classmethod
    def initialize(cls, g: DecGraph, Z0: np.ndarray) -> "NodeEnsemble":
        """Fresh ensemble at the stacked (2, m, d) start Z0 (construction
        copies it): D = 0, references H at the starting iterates."""
        Z = np.asarray(Z0, dtype=float)
        return cls(Z=Z, D=np.zeros_like(Z), comm=CommState.from_reference(g, Z))


def step_plan(
    ens: NodeEnsemble,
    params: StepParams,
    g: DecGraph,
    draw,
    prob: RobustLRProblem,
    compressor: Compressor,
    rng: np.random.Generator,
    counters: CostCounters | None = None,
):
    """Bind one IPDHG step of ens; returns step(), which advances every
    node one iteration, in place.

    draw() -> (G, cost): the (2, m, d) stacked gradient blocks of every
    node at the ensemble's current rows, with cost the gradient units
    summed over nodes (oracles.gsgo_draw and svrgo_draw bound to ens.Z,
    or any closure).  Both blocks are evaluated at the old (x, y) and
    updated together: the x rows descend, the y rows ascend.  The x and y
    payloads travel in one gossip round, quantized x rows first.  Raises
    InfeasibleParameterError if params were validated for a smaller
    compression factor than the compressor's (their alpha window would not
    hold) and ValueError if the ensemble's shape does not match the graph
    and problem; these are checked here, once.  A step raises
    FloatingPointError (from the projection) if a new iterate is not
    finite; the ensemble is then partly advanced.  The gradient kernel's
    exp may overflow harmlessly; callers enter problem.overflow_guard()
    around their steps, as the solvers do once per solve.
    """
    if params.delta < compressor.delta:
        raise InfeasibleParameterError(
            f"step parameters validated for delta = {params.delta:.4g}, "
            f"compressor has delta = {compressor.delta:.4g}"
        )
    Z, D_nu, HH = ens.Z, ens.D_nu, ens.comm.HH
    shape = (2, prob.m, prob.d)
    if g.m != prob.m or Z.shape != shape or HH.shape != (2,) + shape:
        raise ValueError(
            f"ensemble of shape {Z.shape} with references {HH.shape} on "
            f"{g.m} nodes does not match the problem's {prob.m} nodes of "
            f"dimension {prob.d}"
        )
    D, nu = D_nu[0], D_nu[1]
    NN = np.empty_like(HH)  # [nu_hat, nu_hat_w], scaled by alpha in place
    diff = np.empty(shape)
    # the factors at the shapes they multiply: a product of same-shape
    # arrays skips NumPy's broadcasting set-up and gives the same bits
    s, gx, gy = params.s, params.gamma_x, params.gamma_y
    ax, ay = params.alpha_x, params.alpha_y
    signed_s = _factor(shape, -s, s)  # x descends, y ascends
    alpha = _factor(HH.shape, ax, ay)
    keep = _factor(HH.shape, 1.0 - ax, 1.0 - ay)
    # gamma / (2 s) for D, -gamma / 2 for the pre-projection point
    pair = _factor(D_nu.shape, (gx / (2.0 * s), gy / (2.0 * s)), (-gx / 2.0, -gy / 2.0))
    s = _factor(shape, s, s)
    exchange = bind_exchange(ens.comm, alpha, keep, g, compressor, rng, NN, diff, NN)
    prox = prob.bind_prox(shape)
    if counters is None:
        counters = CostCounters()
    add_grad, add_round = counters.add_grad, counters.add_round
    payload, bits_per_coord = Z.size, compressor.bits_per_coord

    # the step's NumPy calls take their out arrays positionally, which
    # costs less per call than the keyword
    def step():
        G, cost = draw()
        # nu = Z + signed_s G - s D
        np.multiply(signed_s, G, nu)
        np.add(Z, nu, nu)
        np.subtract(nu, np.multiply(s, D, diff), nu)
        exchange(nu)  # diff = nu_hat - nu_hat_w
        # D + gamma/(2s) diff and nu - gamma/2 diff in one product; x - y z
        # equals x + (-y) z to the bit
        np.add(D_nu, np.multiply(pair, diff, NN), D_nu)
        prox(nu, Z)
        add_grad(cost)
        add_round(payload, bits_per_coord)

    return step
