"""One synchronized step of inexact primal-dual hybrid gradient with
compressed gossip, the core shared by both solvers.

The ensemble state is stacked primal-dual: every array has shape
(2, m, d), block 0 holding the primal rows x and block 1 the dual rows y,
so one step quantizes, gossips and projects both halves in one call each.

A step is bound once per solve as a plan (step_plan): the ensemble's
arrays, the step factors of a parameter record (checked by check_windows
when the record was built), the graph's gossip product, the oracle draw,
the compressor, the RNG and the counters are checked and bound when the
plan is built, and each step then runs as one flat sequence of NumPy
calls into arrays allocated once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compression import Compressor, InfeasibleParameterError, bind_exchange
from .metrics import CostCounters
from .problem import BLOCK_SIGNS, RobustLRProblem
from .topology import DecGraph, mix


def _factor(shape: tuple, *blocks) -> np.ndarray:
    """A new array of the given shape holding the per-block factors: the
    nested (x, y) pairs blocks, each broadcast over the trailing (m, d)
    axes."""
    out = np.empty(shape)
    np.copyto(out, np.reshape(blocks, np.shape(blocks) + (1, 1)))
    return out


def hold_pairs(record, *names: str) -> None:
    """Store each named (x, y) pair field of a frozen record as a
    read-only (2,) float copy, so the record cannot change after its check
    and the caller's own array stays writable."""
    for name in names:
        pair = np.array(getattr(record, name), dtype=float)
        pair.flags.writeable = False
        object.__setattr__(record, name, pair)


def check_windows(params, where: str = "", b_open: bool | None = None) -> None:
    """The one window check of a step's parameter record, run when the
    record is built; raises on the first factor outside its window, named
    after the prefix where and the block, x or y.  With b_open not None (a
    schedule's record): b in (0, 1) if b_open, else (0, 1]; M and (1-b)/M
    in (0, 1] (InfeasibleParameterError).  Then s > 0 (ValueError), alpha
    in (0, 1/(1+delta)) (InfeasibleParameterError) and gamma > 0
    (ValueError), each of b, M, alpha and gamma an (x, y) pair."""
    if b_open is not None:
        for name, pair, is_open in (
            ("b_{0}", params.b, b_open),
            ("M_{0}", params.M, False),
            ("(1-b_{0})/M_{0}", (1.0 - params.b) / params.M, False),
        ):
            for block, v in zip("xy", pair):
                if not (0.0 < v < 1.0 if is_open else 0.0 < v <= 1.0):
                    window = "(0, 1)" if is_open else "(0, 1]"
                    raise InfeasibleParameterError(
                        f"{where}{name.format(block)} = {v:.6g} outside {window}"
                    )
    if params.s <= 0:
        raise ValueError(f"{where}step size s = {params.s} must be positive")
    hi = 1.0 / (1.0 + params.delta)
    for block, a in zip("xy", params.alpha):
        if not 0.0 < a < hi:
            raise InfeasibleParameterError(
                f"{where}alpha_{block} = {a:.4g} outside (0, 1/(1+delta)) with "
                f"delta = {params.delta:.4g}"
            )
    if (params.gamma <= 0).any():
        raise ValueError(f"{where}gamma_x, gamma_y must be positive")


@dataclass(frozen=True)
class StepParams:
    """Per-step scalars of a hand-built step, gamma and alpha (x, y)
    pairs, held as read-only (2,) arrays; the schedules' records
    (solvers.StageParams, SvrgParams) carry the same fields."""

    s: float
    gamma: np.ndarray
    alpha: np.ndarray
    delta: float = 0.0

    def __post_init__(self):
        hold_pairs(self, "gamma", "alpha")
        check_windows(self)


@dataclass
class NodeEnsemble:
    """The stacked state of every node: the iterates Z (2, m, d), the pair
    D_nu = [D, nu] (2, 2, m, d) of the dual trackers D and a step's
    pre-projection point nu, and the reference pair HH = [H, Hw] (2, 2, m,
    d) of the compressed gossip, with Hw = W H.  The x rows are block 0 of
    Z, D, nu, H and Hw, the y rows block 1.

    D, H and Hw are views into D_nu and HH, so D and nu advance in one
    product and [H, Hw] in one exchange.  A step overwrites the arrays in
    place.
    """

    Z: np.ndarray
    D_nu: np.ndarray
    HH: np.ndarray

    D = property(lambda self: self.D_nu[0])
    H = property(lambda self: self.HH[0])
    Hw = property(lambda self: self.HH[1])

    @classmethod
    def initialize(
        cls,
        g: DecGraph,
        Z0: np.ndarray,
        D: np.ndarray | None = None,
        H: np.ndarray | None = None,
    ) -> "NodeEnsemble":
        """Ensemble at the stacked (2, m, d) start Z0, with dual trackers D
        (zero if None) and references H (Z0 if None), and Hw = W H; the
        ensemble holds copies of its inputs."""
        Z = np.array(Z0, dtype=float)
        D_nu = np.zeros((2,) + Z.shape)
        if D is not None:
            D_nu[0] = D
        H = Z if H is None else np.asarray(H, dtype=float)
        return cls(Z=Z, D_nu=D_nu, HH=np.array([H, mix(g, H)]))


def step_plan(
    ens: NodeEnsemble,
    params,
    g: DecGraph,
    draw,
    prob: RobustLRProblem,
    compressor: Compressor,
    rng: np.random.Generator,
    counters: CostCounters | None = None,
):
    """Bind one IPDHG step of ens under params, a StepParams or a
    schedule's record (solvers.StageParams, SvrgParams), whose windows were
    checked when it was built; returns step(), which advances every node
    one iteration, in place.

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
    Z, D_nu, HH = ens.Z, ens.D_nu, ens.HH
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
    s, gamma = params.s, params.gamma
    signed_s = _factor(shape, *(s * BLOCK_SIGNS))
    alpha = _factor(HH.shape, *params.alpha)
    # gamma / (2 s) for D, -gamma / 2 for the pre-projection point
    pair = _factor(D_nu.shape, gamma / (2.0 * s), -gamma / 2.0)
    s = _factor(shape, s, s)
    exchange = bind_exchange(HH, alpha, g, compressor, rng, NN, diff)
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
