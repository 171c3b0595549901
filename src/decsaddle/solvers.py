"""Top-level algorithms: the restart-based stochastic-gradient method and
the variance-reduced method, two schedules over one solve driver, and the
reference-solution computation.

All parameter schedules follow the closed-form formulas in terms of the
problem constants (mu, L blocks), the compression factor delta, and the
spectrum of I - W; infeasible windows raise instead of clamping.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .compression import Compressor, InfeasibleParameterError
from .ipdhg import NodeEnsemble, StepParams, step_plan
from .metrics import CostCounters, Trace, distance_to_saddle
from .oracles import SvrgState, gsgo_draw, svrgo_draw, svrgo_update_reference
from .problem import RobustLRProblem, SaddleConstants, overflow_guard
from .topology import DecGraph, SpectralInfo


class _ScheduleParams:
    """What the two schedules' parameter sets share: the windows of their
    contraction factors, and the per-step scalars they hand to a step."""

    def _check_windows(self, b_open: bool, where: str = "") -> None:
        """Raise InfeasibleParameterError naming the first factor outside
        its window: b_x, b_y in (0, 1) if b_open, else (0, 1]; M_x, M_y,
        (1-b_x)/M_x, (1-b_y)/M_y in (0, 1].  The alpha window is checked
        by StepParams."""
        for name, v, is_open in (
            ("b_x", self.b_x, b_open),
            ("b_y", self.b_y, b_open),
            ("M_x", self.M_x, False),
            ("M_y", self.M_y, False),
            ("(1-b_x)/M_x", (1.0 - self.b_x) / self.M_x, False),
            ("(1-b_y)/M_y", (1.0 - self.b_y) / self.M_y, False),
        ):
            if not (0.0 < v < 1.0 if is_open else 0.0 < v <= 1.0):
                window = "(0, 1)" if is_open else "(0, 1]"
                raise InfeasibleParameterError(
                    f"{where}{name} = {v:.6g} outside {window}"
                )

    def step_params(self) -> StepParams:
        return StepParams(
            s=self.s,
            gamma_x=self.gamma_x,
            gamma_y=self.gamma_y,
            alpha_x=self.alpha_x,
            alpha_y=self.alpha_y,
            delta=self.delta,
        )


@dataclass(frozen=True)
class StageParams(_ScheduleParams):
    """Stage-k scalars of the restart method, validated at construction."""

    k: int
    s: float
    b_x: float
    b_y: float
    gamma_x: float
    gamma_y: float
    alpha_x: float
    alpha_y: float
    M_x: float
    M_y: float
    M: float
    t: int
    rho: float
    delta: float

    def __post_init__(self):
        self._check_windows(False, f"stage {self.k}: ")
        if self.t < 1:
            raise InfeasibleParameterError(f"stage {self.k}: t = {self.t} < 1")


def crdpsg_rho(
    consts: SaddleConstants, delta: float, spec: SpectralInfo | None
) -> float:
    """Restart rate: the guaranteed per-step progress at stage 0, halved
    geometrically across stages."""
    kf2 = consts.kappa_f**2
    kappa_g = spec.kappa_g if spec is not None else 1.0
    c = 1.0 - 1.0 / math.sqrt(2.0)
    return min(
        c / (8.0 * kf2),
        c / (16.0 * (1.0 + delta) ** 2 * kf2 * kappa_g),
        c / ((1.0 + delta) * 4.0 * kf2),
    )


def crdpsg_stage_params(
    k: int, consts: SaddleConstants, delta: float, spec: SpectralInfo | None
) -> StageParams:
    """Closed-form stage-k schedule of the restart method.

    spec = None marks the single-node degenerate case: the graph terms of
    the update vanish identically, so the gamma scale is immaterial and a
    unit eigenvalue placeholder is used.
    """
    if not 0.0 <= delta <= 1.0:
        raise InfeasibleParameterError(f"delta = {delta} outside [0, 1]")
    scale = 2.0 ** (k / 2.0)
    s0 = 1.0 / (4.0 * consts.L * consts.kappa_f)
    s = s0 / scale
    b_x = consts.mu_x * s - 4.0 * s**2 * consts.L_yx**2
    b_y = consts.mu_y * s - 4.0 * s**2 * consts.L_xy**2
    if b_x <= 0.0 or b_y <= 0.0:
        raise InfeasibleParameterError(
            f"stage {k}: b_x = {b_x:.4g}, b_y = {b_y:.4g}; the schedule "
            "degenerates when the cross-smoothness term dominates "
            "(e.g. kappa_f = 1 with L_yx = L); use kappa_f > 1 or a "
            "smaller initial step"
        )
    lam_max = spec.lambda_max if spec is not None else 1.0
    gamma_x = b_x / (2.0 * (1.0 + delta) ** 2 * lam_max)
    gamma_y = b_y / (2.0 * (1.0 + delta) ** 2 * lam_max)
    alpha_x = b_x / (1.0 + delta)
    alpha_y = b_y / (1.0 + delta)
    rd = math.sqrt(delta)
    M_x = 1.0 - rd * alpha_x / (1.0 - 0.5 * gamma_x * lam_max)
    M_y = 1.0 - rd * alpha_y / (1.0 - 0.5 * gamma_y * lam_max)
    M = min(M_x, M_y)
    rho = crdpsg_rho(consts, delta, spec)
    denom = -math.log1p(-rho / scale)
    t_real = (1.0 / denom) * max(
        math.log((3.0 * M_x + 6.0 * rd) / M),
        math.log((3.0 * M_y + 6.0 * rd) / M),
        math.log(3.0 / M),
    )
    t = max(int(math.ceil(t_real)), 1)
    return StageParams(
        k=k, s=s, b_x=b_x, b_y=b_y, gamma_x=gamma_x, gamma_y=gamma_y,
        alpha_x=alpha_x, alpha_y=alpha_y, M_x=M_x, M_y=M_y, M=M, t=t,
        rho=rho, delta=delta,
    )


def contraction_rate(params, spec: SpectralInfo, p: float | None = None) -> float:
    """Worst-case per-step decay factor of the Lyapunov diagnostic."""
    lam2 = spec.lambda_second_smallest
    terms = [
        (1.0 - params.b_x) / params.M_x,
        (1.0 - params.b_y) / params.M_y,
        1.0 - 0.5 * params.gamma_x * lam2,
        1.0 - 0.5 * params.gamma_y * lam2,
        1.0 - params.alpha_x,
        1.0 - params.alpha_y,
    ]
    if p is not None:
        terms.append(1.0 - p / 2.0)
    return max(terms)


@dataclass(frozen=True)
class SvrgParams(_ScheduleParams):
    """Scalars of the variance-reduced method, validated at construction."""

    s: float
    c_tilde_x: float
    c_tilde_y: float
    b_x: float
    b_y: float
    alpha_x: float
    alpha_y: float
    gamma_x: float
    gamma_y: float
    M_x: float
    M_y: float
    p: float
    p_min: float
    delta: float

    def __post_init__(self):
        self._check_windows(True)
        if not 0.0 < self.p <= 1.0:
            raise InfeasibleParameterError(f"p = {self.p} outside (0, 1]")


def cdpsvrg_params(
    consts: SaddleConstants,
    delta: float,
    spec: SpectralInfo | None,
    n: int,
    p_min: float,
    p: float,
) -> SvrgParams:
    """Closed-form parameter set of the variance-reduced method.

    spec = None marks the single-node degenerate case (see
    crdpsg_stage_params).
    """
    if not 0.0 <= delta <= 1.0:
        raise InfeasibleParameterError(f"delta = {delta} outside [0, 1]")
    if not 0.0 < p <= 1.0:
        raise InfeasibleParameterError(f"p = {p} outside (0, 1]")
    if p_min <= 0.0:
        raise InfeasibleParameterError(f"p_min = {p_min} must be positive")
    s = consts.mu * n * p_min / (24.0 * consts.L**2)
    npm = n * p_min
    c_tilde_x = 8.0 * s**2 * (consts.L_xx**2 + consts.L_yx**2) / (npm * p)
    c_tilde_y = 8.0 * s**2 * (consts.L_yy**2 + consts.L_xy**2) / (npm * p)
    b_x = s * consts.mu_x - 4.0 * s**2 * consts.L_yx**2 / npm - c_tilde_x * p
    b_y = s * consts.mu_y - 4.0 * s**2 * consts.L_xy**2 / npm - c_tilde_y * p
    lower = npm / (144.0 * consts.kappa_f**2)
    if b_x < lower - 1e-15 or b_y < lower - 1e-15:
        raise InfeasibleParameterError(
            f"b_x = {b_x:.6g} or b_y = {b_y:.6g} below the guaranteed "
            f"lower bound {lower:.6g}"
        )
    rd = math.sqrt(delta)
    lam_max = spec.lambda_max if spec is not None else 1.0
    cap = 1.0 / (4.0 * (1.0 + delta) * lam_max)
    if rd > 0.0:
        gamma_x = min(b_x / (4.0 * rd * (1.0 + delta) * lam_max), cap)
        gamma_y = min(b_y / (4.0 * rd * (1.0 + delta) * lam_max), cap)
    else:
        gamma_x = gamma_y = cap
    alpha_x = b_x / (1.0 + delta)
    alpha_y = b_y / (1.0 + delta)
    M_x = 1.0 - rd * alpha_x / (1.0 - 0.5 * gamma_x * lam_max)
    M_y = 1.0 - rd * alpha_y / (1.0 - 0.5 * gamma_y * lam_max)
    return SvrgParams(
        s=s, c_tilde_x=c_tilde_x, c_tilde_y=c_tilde_y, b_x=b_x, b_y=b_y,
        alpha_x=alpha_x, alpha_y=alpha_y, gamma_x=gamma_x, gamma_y=gamma_y,
        M_x=M_x, M_y=M_y, p=p, p_min=p_min, delta=delta,
    )


def _rng_for(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _solve(prob, g, compressor, z0, z_star, rng, log_stride, segments):
    """The solve loop of both schedules.  segments(Z, counters) gets the
    stacked (2, m, d) start, every node at the (2, d) point z0, and yields
    (ens, params, draw, steps, after) per segment: its ensemble, parameter
    set, bound draw, step count, and None or a hook run after every step.
    It resumes once the segment has run.  The iteration count runs across
    segments, and a trace row, its distance to the (2, d) saddle point
    z_star, is logged at every multiple of log_stride.  Returns (trace,
    ens)."""
    Z = np.tile(np.asarray(z0, dtype=float)[:, None], (1, g.m, 1))
    trace = Trace()
    counters = CostCounters()
    ens = None
    it = 0
    with overflow_guard():
        for ens, params, draw, steps, after in segments(Z, counters):
            step = step_plan(
                ens, params.step_params(), g, draw, prob, compressor, rng, counters
            )
            for _ in range(steps):
                step()
                if after is not None:
                    after()
                it += 1
                if it % log_stride == 0:
                    trace.log(it, counters, distance_to_saddle(ens, z_star))
    return trace, ens


def run_crdpsg(
    prob: RobustLRProblem,
    g: DecGraph,
    spec: SpectralInfo | None,
    compressor: Compressor,
    K: int,
    z0: np.ndarray,
    z_star: np.ndarray,
    seed: int,
    log_stride: int = 1,
):
    """Restart-based stochastic-gradient run from the stacked (2, d) start
    z0, logged against the (2, d) saddle point z_star: the restart schedule
    over the shared solve loop, one segment per stage.  Every stage
    rebuilds its schedule, zeroes the dual trackers, resets the
    compression references to the current iterates (one uncompressed
    broadcast round), and runs t_k inner steps with minibatch gradients.
    Returns (trace, ensemble).
    """
    rng = _rng_for(seed, 0x5501)

    def stages(Z, counters):
        for k in range(K):
            params = crdpsg_stage_params(k, prob.constants, compressor.delta, spec)
            ens = NodeEnsemble.initialize(g, Z)
            # restart broadcast of the fresh references, sent uncompressed
            counters.add_round(ens.Z.size, 32)
            yield ens, params, gsgo_draw(prob, ens.Z, rng), params.t, None
            Z = ens.Z

    return _solve(prob, g, compressor, z0, z_star, rng, log_stride, stages)


def run_cdpsvrg(
    prob: RobustLRProblem,
    g: DecGraph,
    spec: SpectralInfo | None,
    compressor: Compressor,
    T: int,
    z0: np.ndarray,
    z_star: np.ndarray,
    seed: int,
    p: float | None = None,
    log_stride: int = 1,
):
    """Variance-reduced run from the stacked (2, d) start z0, logged
    against the (2, d) saddle point z_star: one segment of T steps with one
    parameter set over the shared solve loop; after every step a
    Bernoulli(p) coin may refresh the reference points.  Returns (trace,
    ensemble)."""
    rng = _rng_for(seed, 0x5502)
    if p is None:
        p = 1.0 / prob.n
    params = cdpsvrg_params(
        prob.constants, compressor.delta, spec, prob.n, p_min=1.0 / prob.n, p=p
    )

    def segment(Z, counters):
        ens = NodeEnsemble.initialize(g, Z)
        state = SvrgState.initialize(prob, Z, p=p)
        counters.add_grad(prob.m * prob.n)  # initial reference gradients

        def refresh():
            _, cost = svrgo_update_reference(state, prob, ens.Z, rng)
            counters.add_grad(cost)

        yield ens, params, svrgo_draw(prob, ens.Z, state, rng), T, refresh

    return _solve(prob, g, compressor, z0, z_star, rng, log_stride, segment)


def compute_reference(
    prob: RobustLRProblem,
    iterations: int = 50_000,
    tol: float = 1e-14,
):
    """Deterministic projected extragradient solve for the saddle point,
    with a backtracking step.

    The problem must be built with m = 1 (the saddle point of the global
    objective does not depend on the partition).  The full-gradient
    operator F is strongly monotone and, by the block bounds, 2L-Lipschitz
    over the balls, but near the saddle point its Lipschitz constant is
    far smaller, so the step adapts (Khobotov's rule): it starts at
    1/(4L), doubles after every accepted step, and a predictor W from Z is
    accepted when h ||F(W) - F(Z)|| <= 0.9 ||W - Z||, else h is halved.
    h never drops below 1/(4L), where the test always holds, so the worst
    case is the fixed-step method.  `iterations` caps the accepted steps.
    After every step the run stops once the squared prox fixed-point
    residual at the variance-reduced schedule's step mu/(24 L^2) is at
    most tol; the check reuses F at the new iterate, which the next
    predictor needs anyway.  Draws no random numbers.  Returns (z,
    residual), z the stacked (2, d) saddle point [x, y].
    """
    if prob.m != 1:
        raise ValueError("reference computation expects an m = 1 problem")
    consts = prob.constants
    h_min = 1.0 / (4.0 * consts.L)
    s = consts.mu / (24.0 * consts.L**2)

    # the single node's iterate as a one-row stacked point (2, 1, d)
    Z = np.zeros((2, 1, prob.d))
    h = h_min
    with overflow_guard():
        G = prob.full_grads(Z)
        residual = prob.prox_residual(Z, G, s)
        for _ in range(iterations):
            if residual <= tol:
                break
            while True:
                W = prob.prox_step(Z, G, h)
                GW = prob.full_grads(W)
                dG, dZ = GW - G, W - Z
                if h <= h_min or h * h * np.vdot(dG, dG) <= 0.81 * np.vdot(dZ, dZ):
                    break
                h = 0.5 * h  # h is 1/(4L) times a power of two
            Z = prob.prox_step(Z, GW, h)
            G = prob.full_grads(Z)
            residual = prob.prox_residual(Z, G, s)
            h = 2.0 * h
    if residual > 1e-7:
        warnings.warn(
            f"reference residual {residual:.3e} still above 1e-7 after "
            f"{iterations} iterations",
            stacklevel=2,
        )
    return Z[:, 0], residual
