"""Top-level algorithms: the restart-based stochastic-gradient method and
the variance-reduced method, two schedules over one solve driver, and the
reference-solution computation.

All parameter schedules follow the closed-form formulas in terms of the
problem constants (mu, L blocks), the compression factor delta, and the
spectrum of I - W; infeasible windows raise instead of clamping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .compression import Compressor, Identity, InfeasibleParameterError
from .data import rng_for
from .ipdhg import NodeEnsemble, check_windows, hold_pairs, step_plan
from .metrics import Trace, distance_to_saddle
from .oracles import SvrgState, gsgo_draw, svrgo_draw, svrgo_update_reference
from .problem import SaddleConstants, SaddleProblem, overflow_guard
from .topology import DecGraph, SpectralInfo


@dataclass(frozen=True)
class StageParams:
    """Stage-k scalars of the restart method, the step parameters of the
    stage's steps, checked at construction (ipdhg.check_windows, b in
    (0, 1]).  b, gamma, alpha and M are (x, y) pairs, read-only (2,)
    arrays in the order of the stacked state."""

    k: int
    s: float
    b: np.ndarray
    gamma: np.ndarray
    alpha: np.ndarray
    M: np.ndarray
    t: int
    rho: float
    delta: float

    def __post_init__(self):
        hold_pairs(self, "b", "gamma", "alpha", "M")
        check_windows(self, f"stage {self.k}: ", b_open=False)
        if self.t < 1:
            raise InfeasibleParameterError(f"stage {self.k}: t = {self.t} < 1")


def block_constants(consts: SaddleConstants):
    """The one place that orients the constants on the (x, y) block pair:
    (mu, cross^2, diag^2), each a (2,) array, block 0 for x and block 1
    for y.  The x block reads mu_x, L_yx and L_xx, the y block mu_y, L_xy
    and L_yy.  The scalars are squared before they are stacked, so every
    schedule value has the bits of the per-block formula."""
    return (
        np.array([consts.mu_x, consts.mu_y]),
        np.array([consts.L_yx**2, consts.L_xy**2]),
        np.array([consts.L_xx**2, consts.L_yy**2]),
    )


def _modulus(alpha, gamma, rd: float, lam_max: float) -> np.ndarray:
    """M = 1 - sqrt(delta) alpha / (1 - gamma lambda_max / 2), per block."""
    return 1.0 - rd * alpha / (1.0 - 0.5 * gamma * lam_max)


_RESTART_C = 1.0 - 1.0 / math.sqrt(2.0)


def crdpsg_rho(consts: SaddleConstants, delta: float, spec: SpectralInfo) -> float:
    """Restart rate: the guaranteed per-step progress at stage 0, halved
    geometrically across stages."""
    kf2 = consts.kappa_f**2
    c = _RESTART_C
    return min(
        c / (8.0 * kf2),
        c / (16.0 * (1.0 + delta) ** 2 * kf2 * spec.kappa_g),
        c / ((1.0 + delta) * 4.0 * kf2),
    )


def crdpsg_stage_params(
    k: int, consts: SaddleConstants, delta: float, spec: SpectralInfo
) -> StageParams:
    """Closed-form stage-k schedule of the restart method.

    The stage's factors (1-b)/M of both blocks meet 1 - r, r the first
    term of crdpsg_rho at this stage, c / (8 kappa_f^2 2^(k/2)), through
    two caps.  b = mu s - 4 s^2 L_cross^2 peaks at s = mu / (8
    L_cross^2), so s is at most that (which binds only if L_cross > L /
    sqrt(2)); then b >= mu s0 / 2^(k/2 + 2) > r, s0 = 1 / (4 L kappa_f).
    M = 1 - sqrt(delta) alpha / (1 - gamma lambda_max / 2) falls as alpha
    grows, so alpha is at most the value that gives M = (1-b) / (1-r).

    t is the least step count with r_k^t at most min(M) / (3 M + 6
    sqrt(delta)) for each block's M and min(M) / 3, at the rate r_k =
    max(1 - rho / 2^(k/2), contraction_rate(stage, spec)): the restart
    rate, or the stage's slowest contraction factor where that is slower.
    A stage whose r_k rounds to 1 is refused.
    """
    if not 0.0 <= delta <= 1.0:
        raise InfeasibleParameterError(f"delta = {delta} outside [0, 1]")
    mu, cross2, _ = block_constants(consts)
    scale = 2.0 ** (k / 2.0)
    s0 = 1.0 / (4.0 * consts.L * consts.kappa_f)
    s = float(min(s0 / scale, *(mu / (8.0 * cross2))))
    b = mu * s - 4.0 * s**2 * cross2
    lam_max = spec.lambda_max
    gamma = b / (2.0 * (1.0 + delta) ** 2 * lam_max)
    rd = math.sqrt(delta)
    r = _RESTART_C / (8.0 * consts.kappa_f**2 * scale)
    alpha = b / (1.0 + delta)
    if rd > 0.0:
        q = 1.0 - 0.5 * gamma * lam_max
        alpha = np.minimum(alpha, q * (b - r) / (rd * (1.0 - r)))
    M = _modulus(alpha, gamma, rd, lam_max)
    rho = crdpsg_rho(consts, delta, spec)
    stage = StageParams(
        k=k, s=s, b=b, gamma=gamma, alpha=alpha, M=M, t=1, rho=rho, delta=delta
    )
    # 1 - r_k, r_k = max(1 - rho / 2^(k/2), contraction_rate), in log1p form
    gap = min(rho / scale, 1.0 - contraction_rate(stage, spec))
    if not gap > 0.0:
        raise InfeasibleParameterError(
            f"stage {k}: contraction rate r_k = {1.0 - gap:.6g} is not below 1"
        )
    m_min = float(M.min())
    need = [*(3.0 * M + 6.0 * rd) / m_min, 3.0 / m_min]
    t_real = (1.0 / -math.log1p(-gap)) * max(math.log(v) for v in need)
    return replace(stage, t=max(int(math.ceil(t_real)), 1))


def contraction_terms(params, spec: SpectralInfo) -> dict:
    """The term families of contraction_rate under params, a StageParams
    or SvrgParams, by label: the (x, y) pairs (1-b)/M, 1-alpha and
    1-gamma*lambda_2/2, each a (2,) array, and the refresh term 1-p/2
    where the record carries a refresh probability p (SvrgParams)."""
    terms = {
        "(1-b)/M": (1.0 - params.b) / params.M,
        "1-alpha": 1.0 - params.alpha,
        "1-gamma*lambda_2/2": 1.0 - 0.5 * params.gamma * spec.lambda_second_smallest,
    }
    if isinstance(params, SvrgParams):
        terms["1-p/2"] = 1.0 - params.p / 2.0
    return terms


def contraction_rate(params, spec: SpectralInfo) -> float:
    """Worst-case per-step decay factor of the Lyapunov diagnostic under
    params: the largest value of its term families (contraction_terms)."""
    return float(max(np.max(v) for v in contraction_terms(params, spec).values()))


@dataclass(frozen=True)
class SvrgParams:
    """Scalars of the variance-reduced method, the step parameters of its
    steps, checked at construction (ipdhg.check_windows, b in (0, 1)); p,
    whose window cdpsvrg_params checks, is the refresh probability.
    c_tilde, b, alpha, gamma and M are (x, y) pairs, read-only (2,) arrays
    in the order of the stacked state."""

    s: float
    c_tilde: np.ndarray
    b: np.ndarray
    alpha: np.ndarray
    gamma: np.ndarray
    M: np.ndarray
    p: float
    delta: float

    def __post_init__(self):
        hold_pairs(self, "c_tilde", "b", "alpha", "gamma", "M")
        check_windows(self, b_open=True)


def cdpsvrg_params(
    consts: SaddleConstants, delta: float, spec: SpectralInfo, p: float
) -> SvrgParams:
    """Closed-form parameter set of the variance-reduced method.  Batches
    are drawn uniformly, so no factor of the batch count n enters.  The
    refresh probability p must lie in (0, 1]; it is checked here, before
    the c_tilde factors divide by it.  b does not depend on p: c_tilde p
    cancels the 1/p.  A p so small that c_tilde overflows is refused.
    """
    if not 0.0 <= delta <= 1.0:
        raise InfeasibleParameterError(f"delta = {delta} outside [0, 1]")
    if not 0.0 < p <= 1.0:
        raise InfeasibleParameterError(f"p = {p} outside (0, 1]")
    mu, cross2, diag2 = block_constants(consts)
    s = consts.mu / (24.0 * consts.L**2)
    with np.errstate(over="ignore"):
        c_tilde = 8.0 * s**2 * (diag2 + cross2) / p
    if not np.isfinite(c_tilde).all():
        raise InfeasibleParameterError(f"p = {p:.6g} is too small: c_tilde overflows")
    b = s * mu - 4.0 * s**2 * cross2 - c_tilde * p
    lower = 1.0 / (144.0 * consts.kappa_f**2)
    if (b < lower - 1e-15).any():
        raise InfeasibleParameterError(
            f"b_x = {b[0]:.6g} or b_y = {b[1]:.6g} below the guaranteed "
            f"lower bound {lower:.6g}"
        )
    rd = math.sqrt(delta)
    lam_max = spec.lambda_max
    gamma = np.full(2, 1.0 / (4.0 * (1.0 + delta) * lam_max))
    if rd > 0.0:
        gamma = np.minimum(b / (4.0 * rd * (1.0 + delta) * lam_max), gamma)
    alpha = b / (1.0 + delta)
    return SvrgParams(
        s=s, c_tilde=c_tilde, b=b, alpha=alpha, gamma=gamma,
        M=_modulus(alpha, gamma, rd, lam_max), p=p, delta=delta,
    )


def _solve(prob, g, compressor, z0, z_star, rng, log_stride, segments):
    """The solve loop of both schedules.  segments(Z, trace) gets the
    stacked (2, m, d) start, every node at the (2, d) point z0, and the
    trace to charge, and yields (ens, params, draw, steps, after) per
    segment: its ensemble, parameter set, bound draw, step count, and None
    or a hook run after every step.  It resumes once the segment has run.
    The iteration count runs across segments, and a trace row, its
    distance to z_star, the (2, d) saddle point tiled over the nodes once,
    is logged at every multiple of log_stride.  Returns (trace, ens)."""
    Z, Z_star = (np.tile(np.asarray(z, dtype=float)[:, None], (1, g.m, 1))
                 for z in (z0, z_star))
    trace = Trace()
    ens = None
    it = 0
    with overflow_guard():
        for ens, params, draw, steps, after in segments(Z, trace):
            step = step_plan(ens, params, g, draw, prob, compressor, rng, trace)
            for _ in range(steps):
                step()
                if after is not None:
                    after()
                it += 1
                if it % log_stride == 0:
                    trace.log(it, distance_to_saddle(ens, Z_star))
    return trace, ens


def run_crdpsg(
    prob: SaddleProblem,
    g: DecGraph,
    compressor: Compressor,
    stages: list[StageParams],
    z0: np.ndarray,
    z_star: np.ndarray,
    seed: int,
    log_stride: int = 1,
):
    """Restart-based stochastic-gradient run of the given stages (from
    crdpsg_stage_params) from the stacked (2, d) start z0, logged against
    the (2, d) saddle point z_star: the restart schedule over the shared
    solve loop, one segment per stage.  Every stage zeroes the dual
    trackers, resets the compression references to the current iterates
    (one uncompressed broadcast round), and runs its t inner steps with
    minibatch gradients.  Returns (trace, ensemble).
    """
    rng = rng_for(seed, 0x5501)

    def segments(Z, trace):
        for params in stages:
            ens = NodeEnsemble.initialize(g, Z)
            # restart broadcast of the fresh references, sent uncompressed
            trace.add_round(Identity().payload_bits(ens.Z.shape))
            yield ens, params, gsgo_draw(prob, ens.Z, rng), params.t, None
            Z = ens.Z

    return _solve(prob, g, compressor, z0, z_star, rng, log_stride, segments)


def run_cdpsvrg(
    prob: SaddleProblem,
    g: DecGraph,
    compressor: Compressor,
    params: SvrgParams,
    T: int,
    z0: np.ndarray,
    z_star: np.ndarray,
    seed: int,
    log_stride: int = 1,
):
    """Variance-reduced run of T steps under params (from cdpsvrg_params)
    from the stacked (2, d) start z0, logged against the (2, d) saddle
    point z_star: one segment with one parameter set over the shared
    solve loop; after every step a Bernoulli(params.p) coin may refresh
    the reference points.  Returns (trace, ensemble)."""
    rng = rng_for(seed, 0x5502)

    def segment(Z, trace):
        ens = NodeEnsemble.initialize(g, Z)
        state = SvrgState.initialize(prob, Z, p=params.p)
        trace.add_grad(prob.m * prob.n)  # initial reference gradients

        def refresh():
            _, cost = svrgo_update_reference(state, prob, ens.Z, rng)
            trace.add_grad(cost)

        yield ens, params, svrgo_draw(prob, ens.Z, state, rng), T, refresh

    return _solve(prob, g, compressor, z0, z_star, rng, log_stride, segment)


def compute_reference(prob: SaddleProblem, iterations: int, tol: float):
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
    residual at the floor step 1/(4L) is at most tol; the step does not
    vanish with mu, so neither does the certificate.  The check reuses F
    at the new iterate, which the next predictor needs anyway.  Draws no
    random numbers.  Returns (z, residual), z the stacked (2, d) saddle
    point [x, y], also when the cap stops the run above tol: the caller
    judges the residual (cli.resolve_reference refuses it).
    """
    if prob.m != 1:
        raise ValueError("reference computation expects an m = 1 problem")
    h_min = 1.0 / (4.0 * prob.constants.L)

    # the single node's iterate as a one-row stacked point (2, 1, d)
    Z = np.zeros((2, 1, prob.d))
    h = h_min
    with overflow_guard():
        G = prob.full_grads(Z)
        residual = prob.prox_residual(Z, G, h_min)
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
            residual = prob.prox_residual(Z, G, h_min)
            h = 2.0 * h
    return Z[:, 0], residual
