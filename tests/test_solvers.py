import dataclasses
import itertools
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import decsaddle as ds
from conftest import ACC, restart_stages, svrg_params


def _consts(mu=1.0, L=2.0, Lxy=1.0):
    return ds.SaddleConstants(
        mu_x=mu, mu_y=mu, L_xx=L, L_yy=L, L_xy=Lxy, L_yx=Lxy
    )


@pytest.fixture(scope="module")
def ring4_spec():
    return ds.spectral(ds.build_ring(4))


def test_stage0_frozen_values(ring4_spec):
    # mu = 1, L = 2, L_xy = L_yx = 1, kappa_f = 2, delta = 0, ring m = 4
    p = ds.crdpsg_stage_params(0, _consts(), 0.0, ring4_spec)
    assert p.s == 1.0 / 16.0
    assert abs(p.b[0] - 3.0 / 64.0) <= 1e-16
    assert abs(p.gamma[0] - 9.0 / 512.0) <= 1e-16
    assert p.M[0] == 1.0 and p.M[1] == 1.0 and min(p.M) == 1.0


def test_stage_delta0_t_formula(ring4_spec):
    for k in range(4):
        p = ds.crdpsg_stage_params(k, _consts(), 0.0, ring4_spec)
        expected = math.ceil(
            math.log(3.0) / (-math.log(1.0 - p.rho / 2 ** (k / 2)))
        )
        assert p.t == max(expected, 1)


def test_rho_formula(ring4_spec):
    c = _consts()
    rho = ds.crdpsg_rho(c, 0.0, ring4_spec)
    kf2 = c.kappa_f**2
    base = 1 - 1 / math.sqrt(2)
    expected = min(base / (8 * kf2), base / (16 * kf2 * 2.0), base / (4 * kf2))
    assert abs(rho - expected) <= 1e-16


def test_stage_step_is_capped_at_the_peak_of_b(ring4_spec):
    # kappa_f = 1 with L_yx = L: the stage-0 step 1/(4 L kappa_f) = 1/8
    # makes b_x exactly 0, so s is capped at b_x's peak mu / (8 L_yx^2)
    # = 1/16, where b_x = mu s / 2 = 1/16 and the factor 1 - b_x meets the bound
    c = ds.SaddleConstants(mu_x=2.0, mu_y=2.0, L_xx=2.0, L_yy=2.0, L_xy=2.0, L_yx=2.0)
    p = ds.crdpsg_stage_params(0, c, 0.0, ring4_spec)
    assert p.s == 1.0 / 16.0 and p.b[0] == p.b[1] == 1.0 / 16.0
    assert p.alpha[0] == 1.0 / 16.0 and min(p.M) == 1.0
    assert 1.0 - p.b[0] <= 1.0 - (1.0 - 1.0 / math.sqrt(2.0)) / 8.0


@given(
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=2.5, max_value=50.0),
    st.floats(min_value=0.1, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=20),
)
# L_yx = L: b_x is 0 in exact arithmetic at the uncapped step and rounds
# to +6.9e-18 (factor 1.0, t = 750)
@example(mu=1.1, ratio=2.5, cross_frac=1.0, delta=0.0, k=0)
# L_yx near L: 0.99674 against 0.99593 at the uncapped step
@example(mu=1.0, ratio=3.0, cross_frac=0.875, delta=1.0, k=0)
# with s at b_x's peak alone: 0.994978 against 0.994142
@example(mu=1.0, ratio=2.5, cross_frac=1.0, delta=1.0, k=0)
# the gamma factor 0.998750 above 1 - rho = 0.998536, which once set t = 750
@example(mu=1.0, ratio=2.5, cross_frac=1.0, delta=0.0, k=0)
@settings(max_examples=60, deadline=None)
def test_stage_contraction_bound(mu, ratio, cross_frac, delta, k):
    # (1-b_x)/M_x <= 1 - (1 - 1/sqrt(2)) / (8 kappa_f^2 2^{k/2}), every
    # point of the range has a stage, and the stage's t is long enough at
    # r_k = max(1 - rho / 2^(k/2), contraction_rate): every factor of the
    # contraction is at most r_k, and r_k^t shrinks the start terms by 3
    L = mu * ratio
    c = ds.SaddleConstants(
        mu_x=mu, mu_y=mu, L_xx=L, L_yy=L, L_xy=cross_frac * L, L_yx=cross_frac * L
    )
    spec = ds.spectral(ds.build_ring(4))
    p = ds.crdpsg_stage_params(k, c, delta, spec)
    bound = 1 - (1 - 1 / math.sqrt(2)) / (8 * c.kappa_f**2 * 2 ** (k / 2))
    assert (1 - p.b[0]) / p.M[0] <= bound + 1e-12
    assert (1 - p.b[1]) / p.M[1] <= bound + 1e-12
    lam2 = spec.lambda_second_smallest
    terms = [
        (1 - p.b[0]) / p.M[0], (1 - p.b[1]) / p.M[1],
        1 - 0.5 * p.gamma[0] * lam2, 1 - 0.5 * p.gamma[1] * lam2,
        1 - p.alpha[0], 1 - p.alpha[1],
    ]
    # 1 - r_k, whose log1p keeps its digits where r_k is near 1
    gap = min(p.rho / 2 ** (k / 2), 1 - ds.contraction_rate(p, spec))
    assert all(term <= 1 - gap for term in terms)
    rd = math.sqrt(delta)
    need = max(
        math.log((3 * p.M[0] + 6 * rd) / min(p.M)),
        math.log((3 * p.M[1] + 6 * rd) / min(p.M)),
        math.log(3 / min(p.M)),
    )
    assert p.t * -math.log1p(-gap) >= need * (1 - 1e-12)


def _stage_per_block(k, c, delta, spec):
    """crdpsg_stage_params written out once per block: the x block reads
    mu_x and L_yx, the y block mu_y and L_xy.  Returns the pairs and t."""
    scale = 2.0 ** (k / 2.0)
    s0 = 1.0 / (4.0 * c.L * c.kappa_f)
    s = min(s0 / scale, c.mu_x / (8.0 * c.L_yx**2), c.mu_y / (8.0 * c.L_xy**2))
    b_x = c.mu_x * s - 4.0 * s**2 * c.L_yx**2
    b_y = c.mu_y * s - 4.0 * s**2 * c.L_xy**2
    lam_max, lam2 = spec.lambda_max, spec.lambda_second_smallest
    gamma_x = b_x / (2.0 * (1.0 + delta) ** 2 * lam_max)
    gamma_y = b_y / (2.0 * (1.0 + delta) ** 2 * lam_max)
    rd = math.sqrt(delta)
    r = (1.0 - 1.0 / math.sqrt(2.0)) / (8.0 * c.kappa_f**2 * scale)
    alpha_x, alpha_y = b_x / (1.0 + delta), b_y / (1.0 + delta)
    if rd > 0.0:
        q_x, q_y = 1.0 - 0.5 * gamma_x * lam_max, 1.0 - 0.5 * gamma_y * lam_max
        alpha_x = min(alpha_x, q_x * (b_x - r) / (rd * (1.0 - r)))
        alpha_y = min(alpha_y, q_y * (b_y - r) / (rd * (1.0 - r)))
    M_x = 1.0 - rd * alpha_x / (1.0 - 0.5 * gamma_x * lam_max)
    M_y = 1.0 - rd * alpha_y / (1.0 - 0.5 * gamma_y * lam_max)
    rate = max(
        (1.0 - b_x) / M_x, (1.0 - b_y) / M_y, 1.0 - alpha_x, 1.0 - alpha_y,
        1.0 - 0.5 * gamma_x * lam2, 1.0 - 0.5 * gamma_y * lam2,
    )
    gap = min(ds.crdpsg_rho(c, delta, spec) / scale, 1.0 - rate)
    M = min(M_x, M_y)
    need = max(
        math.log((3.0 * M_x + 6.0 * rd) / M),
        math.log((3.0 * M_y + 6.0 * rd) / M),
        math.log(3.0 / M),
    )
    t = max(int(math.ceil((1.0 / -math.log1p(-gap)) * need)), 1)
    pairs = dict(b=(b_x, b_y), gamma=(gamma_x, gamma_y), alpha=(alpha_x, alpha_y),
                 M=(M_x, M_y))
    return s, pairs, t


def _svrg_per_block(c, delta, spec, p):
    """cdpsvrg_params written out once per block: the x block reads mu_x,
    L_xx and L_yx, the y block mu_y, L_yy and L_xy."""
    s = c.mu / (24.0 * c.L**2)
    c_tilde_x = 8.0 * s**2 * (c.L_xx**2 + c.L_yx**2) / p
    c_tilde_y = 8.0 * s**2 * (c.L_yy**2 + c.L_xy**2) / p
    b_x = s * c.mu_x - 4.0 * s**2 * c.L_yx**2 - c_tilde_x * p
    b_y = s * c.mu_y - 4.0 * s**2 * c.L_xy**2 - c_tilde_y * p
    rd = math.sqrt(delta)
    lam_max = spec.lambda_max
    cap = 1.0 / (4.0 * (1.0 + delta) * lam_max)
    gamma_x = gamma_y = cap
    if rd > 0.0:
        gamma_x = min(b_x / (4.0 * rd * (1.0 + delta) * lam_max), cap)
        gamma_y = min(b_y / (4.0 * rd * (1.0 + delta) * lam_max), cap)
    alpha_x, alpha_y = b_x / (1.0 + delta), b_y / (1.0 + delta)
    M_x = 1.0 - rd * alpha_x / (1.0 - 0.5 * gamma_x * lam_max)
    M_y = 1.0 - rd * alpha_y / (1.0 - 0.5 * gamma_y * lam_max)
    return s, dict(c_tilde=(c_tilde_x, c_tilde_y), b=(b_x, b_y),
                   gamma=(gamma_x, gamma_y), alpha=(alpha_x, alpha_y), M=(M_x, M_y))


def test_schedules_orient_every_block_pair():
    # mu_x != mu_y, L_xx != L_yy and L_xy != L_yx, so a block that reads
    # the other block's modulus or cross or diagonal constant changes the
    # bits of its pair; both schedules match the per-block formulas exactly
    c = ds.SaddleConstants(mu_x=1.0, mu_y=1.3, L_xx=2.0, L_yy=2.5, L_xy=1.2, L_yx=0.7)
    for spec in (ds.spectral(ds.build_ring(4)), ds.spectral(ds.build_torus(3, 3))):
        for delta in (0.0, 0.3, 1.0):
            for k in (0, 3):
                stage = ds.crdpsg_stage_params(k, c, delta, spec)
                s, pairs, t = _stage_per_block(k, c, delta, spec)
                assert (stage.s, stage.t) == (s, t)
                for name, pair in pairs.items():
                    assert getattr(stage, name).tolist() == list(pair), name
            svrg = ds.cdpsvrg_params(c, delta, spec, p=0.25)
            s, pairs = _svrg_per_block(c, delta, spec, 0.25)
            assert svrg.s == s
            for name, pair in pairs.items():
                assert getattr(svrg, name).tolist() == list(pair), name


@pytest.mark.parametrize("delta", [-0.1, 1.5])
def test_schedules_refuse_delta_outside_the_unit_interval(ring4_spec, delta):
    message = rf"delta = {delta} outside \[0, 1\]"
    with pytest.raises(ds.InfeasibleParameterError, match=message):
        ds.crdpsg_stage_params(0, _consts(), delta, ring4_spec)
    with pytest.raises(ds.InfeasibleParameterError, match=message):
        ds.cdpsvrg_params(_consts(), delta, ring4_spec, 0.5)


def test_svrg_frozen_values(ring4_spec):
    # mu = 1, L = 2: s = mu / (24 L^2) = 1/96; delta = 0, ring m = 4:
    # gamma_x = 1 / (4 lambda_max) = 3/16
    p = ds.cdpsvrg_params(_consts(), 0.0, ring4_spec, p=0.25)
    assert abs(p.s - 1.0 / 96.0) <= 1e-18
    assert abs(p.gamma[0] - 3.0 / 16.0) <= 1e-16
    assert p.M[0] == 1.0 and p.M[1] == 1.0


def test_schedule_records_check_their_windows_at_construction(ring4_spec):
    # a schedule's record is refused when it is built, not when a step is
    # bound from it, so validate sees every window the solve relies on
    stage = ds.crdpsg_stage_params(0, _consts(), 0.25, ring4_spec)
    svrg = ds.cdpsvrg_params(_consts(), 0.25, ring4_spec, p=0.25)
    for rec in (stage, svrg):
        for i, name in enumerate(("alpha_x", "alpha_y")):
            alpha = rec.alpha.copy()
            alpha[i] = 1.0 / (1.0 + rec.delta)
            with pytest.raises(ds.InfeasibleParameterError, match=name):
                dataclasses.replace(rec, alpha=alpha)
        with pytest.raises(ValueError, match="must be positive"):
            dataclasses.replace(rec, s=0.0)
        for i in range(2):
            gamma = rec.gamma.copy()
            gamma[i] = 0.0
            with pytest.raises(ValueError, match="must be positive"):
                dataclasses.replace(rec, gamma=gamma)
    with pytest.raises(ds.InfeasibleParameterError, match="stage 0: t = 0 < 1"):
        dataclasses.replace(stage, t=0)


def test_parameter_records_cannot_change_after_their_check(ring4_spec):
    # every pair is a read-only copy, so item assignment cannot bypass the
    # window check, and the caller's own arrays stay writable
    gamma = np.array([0.02, 0.03])
    step = ds.StepParams(s=0.05, gamma=gamma, alpha=(0.2, 0.25))
    gamma[0] = 1.0
    assert step.gamma[0] == 0.02
    records = [
        (step, ("gamma", "alpha")),
        (ds.crdpsg_stage_params(0, _consts(), 0.25, ring4_spec), ("b", "gamma", "alpha", "M")),
        (ds.cdpsvrg_params(_consts(), 0.25, ring4_spec, p=0.25),
         ("c_tilde", "b", "alpha", "gamma", "M")),
    ]
    for rec, names in records:
        for name in names:
            with pytest.raises(ValueError, match="read-only"):
                getattr(rec, name)[0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        step.s = 1.0


@given(
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=1.0, max_value=50.0),
    st.floats(min_value=0.1, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=16),
)
@settings(max_examples=100, deadline=None)
def test_svrg_bx_lower_bound(mu, ratio, cross_frac, delta, n):
    L = mu * ratio
    c = ds.SaddleConstants(
        mu_x=mu, mu_y=mu, L_xx=L, L_yy=L, L_xy=cross_frac * L, L_yx=cross_frac * L
    )
    spec = ds.spectral(ds.build_ring(4))
    p = ds.cdpsvrg_params(c, delta, spec, p=1.0 / n)
    lower = 1.0 / (144.0 * c.kappa_f**2)
    assert p.b[0] >= lower - 1e-15
    assert 0.0 < p.b[0] < 1.0 and 0.0 < p.b[1] < 1.0
    # feasibility windows from the parameter lemma
    lam_max = spec.lambda_max
    rd = math.sqrt(p.delta)
    assert 0.0 < p.alpha[0] < 1.0 / (1.0 + p.delta)
    assert 0.0 < 0.5 * p.gamma[0] * spec.lambda_second_smallest < 1.0
    if rd > 0.0:
        assert p.gamma[0] < (p.alpha[0] - (1 + p.delta) * p.alpha[0]**2) / (rd * lam_max)
        assert p.gamma[0] < (2 - 2 * rd * p.alpha[0]) / lam_max
    assert 0.0 < p.M[0] <= 1.0
    assert 0.0 < (1 - p.b[0]) / p.M[0] < 1.0


def test_contraction_rate_includes_refresh_term(ring4_spec):
    # the variance-reduced record carries p, so its rate has the refresh
    # term 1 - p/2; the same scalars without p give the rate without it
    p = ds.cdpsvrg_params(_consts(), 0.0, ring4_spec, p=0.25)
    no_p = types.SimpleNamespace(
        **{k: v for k, v in dataclasses.asdict(p).items() if k != "p"}
    )
    r0 = ds.contraction_rate(no_p, ring4_spec)
    r1 = ds.contraction_rate(p, ring4_spec)
    assert r1 >= 1 - 0.25 / 2
    assert r1 >= r0


@pytest.mark.parametrize("bits", [None, 4], ids=["delta0", "4bit"])
def test_single_node_trajectory_does_not_depend_on_the_spectrum(acc_dataset, bits):
    # at m = 1, W = [1]: the gossip difference is exactly 0, so D stays 0
    # and the iterates read only s, which neither schedule takes from the
    # spectrum; schedules from two graphs' spectra give the same bits
    part = ds.partition(acc_dataset, 1, 1, seed=0)
    prob = ds.RobustLRProblem(
        acc_dataset, part, lam=ACC["lam"], beta=ACC["beta"],
        R_x=ACC["R_x"], R_y=ACC["R_y"],
    )
    g1 = ds.DecGraph(())
    if bits is None:
        comp = ds.identity_compressor()
    else:
        comp = ds.Compressor(
            kind="quantize_inf", bits=bits, delta=ds.quantizer_delta(bits, prob.d)
        )
    z0 = np.array([np.full(prob.d, 5.0), np.zeros(prob.d)])
    specs = [ds.spectral(ds.build_ring(3)), ds.spectral(ds.build_torus(3, 3))]
    schedules = (
        lambda spec: ds.crdpsg_stage_params(0, prob.constants, comp.delta, spec),
        lambda spec: ds.cdpsvrg_params(prob.constants, comp.delta, spec, p=1.0),
    )
    for schedule in schedules:
        records, finals = [schedule(spec) for spec in specs], []
        assert records[0].gamma[0] != records[1].gamma[0]
        for params in records:
            ens = ds.NodeEnsemble.initialize(g1, z0[:, None])
            draw = lambda: (prob.full_grads(ens.Z), 1)
            step = ds.step_plan(
                ens, params, g1, draw, prob, comp, np.random.default_rng(0)
            )
            for _ in range(300):
                step()
            assert not ens.D.any()
            finals.append(ens.Z.copy())
        assert np.array_equal(finals[0], finals[1])


@pytest.mark.parametrize("stride", [1, 100])
def test_crdpsg_comm_accounting(acc_problem, acc_graph, acc_compressor, acc_zstar,
                                acc_start, stride):
    g, spec = acc_graph
    z, _ = acc_zstar
    stages = restart_stages(acc_problem, acc_compressor, spec, 2)
    trace, _ = ds.run_crdpsg(
        acc_problem, g, acc_compressor, stages, acc_start, z, seed=0,
        log_stride=stride,
    )
    ts = [stage.t for stage in stages]
    assert stride == 1 or ts[0] % stride != 0  # a row falls after the restart
    # the iteration count runs across stages, logged at every multiple of
    # the stride
    assert [r[0] for r in trace.rows] == list(range(stride, sum(ts) + 1, stride))
    starts = [0, *itertools.accumulate(ts[:-1])]  # steps run before stage k
    for it, _, rounds, _, _ in trace.rows:
        begun = sum(start < it for start in starts)
        assert rounds == it + begun  # one broadcast round per restart
    # counters nondecreasing
    for a, b in zip(trace.rows, trace.rows[1:]):
        assert b[1] >= a[1] and b[2] >= a[2] and b[3] >= a[3]


def test_crdpsg_consensus_after_run(acc_problem, acc_graph, acc_compressor,
                                    acc_zstar, acc_start):
    g, spec = acc_graph
    z, _ = acc_zstar
    stages = restart_stages(acc_problem, acc_compressor, spec, 5)
    _, ens = ds.run_crdpsg(
        acc_problem, g, acc_compressor, stages, acc_start, z, seed=3, log_stride=1000
    )
    x = ens.Z[0]
    xbar = x.mean(axis=0)
    assert max(np.linalg.norm(x[i] - xbar) for i in range(g.m)) <= 5e-3


def test_compute_reference_rejects_multinode(acc_problem):
    with pytest.raises(ValueError):
        ds.compute_reference(acc_problem, iterations=10, tol=1e-14)


def test_compute_reference_symmetric_origin():
    # symmetric instance: +/- pairs of samples, balanced labels; saddle at 0
    rng = np.random.default_rng(0)
    A = rng.standard_normal((10, 3))
    feats = np.vstack([A, -A])
    labels = np.concatenate([np.ones(10), np.ones(10)])
    dset = ds.Dataset(labels=labels, features=feats)
    part = ds.partition(dset, 1, 2, 0)
    prob = ds.RobustLRProblem(dset, part, lam=1.0, beta=0.5, R_x=2.0, R_y=1.0)
    Z0 = np.zeros((2, 1, 3))
    assert prob.prox_residual(Z0, prob.full_grads(Z0), 0.01) <= 1e-20
    z, res = ds.compute_reference(prob, iterations=30_000, tol=1e-24)
    assert np.linalg.norm(z[0]) <= 1e-8 and np.linalg.norm(z[1]) <= 1e-8


def test_compute_reference_is_deterministic(acc_problem_single):
    z1, res1 = ds.compute_reference(acc_problem_single, iterations=50_000, tol=1e-22)
    z2, res2 = ds.compute_reference(acc_problem_single, iterations=50_000, tol=1e-22)
    assert np.array_equal(z1, z2)
    assert res1 == res2


def test_compute_reference_desk_tol_within_2000_steps(acc_problem_single):
    _, res = ds.compute_reference(acc_problem_single, iterations=2000, tol=1e-25)
    assert res <= 1e-25


def _recording_prox(prob):
    """Wrap this problem instance's projected gradient step; returns the
    list of step sizes it is called with, in call order."""
    steps = []
    prox_step = prob.prox_step

    def recording(Z, G, s):
        steps.append(s)
        return prox_step(Z, G, s)

    prob.prox_step = recording
    return steps


def _desk_single(acc_dataset, lam=ACC["lam"], R_x=ACC["R_x"], R_y=ACC["R_y"]):
    part = ds.partition(acc_dataset, 1, ACC["n"], seed=0)
    return ds.RobustLRProblem(acc_dataset, part, lam=lam, beta=lam, R_x=R_x, R_y=R_y)


def test_compute_reference_backtracks_above_the_floor(acc_dataset):
    # every step projects with its step size h, every residual check with
    # the schedule step s < 1/(4L): h starts at 1/(4L), grows, is halved at
    # least once on the desk problem, and never drops below 1/(4L)
    prob = _desk_single(acc_dataset)
    c = prob.constants
    h_min, s = 1.0 / (4.0 * c.L), c.mu / (24.0 * c.L**2)
    calls = _recording_prox(prob)
    z, res = ds.compute_reference(prob, iterations=50_000, tol=1e-22)
    h = [v for v in calls if v != s]
    assert h[0] == h_min and min(h) >= h_min and max(h) > h_min
    assert any(b < a for a, b in zip(h, h[1:]))  # a backtracking halving
    Z = z[:, None]
    assert res <= 1e-22 and res == prob.prox_residual(Z, prob.full_grads(Z), s)


def test_compute_reference_step_floor(acc_dataset):
    # an operator whose value jumps by 1e3 with every evaluation fails the
    # acceptance test at every h above 1/(4L) (the tiny balls bound
    # ||W - Z||), so each step backtracks to the floor and no further
    prob = _desk_single(acc_dataset, R_x=1e-3, R_y=1e-3)
    c = prob.constants
    h_min, s = 1.0 / (4.0 * c.L), c.mu / (24.0 * c.L**2)
    full_grads, evals = prob.full_grads, itertools.count()
    prob.full_grads = lambda Z: full_grads(Z) + 1e3 * next(evals)
    calls = _recording_prox(prob)
    ds.compute_reference(prob, iterations=10, tol=0.0)
    h = [v for v in calls if v != s]
    assert min(h) == h_min and h.count(2.0 * h_min) == 9


def test_compute_reference_caps_accepted_steps(acc_dataset):
    # one residual check at the start and one after each accepted step
    prob = _desk_single(acc_dataset)
    c = prob.constants
    calls = _recording_prox(prob)
    ds.compute_reference(prob, iterations=7, tol=0.0)
    assert calls.count(c.mu / (24.0 * c.L**2)) == 1 + 7


def _fixed_step_reference(prob, steps):
    """Projected extragradient with the fixed step 1/(4L)."""
    h = 1.0 / (4.0 * prob.constants.L)
    signed_h = np.array([-h, h])[:, None, None]
    Z = np.zeros((2, 1, prob.d))
    for _ in range(steps):
        W = prob.prox(Z + signed_h * prob.full_grads(Z))
        Z = prob.prox(Z + signed_h * prob.full_grads(W))
    return Z[:, 0]


@pytest.mark.parametrize(
    "lam, R_x, R_y", [(12.5, 0.01, 1.0), (1.0, 0.05, 0.001)],
    ids=["x-ball", "both-balls"],
)
def test_compute_reference_matches_fixed_step_on_active_balls(
    acc_dataset, lam, R_x, R_y
):
    # with the constraints active, the backtracking solve agrees with a
    # long fixed-step solve within the distance the residuals imply: for a
    # mu-strongly monotone, 2L-Lipschitz operator,
    # ||z - z*|| <= (1 + 2 L s) / (mu s) * sqrt(residual at step s)
    prob = _desk_single(acc_dataset, lam=lam, R_x=R_x, R_y=R_y)
    c = prob.constants
    s = c.mu / (24.0 * c.L**2)
    tol = 1e-20
    z, res = ds.compute_reference(prob, iterations=10_000, tol=tol)
    assert res <= tol
    assert abs(np.linalg.norm(z[0]) - R_x) <= 1e-12
    if R_y < 0.01:
        assert abs(np.linalg.norm(z[1]) - R_y) <= 1e-12
    zf = _fixed_step_reference(prob, 1500)
    Zf = zf[:, None]
    res_f = prob.prox_residual(Zf, prob.full_grads(Zf), s)
    bound = (1.0 + 2.0 * c.L * s) / (c.mu * s) * (math.sqrt(tol) + math.sqrt(res_f))
    dist = math.sqrt(np.sum((z[0] - zf[0]) ** 2) + np.sum((z[1] - zf[1]) ** 2))
    assert dist <= bound


def test_solve_ignores_kernel_overflow():
    # far out-of-margin samples (|t| in the thousands) overflow exp in the
    # gradient kernel, which sets no error state itself: a solve enters the
    # overflow guard once, so no warning escapes and the run stays finite
    base = ds.synthesize(40, 3, 0)
    dset = ds.Dataset(labels=base.labels, features=400.0 * base.features)
    prob = ds.RobustLRProblem(
        dset, ds.partition(dset, 4, 2, 0), lam=1.0, beta=1.0, R_x=20.0, R_y=1.0
    )
    z0 = np.array([np.full(3, 10.0), np.zeros(3)])
    with pytest.warns(RuntimeWarning, match="overflow"):
        prob.full_grads(np.tile(z0[:, None], (1, 4, 1)))
    g = ds.build_ring(4)
    z = np.zeros((2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comp = ds.identity_compressor()
        trace, ens = ds.run_cdpsvrg(
            prob, g, comp, svrg_params(prob, comp, ds.spectral(g)), 3, z0,
            z, seed=1, log_stride=1,
        )
    assert np.isfinite(ens.Z).all() and len(trace.rows) == 3
