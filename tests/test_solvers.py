import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import decsaddle as ds
from conftest import ACC
from decsaddle.compression import InfeasibleParameterError


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
    assert abs(p.b_x - 3.0 / 64.0) <= 1e-16
    assert abs(p.gamma_x - 9.0 / 512.0) <= 1e-16
    assert p.M_x == 1.0 and p.M_y == 1.0 and p.M == 1.0


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


def test_stage_infeasible_edge(ring4_spec):
    # kappa_f = 1 with L_yx = L makes b_x exactly 0
    c = ds.SaddleConstants(mu_x=2.0, mu_y=2.0, L_xx=2.0, L_yy=2.0, L_xy=2.0, L_yx=2.0)
    with pytest.raises(InfeasibleParameterError):
        ds.crdpsg_stage_params(0, c, 0.0, ring4_spec)


@given(
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=2.5, max_value=50.0),
    st.floats(min_value=0.1, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_stage_contraction_bound(mu, ratio, cross_frac, delta, k):
    # (1-b_x)/M_x <= 1 - (1 - 1/sqrt(2)) / (8 kappa_f^2 2^{k/2})
    L = mu * ratio
    c = ds.SaddleConstants(
        mu_x=mu, mu_y=mu, L_xx=L, L_yy=L, L_xy=cross_frac * L, L_yx=cross_frac * L
    )
    spec = ds.spectral(ds.build_ring(4))
    try:
        p = ds.crdpsg_stage_params(k, c, delta, spec)
    except InfeasibleParameterError:
        assume(False)
    bound = 1 - (1 - 1 / math.sqrt(2)) / (8 * c.kappa_f**2 * 2 ** (k / 2))
    assert (1 - p.b_x) / p.M_x <= bound + 1e-12
    assert (1 - p.b_y) / p.M_y <= bound + 1e-12


def test_svrg_frozen_values(ring4_spec):
    # mu = 1, L = 2, n = 4, p_min = 1/4: s = 1/96; delta = 0, ring m = 4:
    # gamma_x = 1 / (4 lambda_max) = 3/16
    p = ds.cdpsvrg_params(_consts(), 0.0, ring4_spec, n=4, p_min=0.25, p=0.25)
    assert abs(p.s - 1.0 / 96.0) <= 1e-18
    assert abs(p.gamma_x - 3.0 / 16.0) <= 1e-16
    assert p.M_x == 1.0 and p.M_y == 1.0


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
    p = ds.cdpsvrg_params(c, delta, spec, n=n, p_min=1.0 / n, p=1.0 / n)
    lower = n * (1.0 / n) / (144.0 * c.kappa_f**2)
    assert p.b_x >= lower - 1e-15
    assert 0.0 < p.b_x < 1.0 and 0.0 < p.b_y < 1.0
    # feasibility windows from the parameter lemma
    lam_max = spec.lambda_max
    rd = math.sqrt(p.delta)
    assert 0.0 < p.alpha_x < 1.0 / (1.0 + p.delta)
    assert 0.0 < 0.5 * p.gamma_x * spec.lambda_second_smallest < 1.0
    if rd > 0.0:
        assert p.gamma_x < (p.alpha_x - (1 + p.delta) * p.alpha_x**2) / (rd * lam_max)
        assert p.gamma_x < (2 - 2 * rd * p.alpha_x) / lam_max
    assert 0.0 < p.M_x <= 1.0
    assert 0.0 < (1 - p.b_x) / p.M_x < 1.0


def test_contraction_rate_includes_refresh_term(ring4_spec):
    p = ds.cdpsvrg_params(_consts(), 0.0, ring4_spec, n=4, p_min=0.25, p=0.25)
    r0 = ds.contraction_rate(p, ring4_spec)
    r1 = ds.contraction_rate(p, ring4_spec, p=0.25)
    assert r1 >= 1 - 0.25 / 2
    assert r1 >= r0


@pytest.mark.parametrize("stride", [1, 100])
def test_crdpsg_comm_accounting(acc_problem, acc_graph, acc_compressor, acc_zstar,
                                acc_start, stride):
    g, spec = acc_graph
    z, _ = acc_zstar
    K = 2
    trace, _ = ds.run_crdpsg(
        acc_problem, g, spec, acc_compressor, K, acc_start, z, seed=0,
        log_stride=stride,
    )
    ts = [
        ds.crdpsg_stage_params(k, acc_problem.constants, acc_compressor.delta, spec).t
        for k in range(K)
    ]
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
    _, ens = ds.run_crdpsg(
        acc_problem, g, spec, acc_compressor, 5, acc_start, z, seed=3, log_stride=1000
    )
    x = ens.Z[0]
    xbar = x.mean(axis=0)
    assert max(np.linalg.norm(x[i] - xbar) for i in range(g.m)) <= 5e-3


def test_compute_reference_rejects_multinode(acc_problem):
    with pytest.raises(ValueError):
        ds.compute_reference(acc_problem, iterations=10)


def test_compute_reference_symmetric_origin():
    # symmetric instance: +/- pairs of samples, balanced labels; saddle at 0
    rng = np.random.default_rng(0)
    A = rng.standard_normal((10, 3))
    feats = np.vstack([A, -A])
    labels = np.concatenate([np.ones(10), np.ones(10)])
    dset = ds.Dataset(
        labels=labels,
        indices=[np.arange(3)] * 20,
        values=[feats[i] for i in range(20)],
        d=3,
    )
    part = ds.partition(dset, 1, 2, 0)
    prob = ds.RobustLRProblem(dset, part, lam=1.0, beta=0.5, R_x=2.0, R_y=1.0)
    Z0 = np.zeros((2, 1, 3))
    assert prob.prox_residual(Z0, prob.full_grads(Z0), 0.01) <= 1e-20
    z, res = ds.compute_reference(prob, iterations=30_000, tol=1e-24)
    assert np.linalg.norm(z[0]) <= 1e-8 and np.linalg.norm(z[1]) <= 1e-8


def test_compute_reference_is_deterministic(acc_problem_single):
    z1, res1 = ds.compute_reference(acc_problem_single, tol=1e-22)
    z2, res2 = ds.compute_reference(acc_problem_single, tol=1e-22)
    assert np.array_equal(z1, z2)
    assert res1 == res2


def test_compute_reference_desk_tol_within_2000_steps(acc_problem_single):
    _, res = ds.compute_reference(acc_problem_single, iterations=2000, tol=1e-25)
    assert res <= 1e-25


def test_compute_reference_warns_when_cut_short(acc_dataset):
    # small radii keep the start's residual above the 1e-7 warning level
    part = ds.partition(acc_dataset, 1, 5, seed=0)
    prob = ds.RobustLRProblem(acc_dataset, part, lam=5.0, beta=5.0, R_x=1.0, R_y=0.5)
    with pytest.warns(UserWarning, match="reference residual"):
        _, res = ds.compute_reference(prob, iterations=1, tol=1e-25)
    assert res > 1e-7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, res = ds.compute_reference(prob, iterations=2000, tol=1e-25)
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
    z, res = ds.compute_reference(prob, tol=1e-22)
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ds.compute_reference(prob, iterations=10, tol=0.0)
    h = [v for v in calls if v != s]
    assert min(h) == h_min and h.count(2.0 * h_min) == 9


def test_compute_reference_caps_accepted_steps(acc_dataset):
    # one residual check at the start and one after each accepted step
    prob = _desk_single(acc_dataset)
    c = prob.constants
    calls = _recording_prox(prob)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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
    dset = ds.Dataset(
        labels=base.labels, indices=base.indices,
        values=[400.0 * v for v in base.values], d=base.d,
    )
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
        trace, ens = ds.run_cdpsvrg(
            prob, g, ds.spectral(g), ds.identity_compressor(), 3, z0,
            z, seed=1, log_stride=1,
        )
    assert np.isfinite(ens.Z).all() and len(trace.rows) == 3
