import numpy as np
import pytest

import decsaddle as ds
from conftest import project, uniform_batches
from decsaddle.compression import InfeasibleParameterError
from decsaddle.problem import overflow_guard


def _problem(m, n=1, N=24, d=3, seed=0, lam=1.0, beta=0.5):
    dset = ds.synthesize(N, d, seed)
    part = ds.partition(dset, m, n, seed)
    return ds.RobustLRProblem(dset, part, lam=lam, beta=beta, R_x=2.0, R_y=1.0)


def _exact_draw(prob, ens):
    return lambda: (prob.full_grads(ens.Z), prob.m)


def test_single_node_reduces_to_prox_gda():
    prob = _problem(m=1)
    g = ds.DecGraph(())
    params = ds.StepParams(s=0.01, gamma=(1.0, 1.0), alpha=(0.3, 0.3))
    Z = np.array([[[0.5, -0.2, 0.1]], [[0.0, 0.1, 0.0]]])
    x, y = Z
    ens = ds.NodeEnsemble.initialize(g, Z)
    comp = ds.Identity()
    rng = np.random.default_rng(0)
    ds.step_plan(ens, params, g, _exact_draw(prob, ens), prob, comp, rng)()
    gx, gy = prob.full_grads(Z)[:, 0]
    assert np.allclose(ens.Z[0, 0], project(prob, x[0] - 0.01 * gx, 0), atol=1e-15)
    assert np.allclose(ens.Z[1, 0], project(prob, y[0] + 0.01 * gy, 1), atol=1e-15)
    assert np.allclose(ens.D[0], 0.0, atol=0) and np.allclose(ens.D[1], 0.0, atol=0)


def test_fixed_point_is_stationary(acc_graph, acc_problem, acc_zstar):
    # start exactly at the saddle anchors: one step must stay put
    g, spec = acc_graph
    prob = acc_problem
    z, _ = acc_zstar
    s = 0.001
    anchors = ds.compute_anchors(prob, z, s)
    params = ds.StepParams(s=s, gamma=(0.01, 0.01), alpha=(0.3, 0.3))
    Z = np.tile(z[:, None], (1, g.m, 1))
    ens = ds.NodeEnsemble.initialize(g, Z, D=anchors.D_star, H=anchors.H_star)
    comp = ds.Identity()
    rng = np.random.default_rng(0)
    ds.step_plan(ens, params, g, _exact_draw(prob, ens), prob, comp, rng)()
    assert np.max(np.abs(ens.Z[0] - Z[0])) <= 1e-10
    assert np.max(np.abs(ens.Z[1] - Z[1])) <= 1e-10


@pytest.mark.parametrize(
    "g, N, lam",
    # at m = 16 lambda = 1 exceeds the per-batch smoothness (kappa_f < 1)
    [(ds.DecGraph((3,)), 12, 1.0), (ds.DecGraph((4, 4)), 48, 0.1)],
    ids=["ring3", "torus4x4"],
)
def test_step_matches_straight_line_transcription(g, N, lam):
    # independent transcription of the primal-dual update equations
    m = g.m
    prob = _problem(m=m, d=1, N=N, lam=lam, beta=lam / 2)
    params = ds.StepParams(s=0.05, gamma=(0.02, 0.03), alpha=(0.2, 0.25))
    rng0 = np.random.default_rng(8)
    x = rng0.standard_normal((m, 1))
    y = 0.3 * rng0.standard_normal((m, 1))
    ens = ds.NodeEnsemble.initialize(g, np.array([x, y]))
    Dx0, Dy0 = ens.D.copy()
    Hx0, Hy0 = ens.H.copy()
    comp = ds.Identity()
    ds.step_plan(
        ens, params, g, _exact_draw(prob, ens), prob, comp, np.random.default_rng(0)
    )()

    W = g.W
    Gx, Gy = prob.full_grads(np.array([x, y]))
    s, gx_, gy_ = params.s, params.gamma[0], params.gamma[1]
    nux = x - s * Gx - s * Dx0
    nux_hat = nux  # identity compression: the quantized difference is exact
    nux_hat_w = W @ nux
    Dx1 = Dx0 + (gx_ / (2 * s)) * (nux_hat - nux_hat_w)
    x1 = nux - (gx_ / 2) * (nux_hat - nux_hat_w)
    x1 = np.stack([project(prob, x1[i], 0) for i in range(m)])
    nuy = y + s * Gy - s * Dy0
    nuy_hat_w = W @ nuy
    Dy1 = Dy0 + (gy_ / (2 * s)) * (nuy - nuy_hat_w)
    y1 = nuy - (gy_ / 2) * (nuy - nuy_hat_w)
    y1 = np.stack([project(prob, y1[i], 1) for i in range(m)])

    assert np.max(np.abs(ens.Z[0] - x1)) <= 1e-14
    assert np.max(np.abs(ens.Z[1] - y1)) <= 1e-14
    assert np.max(np.abs(ens.D[0] - Dx1)) <= 1e-14
    assert np.max(np.abs(ens.D[1] - Dy1)) <= 1e-14
    # reference updates
    assert np.allclose(ens.H[0], (1 - 0.2) * Hx0 + 0.2 * nux_hat, atol=1e-14)
    assert np.allclose(ens.H[1], (1 - 0.25) * Hy0 + 0.25 * nuy, atol=1e-14)


def test_dual_tracker_mean_invariant():
    prob = _problem(m=4, n=2, N=24)
    g = ds.DecGraph((4,))
    comp = ds.Quantizer(bits=4, delta=0.1)
    params = ds.StepParams(
        s=0.01, gamma=(0.02, 0.02), alpha=(0.2, 0.2), delta=0.1
    )
    rng = np.random.default_rng(5)
    ens = ds.NodeEnsemble.initialize(g, np.zeros((2, 4, 3)))
    step = ds.step_plan(ens, params, g, ds.gsgo_draw(prob, ens.Z, rng), prob, comp, rng)
    for _ in range(2000):
        step()
        for D in ens.D:
            col = np.abs(D.sum(axis=0)).max()
            assert col <= 1e-9 * (1 + np.linalg.norm(D))
    # iterates stay inside their balls
    assert np.all(np.linalg.norm(ens.Z[0], axis=1) <= prob.R_x + 1e-9)
    assert np.all(np.linalg.norm(ens.Z[1], axis=1) <= prob.R_y + 1e-9)


def test_invariants_at_the_scale64_topology():
    # criterion 7's invariants on the benchmark's 8x8 torus (m = 64) with
    # its stage-0 schedule: after every one of 200 minibatch steps with
    # 4-bit quantized gossip at delta = 0.05, Hw = W H and the dual
    # trackers sum to zero block by block, at criterion 7's tolerances,
    # and the step sent one round of 2 m d (b + 1) bits
    g = ds.DecGraph((8, 8))
    dset = ds.synthesize(1280, 10, 1)  # scale64 at workload seed 1
    part = ds.partition(dset, 64, 5, 11)
    prob = ds.RobustLRProblem(dset, part, lam=1.5, beta=1.5, R_x=20.0, R_y=1.0)
    comp = ds.Quantizer(bits=4, delta=0.05)
    params = ds.crdpsg_stage_params(0, prob.constants, comp.delta, ds.spectral(g))
    rng = np.random.default_rng(11)
    ens = ds.NodeEnsemble.initialize(g, 0.1 * rng.standard_normal((2, 64, 10)))
    counters = ds.Trace()
    step = ds.step_plan(
        ens, params, g, ds.gsgo_draw(prob, ens.Z, rng), prob, comp,
        rng, counters,
    )
    with overflow_guard():
        for t in range(1, 201):
            step()
            for H, Hw in zip(ens.H, ens.Hw):
                scale = 1 + np.max(np.abs(Hw))
                assert np.max(np.abs(Hw - ds.mix(g, H))) <= 1e-9 * scale, t
            for D in ens.D:
                assert np.abs(D.sum(axis=0)).max() <= 1e-7 * (1 + np.linalg.norm(D)), t
            assert counters.comm_rounds == t
            assert counters.bits == t * 2 * 64 * 10 * (4 + 1)


def test_counters_recorded():
    prob = _problem(m=3)
    g = ds.DecGraph((3,))
    comp = ds.Quantizer(bits=4, delta=0.1)
    params = ds.StepParams(
        s=0.01, gamma=(0.02, 0.02), alpha=(0.2, 0.2), delta=0.1
    )
    ens = ds.NodeEnsemble.initialize(g, np.zeros((2, 3, 3)))
    counters = ds.Trace()
    rng = np.random.default_rng(0)
    ds.step_plan(ens, params, g, _exact_draw(prob, ens), prob, comp, rng, counters)()
    assert counters.grad_units == 3
    assert counters.comm_rounds == 1
    assert counters.bits == 3 * (3 + 3) * 5


@pytest.mark.parametrize("block", [0, 1], ids=["x", "y"])
def test_nonfinite_iterate_raises(block):
    # a NaN gradient at one node must stop the step, not only a logged row
    prob = _problem(m=3)
    g = ds.DecGraph((3,))
    params = ds.StepParams(s=0.01, gamma=(0.02, 0.02), alpha=(0.2, 0.2))
    ens = ds.NodeEnsemble.initialize(g, np.zeros((2, 3, 3)))

    def draw():
        G = prob.full_grads(ens.Z)
        G[block, 1, 0] = np.nan
        return G, prob.m

    step = ds.step_plan(
        ens, params, g, draw, prob, ds.Identity(), np.random.default_rng(0)
    )
    with pytest.raises(FloatingPointError):
        step()


def test_ensemble_trajectory_matches_per_node_loop():
    # 300 stochastic steps against a per-node loop transcription that draws
    # each node's batch index from its own rng.random call and evaluates
    # the batch gradient from the raw samples, not through the problem
    dset = ds.synthesize(36, 3, 0)
    part = ds.partition(dset, 4, 3, 0)
    prob = ds.RobustLRProblem(dset, part, lam=1.0, beta=0.5, R_x=2.0, R_y=1.0)
    A_all, b_all = dset.features, dset.labels

    def formula(i, j, xi, yi):
        idx = part[i, j]
        idx = idx[idx < prob.N]
        A, b = A_all[idx] + yi, b_all[idx]
        coeff = -b / (1.0 + np.exp(b * (A @ xi)))
        gx = (prob.n / prob.N) * (A.T @ coeff) + (prob.lam / prob.m) * xi
        gy = (prob.n / prob.N) * np.sum(coeff) * xi - (prob.beta / prob.m) * yi
        return gx, gy

    g = ds.DecGraph((4,))
    W = g.W
    params = ds.StepParams(s=0.05, gamma=(0.02, 0.03), alpha=(0.2, 0.25))
    s, ax, ay = params.s, params.alpha[0], params.alpha[1]
    x = np.random.default_rng(2).standard_normal((4, 3))
    y = np.zeros((4, 3))
    ens = ds.NodeEnsemble.initialize(g, np.array([x, y]))
    comp = ds.Identity()
    rng = np.random.default_rng(3)
    step = ds.step_plan(ens, params, g, ds.gsgo_draw(prob, ens.Z, rng), prob, comp, rng)
    loop_rng = np.random.default_rng(3)
    Dx, Dy = np.zeros((4, 3)), np.zeros((4, 3))
    Hx, Hy = x.copy(), y.copy()
    Hwx, Hwy = W @ Hx, W @ Hy
    worst = 0.0
    for _ in range(300):
        step()
        Gx, Gy = np.empty((4, 3)), np.empty((4, 3))
        for i in range(4):
            j = int(uniform_batches(loop_rng, prob.n, 1)[0])
            Gx[i], Gy[i] = formula(i, j, x[i], y[i])
        nux = x - s * Gx - s * Dx
        nuy = y + s * Gy - s * Dy
        nux_w = Hwx + W @ (nux - Hx)  # identity compression: nu_hat = nu
        nuy_w = Hwy + W @ (nuy - Hy)
        Dx = Dx + (params.gamma[0] / (2 * s)) * (nux - nux_w)
        Dy = Dy + (params.gamma[1] / (2 * s)) * (nuy - nuy_w)
        x = np.stack([project(prob, r, 0) for r in nux - (params.gamma[0] / 2) * (nux - nux_w)])
        y = np.stack([project(prob, r, 1) for r in nuy - (params.gamma[1] / 2) * (nuy - nuy_w)])
        Hx, Hwx = (1 - ax) * Hx + ax * nux, (1 - ax) * Hwx + ax * nux_w
        Hy, Hwy = (1 - ay) * Hy + ay * nuy, (1 - ay) * Hwy + ay * nuy_w
        worst = max(worst, np.max(np.abs(ens.Z[0] - x)), np.max(np.abs(ens.Z[1] - y)))
    assert worst <= 1e-12


def test_step_params_alpha_window():
    # the reference mixing factors must lie in (0, 1/(1+delta)); the window
    # is checked once per parameter set, not on every exchange
    ok = dict(s=0.01, gamma=(0.02, 0.02), alpha=(0.3, 0.3), delta=0.5)
    ds.StepParams(**ok)
    for alpha in ((0.9, 0.3), (0.3, 0.9)):
        with pytest.raises(InfeasibleParameterError):
            ds.StepParams(**dict(ok, alpha=alpha))  # 0.9 > 1/1.5
    # parameters checked for a smaller delta than the compressor's
    prob = _problem(m=3)
    g = ds.DecGraph((3,))
    Z0 = np.zeros((2, 3, 3))
    Z0[0] = 1.0
    ens = ds.NodeEnsemble.initialize(g, Z0)
    lax = ds.StepParams(**dict(ok, alpha=(0.9, 0.3), delta=0.0))
    comp = ds.Quantizer(bits=2, delta=0.5)
    with pytest.raises(InfeasibleParameterError):
        ds.step_plan(
            ens, lax, g, _exact_draw(prob, ens), prob, comp, np.random.default_rng(0)
        )


def test_step_plan_checks_shapes_once():
    # an ensemble built for another graph or dimension is refused when the
    # plan is built, before any step runs
    prob = _problem(m=3)
    params = ds.StepParams(s=0.01, gamma=(0.02, 0.02), alpha=(0.2, 0.2))
    comp, rng = ds.Identity(), np.random.default_rng(0)
    for m, d in ((4, 3), (3, 2)):
        g = ds.DecGraph((m,))
        ens = ds.NodeEnsemble.initialize(g, np.zeros((2, m, d)))
        with pytest.raises(ValueError):
            ds.step_plan(ens, params, g, lambda: None, prob, comp, rng)


def _exchange(nu, H, Hw, alpha, W, bits, rng):
    """One block's compressed gossip exchange, written out."""
    Q = np.empty_like(H)
    ds.Quantizer(bits=bits, delta=1.0).bind(H.shape, rng)(
        nu - H, Q
    )
    nu_hat = H + Q
    nu_hat_w = Hw + W @ Q
    H = (1.0 - alpha) * H + alpha * nu_hat
    Hw = (1.0 - alpha) * Hw + alpha * nu_hat_w
    return nu_hat, nu_hat_w, H, Hw


_TRANSCRIPTION_CASES = pytest.mark.parametrize(
    "kind, N, mode, p_ref",
    [
        ("gsgo", 36, "shuffled", None),
        ("svrgo", 36, "shuffled", 0.3),
        # unequal batches: N = 38 over 12 batches, shorter ones zero-padded
        ("svrgo", 38, "sorted", 0.3),
        ("svrgo", 36, "shuffled", 1.0),  # a refresh after every step
    ],
    ids=["gsgo", "svrgo", "svrgo-padded", "svrgo-p1"],
)


@_TRANSCRIPTION_CASES
def test_bound_plan_matches_two_block_transcription(kind, N, mode, p_ref):
    # one plan bound as the solvers bind it, with the oracles' bound draw
    # at ens.Z: 300 quantized steps of the stacked (2, m, d) step against a
    # transcription with separate x and y exchanges (x rows quantized
    # first), per-node gradients and, for SVRGO, uncached reference-batch
    # gradients; the zero start makes every y row zero in step 1, so the
    # quantizer meets zero rows.  Equality is exact.
    dset = ds.synthesize(N, 3, 0)
    part = ds.partition(dset, 4, 3, 0, mode=mode)
    prob = ds.RobustLRProblem(dset, part, lam=1.0, beta=0.5, R_x=2.0, R_y=1.0)
    g = ds.DecGraph((4,))
    W, m, n, d = g.W, 4, prob.n, prob.d
    comp = ds.Quantizer(bits=4, delta=0.1)
    params = ds.StepParams(
        s=0.05, gamma=(0.02, 0.03), alpha=(0.2, 0.25), delta=0.1
    )
    s = params.s
    zeros = np.zeros((m, d))
    ens = ds.NodeEnsemble.initialize(g, np.zeros((2, m, d)))
    rng, loop_rng = np.random.default_rng(4), np.random.default_rng(4)
    x, y, Dx, Dy = zeros, zeros, zeros, zeros
    Hx, Hwx, Hy, Hwy = zeros, zeros, zeros, zeros
    if kind == "gsgo":
        draw = ds.gsgo_draw(prob, ens.Z, rng)

        def loop_grads(x, y, r):
            J = uniform_batches(r, n, m)
            Gb = prob.all_batch_grads(np.array([x, y]))
            rows = [Gb[:, i, J[i]] for i in range(m)]
            return np.array([gx for gx, _ in rows]), np.array([gy for _, gy in rows])
    else:
        st = ds.SvrgState.initialize(prob, np.zeros((2, m, d)), p=p_ref)
        ref = np.zeros((2, m, d))  # the transcription's reference points
        draw = ds.svrgo_draw(prob, ens.Z, st, rng)

        def loop_grads(x, y, r):
            Gx, Gy = np.empty((m, d)), np.empty((m, d))
            Gb = prob.all_batch_grads(np.array([x, y]))
            Gb_ref = prob.all_batch_grads(ref)
            G_ref = prob.full_grads(ref)
            for i, j in enumerate(uniform_batches(r, n, m)):
                fx, fy = Gb[:, i, j]
                rx, ry = Gb_ref[:, i, j]
                tx, ty = G_ref[:, i]
                Gx[i] = fx - rx + tx
                Gy[i] = fy - ry + ty
            return Gx, Gy

    advance = ds.step_plan(ens, params, g, draw, prob, comp, rng)
    for t in range(300):
        advance()
        Gx, Gy = loop_grads(x, y, loop_rng)
        nux = x - s * Gx - s * Dx
        nhx, nhwx, Hx, Hwx = _exchange(nux, Hx, Hwx, params.alpha[0], W, 4, loop_rng)
        Dx = Dx + (params.gamma[0] / (2.0 * s)) * (nhx - nhwx)
        x_new = project(prob, nux - (params.gamma[0] / 2.0) * (nhx - nhwx), 0)
        nuy = y + s * Gy - s * Dy
        nhy, nhwy, Hy, Hwy = _exchange(nuy, Hy, Hwy, params.alpha[1], W, 4, loop_rng)
        Dy = Dy + (params.gamma[1] / (2.0 * s)) * (nhy - nhwy)
        y = project(prob, nuy - (params.gamma[1] / 2.0) * (nhy - nhwy), 1)
        x = x_new
        if kind == "svrgo":
            st, _ = ds.svrgo_update_reference(st, prob, ens.Z, rng)
            if loop_rng.random() < p_ref:
                ref = np.array([x, y])
        if t == 0:
            assert not y.any()  # zero dual rows in step 1, quantized like any other
        for a, b in (
            (ens.Z[0], x), (ens.Z[1], y), (ens.D[0], Dx), (ens.D[1], Dy),
            (ens.H[0], Hx), (ens.Hw[0], Hwx),
            (ens.H[1], Hy), (ens.Hw[1], Hwy),
        ):
            assert np.array_equal(a, b), f"step {t + 1}"
    assert rng.random() == loop_rng.random()


@pytest.mark.parametrize("kind", ["gsgo", "svrgo"])
@pytest.mark.parametrize("quantized", [True, False], ids=["qinf", "identity"])
def test_bound_draws_match_one_shot_samplers(kind, quantized):
    # this checks the binding the solvers add, not the step body (which
    # the transcription above checks): 200 steps of one plan with the
    # oracles' bound draw at ens.Z and the counters bound once leave Z, D,
    # [H, Hw] and the counters bit for bit where 200 one-shot plans, each
    # with a draw bound afresh for its one step, leave them, with both
    # compressors.  The zero start makes every y row
    # zero in step 1; for SVRGO, refreshes
    # fire (p = 0.3) and the draw after each one comes at the reference
    # and reads the cache.
    dset = ds.synthesize(36, 3, 0)
    part = ds.partition(dset, 4, 3, 0)
    prob = ds.RobustLRProblem(dset, part, lam=1.0, beta=0.5, R_x=2.0, R_y=1.0)
    g = ds.DecGraph((4,))
    delta = 0.1 if quantized else 0.0
    comp = (
        ds.Quantizer(bits=4, delta=delta)
        if quantized else ds.Identity()
    )
    params = ds.StepParams(
        s=0.05, gamma=(0.02, 0.03), alpha=(0.2, 0.25), delta=delta
    )
    zeros = np.zeros((2, 4, 3))
    runs = []
    for _ in range(2):
        ens = ds.NodeEnsemble.initialize(g, zeros)
        st = ds.SvrgState.initialize(prob, zeros, p=0.3)
        runs.append((ens, st, np.random.default_rng(6), ds.Trace()))
    (ens_a, st_a, rng_a, cnt_a), (ens_b, st_b, rng_b, cnt_b) = runs
    def bind_draw(ens, st, rng):
        if kind == "gsgo":
            return ds.gsgo_draw(prob, ens.Z, rng)
        return ds.svrgo_draw(prob, ens.Z, st, rng)

    step = ds.step_plan(
        ens_a, params, g, bind_draw(ens_a, st_a, rng_a), prob, comp, rng_a, cnt_a
    )
    cached_draws = 0
    with overflow_guard():
        for t in range(200):
            if t == 0 and quantized:
                assert not (ens_a.Z[1] - ens_a.H[1]).any()
            cached_draws += st_a.unread and t > 0
            step()
            ds.step_plan(
                ens_b, params, g, bind_draw(ens_b, st_b, rng_b), prob, comp, rng_b,
                cnt_b,
            )()
            if kind == "svrgo":
                for ens, st, rng, cnt in runs:
                    cnt.add_grad(ds.svrgo_update_reference(st, prob, ens.Z, rng)[1])
            for a, b in ((ens_a.Z, ens_b.Z), (ens_a.D, ens_b.D),
                         (ens_a.HH, ens_b.HH)):
                assert a.tobytes() == b.tobytes(), f"step {t + 1}"
            assert cnt_a == cnt_b
    assert rng_a.random() == rng_b.random()
    assert cached_draws >= (10 if kind == "svrgo" else 0)
