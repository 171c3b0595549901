import copy

import numpy as np
import pytest

import decsaddle as ds
from conftest import PickBatch
from decsaddle.oracles import SvrgState
from decsaddle.problem import batch_mean, overflow_guard


def _problem(m=1, n=4, N=16, d=3, seed=0):
    dset = ds.synthesize(N, d, seed)
    part = ds.partition(dset, m, n, seed)
    return ds.RobustLRProblem(dset, part, lam=1.0, beta=0.5, R_x=2.0, R_y=1.0)


def _uncached(p, st, Z, J):
    """w (grad_J(Z) - grad_J(Z_tilde)) + g_tilde of every node i on its
    batch J[i], written out from the all-batch gradients at both points."""
    nodes = np.arange(p.m)
    w = (1.0 / (p.n * st.P[nodes, J]))[:, None]
    fresh = p.all_batch_grads(Z)[:, nodes, J]
    at_ref = p.all_batch_grads(st.Z_tilde)[:, nodes, J]
    return w * (fresh - at_ref) + p.full_grads(st.Z_tilde)


def _point(x, y):
    """The one-node stacked (2, 1, d) point [x, y]."""
    return np.array([x, y], dtype=float)[:, None]


def test_gsgo_n1_deterministic():
    p = _problem(n=1)
    z = _point(np.ones(3), np.zeros(3))
    (Gx, Gy), cost = ds.gsgo_draw(p, z, np.random.default_rng(0))()
    gx, gy = Gx[0], Gy[0]
    fx, fy = p.full_grads(z)[:, 0]
    assert np.allclose(gx, fx, atol=0) and np.allclose(gy, fy, atol=0)
    assert cost == 1


def test_gsgo_unbiased_mc():
    p = _problem(n=4)
    rng = np.random.default_rng(1)
    z = _point([0.5, -0.3, 0.2], [0.1, 0.0, -0.1])
    fx = p.full_grads(z)[0, 0]
    draw = ds.gsgo_draw(p, z, rng)
    draws = np.stack([draw()[0][0, 0].copy() for _ in range(100_000)])
    sem = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - fx) <= 3 * sem + 1e-12)


def test_gsgo_exact_mean():
    # a GSGO draw is uniform over a node's n batches, so its mean is an
    # n-term sum: over every batch choice, the bound draw averages to the
    # full gradient of every node
    p = _problem(m=4, n=3, N=24)
    rng = np.random.default_rng(6)
    Z = np.array([rng.standard_normal((4, 3)), 0.2 * rng.standard_normal((4, 3))])
    pick = PickBatch(p.n)
    draw = ds.gsgo_draw(p, Z, pick)
    mean = np.zeros_like(Z)
    for l in range(p.n):
        pick.l = l
        mean += draw()[0] / p.n
    assert np.max(np.abs(mean - p.full_grads(Z))) <= 1e-12


def test_gsgo_seed_determinism():
    p = _problem(n=4)
    z = _point(np.ones(3), np.zeros(3))
    a = ds.gsgo_draw(p, z, np.random.default_rng(42))()
    b = ds.gsgo_draw(p, z, np.random.default_rng(42))()
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_svrgo_at_reference_exact():
    p = _problem(n=4)
    z = _point([0.5, 0.1, -0.2], np.zeros(3))
    st = SvrgState.initialize(p, z, p=0.5)
    pick = PickBatch(4)
    draw = ds.svrgo_draw(p, z, st, pick)
    for l in range(4):
        pick.l = l
        st.unread = False  # run the kernel, not the first draw's cache read
        (Gx, Gy), cost = draw()
        gx, gy = Gx[0], Gy[0]
        assert np.array_equal(gx, st.g_tilde[0, 0])
        assert np.array_equal(gy, st.g_tilde[1, 0])
        assert cost == 2


def test_svrgo_exhaustive_unbiased():
    # enumerate all batch indices: the weighted average is the full gradient
    p = _problem(n=4)
    z_ref = _point([0.2, -0.4, 0.1], [0.05, 0.0, 0.0])
    z = _point([-0.6, 0.3, 0.7], [0.0, 0.1, -0.05])
    st = SvrgState.initialize(p, z_ref, p=0.5)
    mean_gx = np.zeros(3)
    mean_gy = np.zeros(3)
    pick = PickBatch(4)
    draw = ds.svrgo_draw(p, z, st, pick)
    for l in range(4):
        pick.l = l
        (Gx, Gy), _ = draw()
        gx, gy = Gx[0], Gy[0]
        mean_gx += st.P[0, l] * gx
        mean_gy += st.P[0, l] * gy
    fx, fy = p.full_grads(z)[:, 0]
    assert np.max(np.abs(mean_gx - fx)) <= 1e-14
    assert np.max(np.abs(mean_gy - fy)) <= 1e-14


def test_svrgo_uniform_classical_form():
    p = _problem(n=4)
    z_ref = _point(np.zeros(3), np.zeros(3))
    z = _point(np.ones(3), np.zeros(3))
    st = SvrgState.initialize(p, z_ref, p=0.5)
    l = 2
    pick = PickBatch(4)
    pick.l = l
    gx = ds.svrgo_draw(p, z, st, pick)()[0][0, 0]
    expected = (
        p.all_batch_grads(z)[0, 0, l]
        - p.all_batch_grads(z_ref)[0, 0, l]
        + st.g_tilde[0, 0]
    )
    assert np.allclose(gx, expected, atol=1e-15)


def test_reference_update_p1_always():
    p = _problem(n=2)
    z0 = _point(np.zeros(3), np.zeros(3))
    st = SvrgState.initialize(p, z0, p=1.0)
    z1 = _point(np.ones(3), np.zeros(3))
    rng = np.random.default_rng(0)
    st2, cost = ds.svrgo_update_reference(st, p, z1, rng)
    assert np.array_equal(st2.Z_tilde[0, 0], z1[0, 0])
    assert cost == p.m * p.n


def test_reference_update_p0_rejected():
    p = _problem(n=2)
    z0 = _point(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        SvrgState.initialize(p, z0, p=0.0)


def test_reference_update_frequency():
    p = _problem(n=2)
    z0 = _point(np.zeros(3), np.zeros(3))
    st = SvrgState.initialize(p, z0, p=0.1)
    rng = np.random.default_rng(4)
    hits = 0
    for _ in range(10_000):
        _, cost = ds.svrgo_update_reference(st, p, z0, rng)
        hits += cost > 0
    # binomial(10^4, 0.1): 3 sigma band around 1000
    assert abs(hits - 1000) <= 3 * np.sqrt(10_000 * 0.1 * 0.9)


def test_bad_sampling_law_rejected():
    p = _problem(n=2)
    z0 = _point(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        SvrgState.initialize(p, z0, p=0.5, P=np.array([[0.0, 1.0]]))


def test_gsgo_draws_match_sequential_integers():
    # one call draws the batch indices of m sequential rng.integers(n) calls
    p = _problem(m=4, n=3, N=24)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((4, 3))
    Y = 0.2 * rng.standard_normal((4, 3))
    rng_a, rng_b = np.random.default_rng(31), np.random.default_rng(31)
    draw = ds.gsgo_draw(p, np.array([X, Y]), rng_a)
    Gb = p.all_batch_grads(np.array([X, Y]))
    for _ in range(50):
        (Gx, Gy), cost = draw()
        J = [int(rng_b.integers(p.n)) for _ in range(p.m)]
        for i, j in enumerate(J):
            gx, gy = Gb[:, i, j]
            assert np.max(np.abs(Gx[i] - gx)) <= 1e-14
            assert np.max(np.abs(Gy[i] - gy)) <= 1e-14
        assert cost == p.m
    assert rng_a.random() == rng_b.random()


def test_svrgo_draws_match_sequential_choice():
    # one call draws the batch indices of m sequential rng.choice(n, p=P[i])
    p = _problem(m=4, n=3, N=24)
    rng = np.random.default_rng(8)
    P = rng.random((4, 3)) + 0.1
    P /= P.sum(axis=1, keepdims=True)
    X = rng.standard_normal((4, 3))
    Y = 0.2 * rng.standard_normal((4, 3))
    st = SvrgState.initialize(p, np.array([X + 0.5, Y]), p=0.5, P=P)
    rng_a, rng_b = np.random.default_rng(32), np.random.default_rng(32)
    for _ in range(200):
        J = st.draw_batches(rng_a)
        expected = [int(rng_b.choice(p.n, p=P[i])) for i in range(p.m)]
        assert J.tolist() == expected
    assert rng_a.random() == rng_b.random()
    Z = np.array([X, Y])
    G, cost = ds.svrgo_draw(p, Z, st, np.random.default_rng(5))()
    E = _uncached(p, st, Z, st.draw_batches(np.random.default_rng(5)))
    assert np.array_equal(G, E)
    assert cost == 2 * p.m


def test_svrgo_cache_matches_uncached_formula():
    # the cached reference-batch gradients give exactly
    # w (grad_J(X) - grad_J(X_tilde)) + g_tilde, before and after a refresh,
    # and the cost is still 2 units per node per draw, m*n per refresh; on
    # equal batches, on unequal ones (zero-padded batches, N = 26 over
    # m * n = 12 batches), and with a refresh after every draw
    for N, mode, draws, refreshes in [
        (24, "shuffled", 20, 2),
        (26, "sorted", 20, 2),
        (24, "shuffled", 1, 10),
    ]:
        dset = ds.synthesize(N, 3, 0)
        part = ds.partition(dset, 4, 3, 0, mode=mode)
        p = ds.RobustLRProblem(dset, part, lam=1.0, beta=0.5, R_x=2.0, R_y=1.0)
        rng = np.random.default_rng(13)
        P = rng.random((4, 3)) + 0.1
        P /= P.sum(axis=1, keepdims=True)
        X0 = rng.standard_normal((4, 3))
        st = SvrgState.initialize(
            p, np.array([X0, 0.2 * rng.standard_normal((4, 3))]), p=1.0, P=P,
        )
        Z = np.empty((2, 4, 3))
        draw = ds.svrgo_draw(p, Z, st, rng)
        for _ in range(refreshes):
            for _ in range(draws):
                X = rng.standard_normal((4, 3))
                Y = 0.2 * rng.standard_normal((4, 3))
                Z[:] = X, Y
                # the batches the draw takes, from a copy of its generator
                J = st.draw_batches(copy.deepcopy(rng))
                expected = _uncached(p, st, Z, J)
                G, cost = draw()
                assert np.array_equal(G, expected)
                assert cost == 2 * p.m
            X1 = rng.standard_normal((4, 3))
            Y1 = 0.2 * rng.standard_normal((4, 3))
            Z1 = np.array([X1, Y1])
            st, cost = ds.svrgo_update_reference(st, p, Z1, rng)  # p = 1: fires
            assert cost == p.m * p.n
            assert np.array_equal(st.Z_tilde, Z1)


@pytest.mark.parametrize(
    "m, n, N, d, mode",
    [(4, 5, 200, 10, "shuffled"), (64, 5, 1280, 10, "shuffled"),
     (4, 3, 26, 3, "sorted")],
    ids=["desk", "scale64", "padded"],
)
def test_batch_grads_match_all_batch_rows_bitwise(m, n, N, d, mode):
    # the refresh reuse in svrgo_draw rests on this: a batch gradient from
    # the gathered batches equals its row of the all-batch gradients, bit
    # for bit (zero-padded unequal batches included)
    dset = ds.synthesize(N, d, 1)
    part = ds.partition(dset, m, n, 3, mode=mode)
    p = ds.RobustLRProblem(dset, part, lam=1.5, beta=1.5, R_x=20.0, R_y=1.0)
    rng = np.random.default_rng(0)
    nodes = np.arange(m)
    Z = np.empty((2, m, d))
    grads = p.bind_batch_grads(Z)
    for _ in range(40):
        X = 0.3 * rng.standard_normal((m, d))
        Y = 0.05 * rng.standard_normal((m, d))
        J = rng.integers(n, size=m)
        Z[:] = X, Y
        fresh = grads(p.row0 + J)
        assert fresh.tobytes() == p.all_batch_grads(Z)[:, nodes, J].tobytes()


def test_svrgo_first_draw_at_reference_reads_the_cache():
    # the first draw after initialize or a refresh, made at the reference
    # point, runs no gradient kernel, yet gives the bits of the written-out
    # control variate for the same batches, consumes the same draws and
    # costs 2 units per node; later draws, and a first draw away from the
    # reference, run the kernel
    dset = ds.synthesize(24, 3, 0)
    part = ds.partition(dset, 4, 3, 0)
    p = ds.RobustLRProblem(dset, part, lam=1.0, beta=0.5, R_x=2.0, R_y=1.0)
    rng = np.random.default_rng(5)
    X, Y = rng.standard_normal((4, 3)), 0.2 * rng.standard_normal((4, 3))
    st = SvrgState.initialize(p, np.array([X, Y]), p=0.5)
    kernel_calls = []
    bind = p.bind_batch_grads

    def counting_bind(Z):  # every draw gathers its batches through a bound kernel
        grads = bind(Z)
        return lambda rows: kernel_calls.append(1) or grads(rows)

    p.bind_batch_grads = counting_bind
    for away in (False, False, True):
        Zs = np.array([X + 0.5 if away else X, Y])
        for k in range(3):
            r1, r2 = np.random.default_rng(k), np.random.default_rng(k)
            before = len(kernel_calls)
            G, cost = ds.svrgo_draw(p, Zs, st, r1)()
            ran = len(kernel_calls) - before
            expected = _uncached(p, st, Zs, st.draw_batches(r2))
            assert G.tobytes() == expected.tobytes() and cost == 2 * p.m
            assert r1.random() == r2.random()
            assert ran == (1 if k > 0 or away else 0)
        X, Y = rng.standard_normal((4, 3)), 0.2 * rng.standard_normal((4, 3))
        st.refresh(np.array([X, Y]))


def test_refresh_keeps_its_own_copy_of_the_point():
    # a step overwrites the ensemble's rows in place; a refresh taken
    # at ens.Z must copy it, or the reference point would follow
    # the iterate and the first-draw reuse would fire away from it
    dset = ds.synthesize(36, 3, 0)
    part = ds.partition(dset, 4, 3, 0)
    p = ds.RobustLRProblem(dset, part, lam=1.0, beta=0.5, R_x=2.0, R_y=1.0)
    g = ds.build_ring(4)
    params = ds.StepParams(s=0.05, gamma_x=0.02, gamma_y=0.03, alpha_x=0.2, alpha_y=0.25)
    comp = ds.identity_compressor()
    rng = np.random.default_rng(1)
    Z0 = np.array([rng.standard_normal((4, 3)), np.zeros((4, 3))])
    ens = ds.NodeEnsemble.initialize(g, Z0)
    st = SvrgState.initialize(p, Z0, p=1.0)  # the coin always fires

    def exact():  # moves the rows without reading st
        return p.full_grads(ens.Z), p.m

    svrgo_step = ds.step_plan(
        ens, params, g, ds.svrgo_draw(p, ens.Z, st, rng), p, comp, rng
    )
    exact_step = ds.step_plan(ens, params, g, exact, p, comp, rng)
    with overflow_guard():
        svrgo_step()
        st, cost = ds.svrgo_update_reference(st, p, ens.Z, rng)
        assert cost == p.m * p.n and st.unread
        xt, yt = st.Z_tilde.copy()
        for _ in range(3):
            exact_step()
        assert st.Z_tilde[0].tobytes() == xt.tobytes()
        assert st.Z_tilde[1].tobytes() == yt.tobytes()
        assert not np.array_equal(ens.Z[0], xt)
        # the first draw after the refresh now comes away from the
        # reference point, so it must run the kernel
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        G, _ = ds.svrgo_draw(p, ens.Z, st, r1)()
        expected = _uncached(p, st, ens.Z, st.draw_batches(r2))
    assert not st.unread
    assert G.tobytes() == expected.tobytes()
    assert G.tobytes() != st.g_tilde.tobytes()


def test_refresh_overwrites_the_cache_in_place():
    # a refresh rewrites the arrays initialize allocated; their bits are
    # those of the one-shot all-batch gradients at the new point, and the
    # reference point stays a copy of the ensemble's rows, on which the
    # first-draw reuse depends
    dset = ds.synthesize(26, 3, 0)
    part = ds.partition(dset, 4, 3, 0, mode="sorted")  # zero-padded batches
    p = ds.RobustLRProblem(dset, part, lam=1.0, beta=0.5, R_x=2.0, R_y=1.0)
    rng = np.random.default_rng(17)
    ens = ds.NodeEnsemble.initialize(ds.build_ring(4), np.zeros((2, 4, 3)))
    st = SvrgState.initialize(p, ens.Z, p=0.5)
    arrays = st.Z_tilde, st.g_rows, st.g_tilde
    with overflow_guard():
        for _ in range(5):
            ens.Z[:] = rng.standard_normal((4, 3)), 0.2 * rng.standard_normal((4, 3))
            st.refresh(ens.Z)
            Gb = p.all_batch_grads(ens.Z)
            assert st.g_rows.tobytes() == Gb.reshape(2, -1, 3).tobytes()
            assert st.g_tilde.tobytes() == batch_mean(Gb).tobytes()
            assert st.Z_tilde.tobytes() == ens.Z.tobytes()
            assert not np.shares_memory(st.Z_tilde, ens.Z)
            for a, b in zip(arrays, (st.Z_tilde, st.g_rows, st.g_tilde)):
                assert np.shares_memory(a, b)
