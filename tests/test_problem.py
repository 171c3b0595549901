import itertools
import warnings

import numpy as np
import pytest

import decsaddle as ds
from conftest import project
from decsaddle.problem import _project_ball, overflow_guard


def _small_problem(m=2, n=2, N=20, d=4, lam=1.0, beta=0.5, R_x=3.0, R_y=1.0, seed=0):
    dset = ds.synthesize(N, d, seed)
    part = ds.partition(dset, m, n, seed)
    return ds.RobustLRProblem(dset, part, lam=lam, beta=beta, R_x=R_x, R_y=R_y)


def _single_sample_problem(a, b, lam, beta, R_x=1.0, R_y=1.0):
    a = np.asarray(a, dtype=float)
    dset = ds.Dataset(labels=np.array([float(b)]), features=a[None])
    part = ds.partition(dset, 1, 1, 0)
    return ds.RobustLRProblem(dset, part, lam=lam, beta=beta, R_x=R_x, R_y=R_y)


def test_grad_at_zero_x():
    p = _small_problem()
    y = np.array([0.1, -0.2, 0.05, 0.0])
    gx, gy = p.all_batch_grads(np.array([np.zeros(4), y])[:, None])[:, 0, 0]
    A, b = p.batch(0, 0)
    # sigmoid at 0 is 1/2 for every sample
    expected_gx = (p.n / p.N) * ((A + y).T @ (-b * 0.5))
    assert np.allclose(gx, expected_gx, atol=1e-14)
    assert np.allclose(gy, -(p.beta / p.m) * y, atol=1e-14)


def test_grad_hand_single_sample():
    # a = (1, 0), b = +1, x = y = 0: gx = -a/2, gy = 0 (up to tiny moduli)
    p = _single_sample_problem([1.0, 0.0], +1, lam=1e-12, beta=1e-12)
    gx, gy = p.all_batch_grads(np.zeros((2, 1, 2)))[:, 0, 0]
    assert np.allclose(gx, [-0.5, 0.0], atol=1e-10)
    assert np.allclose(gy, [0.0, 0.0], atol=1e-10)


def test_grad_finite_differences():
    p = _small_problem()
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(100):
        i = int(rng.integers(p.m))
        j = int(rng.integers(p.n))
        x = rng.standard_normal(p.d)
        y = 0.3 * rng.standard_normal(p.d)
        vx = rng.standard_normal(p.d)
        vy = rng.standard_normal(p.d)
        gx, gy = p.all_batch_grads(np.array([x, y])[:, None])[:, i, j]
        fp = p.loss_batch(i, j, np.array([x + h * vx, y + h * vy]))
        fm = p.loss_batch(i, j, np.array([x - h * vx, y - h * vy]))
        dd = (fp - fm) / (2 * h)
        pred = float(np.dot(gx, vx) + np.dot(gy, vy))
        assert abs(dd - pred) <= 1e-5 * (1 + abs(pred))


def test_grad_full_is_batch_mean():
    p = _small_problem()
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((1, p.d)), 0.2 * rng.standard_normal((1, p.d))
    gx, gy = p.full_grads(np.array([x, y]))[:, 0]
    Gb = p.all_batch_grads(np.array([x, y]))
    bx = np.mean([Gb[0, 0, j] for j in range(p.n)], axis=0)
    by = np.mean([Gb[1, 0, j] for j in range(p.n)], axis=0)
    assert np.allclose(gx, bx, atol=1e-12)
    assert np.allclose(gy, by, atol=1e-12)


def test_grad_full_n1_equals_batch():
    p = _small_problem(n=1)
    z = np.array([np.ones((1, p.d)), np.zeros((1, p.d))])
    batch = p.all_batch_grads(z)[0, 0, 0]
    assert np.allclose(p.full_grads(z)[0, 0], batch, atol=0)


def test_objective_consistency_brute_force():
    # node-averaged loss equals the global objective computed sample by sample
    p = _small_problem(m=2, n=2, N=12, lam=1.0, beta=0.5)
    dset = ds.synthesize(12, 4, 0)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(4)
    y = 0.3 * rng.standard_normal(4)
    total = np.mean(
        [
            np.mean([p.loss_batch(i, j, np.array([x, y])) for j in range(p.n)])
            for i in range(p.m)
        ]
    )
    A = dset.features
    b = dset.labels
    t = b * ((A + y) @ x)
    brute = (
        np.sum(np.logaddexp(0.0, -t)) / p.N / p.m
        + (p.lam / (2 * p.m)) * np.dot(x, x)
        - (p.beta / (2 * p.m)) * np.dot(y, y)
    )
    assert abs(total - brute) <= 1e-10 * (1 + abs(brute))


def test_prox_projection():
    p = _small_problem(R_x=1.0)
    assert np.allclose(project(p, np.array([3.0, 4.0, 0, 0]), 0),
                       [0.6, 0.8, 0, 0], atol=1e-15)
    inside = np.array([0.1, 0.2, 0, 0])
    assert np.array_equal(project(p, inside, 0), inside)
    out = project(p, np.array([5.0, 5.0, 5.0, 5.0]), 0)
    assert np.array_equal(project(p, out, 0), out)


@pytest.mark.parametrize(
    "row", [[1e200, 0.0], [np.inf, 0.0], [np.nan, 1.0]], ids=["overflow", "inf", "nan"]
)
def test_projection_raises_on_non_finite_row_norm(row):
    # a finite row whose squared norm overflows used to be sent to the
    # origin; like a row holding an inf or a NaN, it now raises, which the
    # CLI reports as a numerical failure (exit 4)
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        _project_ball(np.array([row]), 20.0)
    p = _small_problem(R_x=1.0)
    Z = np.zeros((2, 2, 4))
    Z[0, 1, :2] = row
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        p.prox(Z)


def test_partition_must_cover_every_sample_once():
    dset = ds.synthesize(12, 3, 0)
    index = ds.partition(dset, 2, 2, 0)
    twice = index.copy()
    twice[1, 1] = twice[0, 0]  # one sample twice, another never
    for bad in (twice, index[[0, 0]]):
        with pytest.raises(ValueError, match="disjoint cover"):
            ds.RobustLRProblem(dset, bad, lam=1.0, beta=1.0, R_x=1.0, R_y=1.0)


def test_rejects_an_all_padding_batch():
    # a disjoint cover whose batch (0, 1) holds only the padding index N
    dset = ds.synthesize(4, 3, 0)
    index = np.array([[[0, 1, 2, 3], [4, 4, 4, 4]]])
    with pytest.raises(ValueError, match=r"batch \(0, 1\) is empty"):
        ds.RobustLRProblem(dset, index, lam=1.0, beta=1.0, R_x=1.0, R_y=1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_constants_must_be_positive(bad):
    with pytest.raises(ValueError, match="all constants must be positive"):
        ds.SaddleConstants(
            mu_x=bad, mu_y=1.0, L_xx=2.0, L_yy=2.0, L_xy=1.0, L_yx=1.0
        )


def test_batch_grads_reject_a_point_for_another_node_count():
    p = _small_problem()  # m = 2, d = 4
    with pytest.raises(ValueError, match=r"expected a \(2, 2, 4\) point"):
        p.bind_batch_grads(np.zeros((2, 3, 4)))


def test_lipschitz_hand_single_sample():
    # a = (1, 0), R_x = R_y = 1, tiny moduli:
    # L_xx = 1/2 + 1/2 = 1, L_yy = 1/4, L_xy = 1 + 1/4 + 1/4 = 1.5
    p = _single_sample_problem([1.0, 0.0], +1, lam=1e-9, beta=1e-9)
    c = p.constants
    assert abs(c.L_xx - 1.0) < 1e-8
    assert abs(c.L_yy - 0.25) < 1e-8
    assert abs(c.L_xy - 1.5) < 1e-8


def test_lipschitz_lambda_shift():
    pa = _small_problem(lam=1.0)
    pb = _small_problem(lam=2.0)
    assert abs((pb.constants.L_xx - pa.constants.L_xx) - 1.0 / pa.m) < 1e-12
    assert abs(pb.constants.mu_x - pa.constants.mu_x - 1.0) < 1e-12


def _dominance_probes(p, const_name, n_probes, rng):
    c = getattr(p.constants, const_name)
    # both points of a probe sit in nodes 0 and 1 of one bound call
    Z = np.zeros((2, p.m, p.d))
    grads = p.bind_batch_grads(Z)
    blk = 0 if const_name in ("L_xx", "L_xy") else 1
    for _ in range(n_probes):
        i = int(rng.integers(p.m))
        j = int(rng.integers(p.n))
        x1 = project(p, p.R_x * rng.standard_normal(p.d), 0)
        x2 = project(p, p.R_x * rng.standard_normal(p.d), 0)
        y1 = project(p, p.R_y * rng.standard_normal(p.d), 1)
        y2 = project(p, p.R_y * rng.standard_normal(p.d), 1)
        Z[0, 0], Z[1, 0] = x1, y1
        if const_name in ("L_xx", "L_yx"):
            Z[0, 1], Z[1, 1] = x2, y1
            den = np.linalg.norm(x1 - x2)
        else:  # L_yy, L_xy
            Z[0, 1], Z[1, 1] = x1, y2
            den = np.linalg.norm(y1 - y2)
        G = grads(np.full(p.m, i * p.n + j))
        num = np.linalg.norm(G[blk, 0] - G[blk, 1])
        if den > 1e-12:
            assert num <= c * den * (1 + 1e-9)


def test_lipschitz_dominance_sampling():
    p = _small_problem(R_x=2.0, R_y=1.0)
    rng = np.random.default_rng(11)
    for name in ("L_xx", "L_yy", "L_xy", "L_yx"):
        _dominance_probes(p, name, 250, rng)


def test_strong_convexity_probes():
    p = _small_problem(lam=1.0, beta=0.5)
    rng = np.random.default_rng(13)
    mu_node = p.lam / p.m  # per-node modulus carried by the lambda/2m term
    for _ in range(100):
        i = int(rng.integers(p.m))
        x1 = rng.standard_normal(p.d)
        x2 = rng.standard_normal(p.d)
        y = 0.3 * rng.standard_normal(p.d)
        f1 = np.mean([p.loss_batch(i, j, np.array([x1, y])) for j in range(p.n)])
        f2 = np.mean([p.loss_batch(i, j, np.array([x2, y])) for j in range(p.n)])
        g2 = p.full_grads(np.array([x2, y])[:, None])[0, i]
        lower = f2 + np.dot(g2, x1 - x2) + 0.5 * mu_node * np.sum((x1 - x2) ** 2)
        assert f1 >= lower - 1e-9 * (1 + abs(f1))


def test_saddle_residual_fixed_point(acc_problem_single, acc_zstar):
    z, _ = acc_zstar
    p, Z = acc_problem_single, z[:, None]
    assert p.prox_residual(Z, p.full_grads(Z), 0.001) <= 1e-12


def test_saddle_residual_perturbation(acc_problem_single, acc_zstar):
    z, _ = acc_zstar
    p, Z = acc_problem_single, (z + [[1e-6], [0.0]])[:, None]
    r = p.prox_residual(Z, p.full_grads(Z), 0.001)
    assert r <= 1e-9  # quadratic in the perturbation, O(1e-12) scale


def test_rejects_bad_config():
    dset = ds.synthesize(10, 3, 0)
    part = ds.partition(dset, 2, 1, 0)
    with pytest.raises(ValueError):
        ds.RobustLRProblem(dset, part, lam=0.0, beta=1.0, R_x=1.0, R_y=1.0)
    with pytest.raises(ValueError):
        ds.RobustLRProblem(dset, part, lam=1.0, beta=1.0, R_x=-1.0, R_y=1.0)


def test_batch_grads_match_formula_on_padded_batches():
    # label-sorted nodes, N = 23 not divisible by m * n = 6: batch sizes
    # differ, so the shorter batches are zero-padded in the tensor
    dset = ds.synthesize(23, 4, 2)
    index = ds.partition(dset, 3, 2, 0, mode="sorted")
    p = ds.RobustLRProblem(dset, index, lam=1.0, beta=0.5, R_x=3.0, R_y=1.0)
    assert len(set(p.sizes.ravel().tolist())) > 1
    A_all, b_all = dset.features, dset.labels
    rng = np.random.default_rng(4)
    X = rng.standard_normal((3, 4))
    Y = 0.3 * rng.standard_normal((3, 4))

    def formula(i, idx, c):
        A, b = A_all[idx], b_all[idx]
        t = b * ((A + Y[i]) @ X[i])
        coeff = -b / (1.0 + np.exp(t))
        gx = c * ((A + Y[i]).T @ coeff) + (p.lam / p.m) * X[i]
        gy = c * np.sum(coeff) * X[i] - (p.beta / p.m) * Y[i]
        return gx, gy

    grads = p.bind_batch_grads(np.array([X, Y]))
    for J in itertools.product(range(p.n), repeat=p.m):
        Gx, Gy = grads(p.row0 + J)
        for i, j in enumerate(J):
            gx, gy = formula(i, index[i, j][index[i, j] < p.N], p.n / p.N)
            assert np.allclose(Gx[i], gx, rtol=1e-13, atol=1e-15)
            assert np.allclose(Gy[i], gy, rtol=1e-13, atol=1e-15)
    Fx, Fy = p.full_grads(np.array([X, Y]))
    for i in range(p.m):
        node = index[i][index[i] < p.N]  # batch by batch
        gx, gy = formula(i, node, 1.0 / p.N)
        assert np.allclose(Fx[i], gx, rtol=1e-13, atol=1e-15)
        assert np.allclose(Fy[i], gy, rtol=1e-13, atol=1e-15)


def test_sigmoid_matches_reference_without_overflow_warning():
    # the kernel evaluates sigmoid(-t) as 1 / (1 + exp(t)); for |t| up to
    # 800, exp overflows to inf, which under overflow_guard gives the right
    # value 0 and no warning.  One sample per batch and (x, y) = (1, 0) put
    # t = b a into each batch's y-gradient, -(n/N) b sigmoid(-t), with n = N
    t = np.concatenate(
        [np.linspace(-800.0, 800.0, 1601), [-745.2, -709.79, 709.79, 745.2]]
    )
    b = np.where(np.arange(t.size) % 2 == 0, 1.0, -1.0)
    dset = ds.Dataset(labels=b, features=(b * t)[:, None])
    p = ds.RobustLRProblem(
        dset, ds.partition(dset, 1, t.size, 0), lam=1.0, beta=1.0, R_x=1.0, R_y=1.0
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with overflow_guard():
            G = p.all_batch_grads(np.array([[[1.0]], [[0.0]]]))
    assert np.isfinite(G).all()
    gy = G[1, 0, :, 0]
    a, lab = p.features[:, 0, 0], p.labels[:, 0]
    tb = lab * a
    with np.errstate(over="ignore"):
        ref = -lab * (1.0 / (1.0 + np.exp(tb)))
    assert np.all(np.abs(gy - ref) <= np.spacing(np.abs(ref)))
    assert np.array_equal(gy[tb == -800.0], -lab[tb == -800.0])
    assert np.all(gy[tb == 800.0] == 0.0)
