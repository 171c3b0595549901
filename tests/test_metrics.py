import numpy as np
import pytest

import decsaddle as ds
from decsaddle.metrics import CostCounters, Trace
from decsaddle.topology import pinv_weighted_sqnorm


class _Ens:
    """Bare ensemble snapshot for diagnostics: stacked (2, m, d) iterates,
    dual trackers and references."""

    def __init__(self, Z, D, H):
        self.Z, self.D = Z, D
        self.comm = type("C", (), {"H": H})


def _at_zstar(z, m):
    """Every node at the stacked (2, d) point z: (2, m, d)."""
    return np.tile(z[:, None], (1, m, 1))


class _Params:
    def __init__(self, **kw):
        self.__dict__.update(kw)


def test_counters_accumulate():
    c = CostCounters()
    c.add_grad(3)
    c.add_round(12, 5)
    c.add_round(12, 5)
    assert c.grad_units == 3
    assert c.comm_rounds == 2
    assert c.bits == 2 * 12 * 5


def test_trace_csv_format():
    t = Trace()
    c = CostCounters()
    c.add_grad(4)
    c.add_round(10, 5)
    t.log(1, c, 0.5)
    text = t.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "iter,grad_units,comm_rounds,bits,dist_sq"
    assert lines[1] == "1,4,1,50,0.5"


def test_trace_rejects_nonfinite():
    t = Trace()
    with pytest.raises(FloatingPointError):
        t.log(1, CostCounters(), float("nan"))


def test_distance_to_saddle():
    z = np.zeros((2, 2))
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    y = np.array([[0.0, 0.0], [0.0, 1.0]])
    ens = _Ens(np.array([x, y]), None, None)
    assert ds.distance_to_saddle(ens, z) == 2.0
    # brute-force duplicate sum
    brute = sum(
        np.sum((x[i] - z[0]) ** 2) + np.sum((y[i] - z[1]) ** 2) for i in range(2)
    )
    assert abs(ds.distance_to_saddle(ens, z) - brute) <= 1e-15


def test_anchors_range_membership(acc_problem, acc_zstar):
    z, _ = acc_zstar
    a = ds.compute_anchors(acc_problem, z, s=0.001)
    assert np.max(np.abs(a.D_star[0].sum(axis=0))) <= 1e-10
    assert np.max(np.abs(a.D_star[1].sum(axis=0))) <= 1e-10
    # H anchors are consensual (all rows identical)
    assert np.max(np.abs(a.H_star[0] - a.H_star[0, 0])) == 0.0


def test_phi_zero_at_anchors(acc_problem, acc_graph, acc_zstar):
    g, spec = acc_graph
    z, _ = acc_zstar
    a = ds.compute_anchors(acc_problem, z, s=0.001)
    m = g.m
    ens = _Ens(_at_zstar(z, m), a.D_star.copy(), a.H_star.copy())
    params = _Params(
        M_x=1.0, M_y=1.0, s=0.001, gamma_x=0.01, gamma_y=0.01, delta=0.25
    )
    assert ds.phi(ens, a, params, spec) <= 1e-18


def test_phi_delta0_ignores_H(acc_problem, acc_graph, acc_zstar):
    g, spec = acc_graph
    z, _ = acc_zstar
    a = ds.compute_anchors(acc_problem, z, s=0.001)
    m = g.m
    rng = np.random.default_rng(0)
    H = np.array([rng.standard_normal(a.H_star[0].shape) for _ in range(2)])
    ens = _Ens(_at_zstar(z, m), a.D_star.copy(), H)
    params = _Params(M_x=1.0, M_y=1.0, s=0.001, gamma_x=0.01, gamma_y=0.01, delta=0.0)
    assert ds.phi(ens, a, params, spec) <= 1e-18


def test_phi_dominates_distance(acc_problem, acc_graph, acc_zstar):
    g, spec = acc_graph
    z, _ = acc_zstar
    a = ds.compute_anchors(acc_problem, z, s=0.001)
    rng = np.random.default_rng(3)
    m = g.m
    d = acc_problem.d
    Z = np.array([rng.standard_normal((m, d)), rng.standard_normal((m, d))])
    H = np.array([rng.standard_normal((m, d)), rng.standard_normal((m, d))])
    ens = _Ens(Z, np.zeros((2, m, d)), H)
    M_x, M_y = 0.9, 0.8
    params = _Params(
        M_x=M_x, M_y=M_y, s=0.001, gamma_x=0.01, gamma_y=0.01, delta=0.04
    )
    val = ds.phi(ens, a, params, spec)
    assert val >= min(M_x, M_y) * ds.distance_to_saddle(ens, z) - 1e-12


def test_phi_tilde_hand_arithmetic(acc_problem, acc_graph, acc_zstar):
    g, spec = acc_graph
    z, _ = acc_zstar
    a = ds.compute_anchors(acc_problem, z, s=0.001)
    m = g.m
    d = acc_problem.d
    ens = _Ens(_at_zstar(z, m), a.D_star.copy(), a.H_star.copy())
    params = _Params(
        M_x=1.0, M_y=1.0, s=0.001, gamma_x=0.01, gamma_y=0.01,
        delta=0.0, c_tilde_x=2.0, c_tilde_y=3.0,
    )
    state = type("S", (), {"Z_tilde": _at_zstar(z + [[1.0], [0.0]], m)})
    # phi part vanishes; x-reference offset of 1 per coordinate remains
    expected = 2.0 * m * d
    val = ds.phi_tilde(ens, a, state, params, spec)
    assert abs(val - expected) <= 1e-9


def test_phi_tilde_zero(acc_problem, acc_graph, acc_zstar):
    g, spec = acc_graph
    z, _ = acc_zstar
    a = ds.compute_anchors(acc_problem, z, s=0.001)
    m = g.m
    ens = _Ens(_at_zstar(z, m), a.D_star.copy(), a.H_star.copy())
    params = _Params(
        M_x=1.0, M_y=1.0, s=0.001, gamma_x=0.01, gamma_y=0.01,
        delta=0.0, c_tilde_x=2.0, c_tilde_y=3.0,
    )
    state = type("S", (), {"Z_tilde": _at_zstar(z, m)})
    assert ds.phi_tilde(ens, a, state, params, spec) <= 1e-18


def _phi_per_block(x, y, Dx, Dy, Hx, Hy, anchors, params, spec):
    """phi written out block by block, on separate x and y arrays."""
    zx, zy = anchors.z_star
    val = params.M_x * float(np.sum((x - zx) ** 2))
    val += params.M_y * float(np.sum((y - zy) ** 2))
    s2 = params.s**2
    val += (2.0 * s2 / params.gamma_x) * float(
        pinv_weighted_sqnorm(spec, Dx - anchors.D_star[0])
    )
    val += (2.0 * s2 / params.gamma_y) * float(
        pinv_weighted_sqnorm(spec, Dy - anchors.D_star[1])
    )
    rd = np.sqrt(params.delta)
    if rd > 0.0:
        val += rd * float(np.sum((Hx - anchors.H_star[0]) ** 2))
        val += rd * float(np.sum((Hy - anchors.H_star[1]) ** 2))
    return val


def test_phi_matches_per_block_transcription(acc_problem, acc_graph, acc_zstar):
    # the stacked phi and phi_tilde against the per-block sums written out,
    # on random ensembles away from the anchors, with and without the
    # reference term
    g, spec = acc_graph
    z, _ = acc_zstar
    a = ds.compute_anchors(acc_problem, z, s=0.001)
    m, d = g.m, acc_problem.d
    rng = np.random.default_rng(11)
    for delta in (0.0, 0.04):
        params = _Params(
            M_x=0.9, M_y=0.8, s=0.001, gamma_x=0.01, gamma_y=0.02,
            delta=delta, c_tilde_x=2.0, c_tilde_y=3.0,
        )
        for _ in range(5):
            Z, D, H, Zt = (
                base + rng.standard_normal((2, m, d))
                for base in (_at_zstar(z, m), a.D_star, a.H_star, _at_zstar(z, m))
            )
            ens = _Ens(Z, D, H)
            expected = _phi_per_block(*Z, *D, *H, a, params, spec)
            val = ds.phi(ens, a, params, spec)
            assert abs(val - expected) <= 1e-12 * abs(expected)
            state = type("S", (), {"Z_tilde": Zt})
            expected += params.c_tilde_x * float(np.sum((Zt[0] - z[0]) ** 2))
            expected += params.c_tilde_y * float(np.sum((Zt[1] - z[1]) ** 2))
            val = ds.phi_tilde(ens, a, state, params, spec)
            assert abs(val - expected) <= 1e-12 * abs(expected)
