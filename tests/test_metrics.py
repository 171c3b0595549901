import numpy as np
import pytest

import decsaddle as ds
from decsaddle.metrics import CostCounters, Trace
from decsaddle.problem import PrimalDualPoint


class _Ens:
    """Bare ensemble snapshot for diagnostics."""

    def __init__(self, x, y, Dx, Dy, Hx, Hy):
        self.x, self.y, self.Dx, self.Dy = x, y, Dx, Dy
        self.Z = np.array([x, y])
        self.comm_x = type("C", (), {"H": Hx})
        self.comm_y = type("C", (), {"H": Hy})


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
    z = PrimalDualPoint(np.zeros(2), np.zeros(2))
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    y = np.array([[0.0, 0.0], [0.0, 1.0]])
    ens = _Ens(x, y, None, None, None, None)
    assert ds.distance_to_saddle(ens, z.stacked()) == 2.0
    # brute-force duplicate sum
    brute = sum(
        np.sum((x[i] - z.x) ** 2) + np.sum((y[i] - z.y) ** 2) for i in range(2)
    )
    assert abs(ds.distance_to_saddle(ens, z.stacked()) - brute) <= 1e-15


def test_anchors_range_membership(acc_problem, acc_zstar):
    z, _ = acc_zstar
    a = ds.compute_anchors(acc_problem, z, s=0.001)
    assert np.max(np.abs(a.D_star_x.sum(axis=0))) <= 1e-10
    assert np.max(np.abs(a.D_star_y.sum(axis=0))) <= 1e-10
    # H anchors are consensual (all rows identical)
    assert np.max(np.abs(a.H_star_x - a.H_star_x[0])) == 0.0


def test_phi_zero_at_anchors(acc_problem, acc_graph, acc_zstar):
    g, spec = acc_graph
    z, _ = acc_zstar
    a = ds.compute_anchors(acc_problem, z, s=0.001)
    m = g.m
    ens = _Ens(
        np.tile(z.x, (m, 1)), np.tile(z.y, (m, 1)),
        a.D_star_x.copy(), a.D_star_y.copy(),
        a.H_star_x.copy(), a.H_star_y.copy(),
    )
    params = _Params(M_x=1.0, M_y=1.0, s=0.001, gamma_x=0.01, gamma_y=0.01)
    assert ds.phi(ens, a, params, 0.25, spec) <= 1e-18


def test_phi_delta0_ignores_H(acc_problem, acc_graph, acc_zstar):
    g, spec = acc_graph
    z, _ = acc_zstar
    a = ds.compute_anchors(acc_problem, z, s=0.001)
    m = g.m
    rng = np.random.default_rng(0)
    ens = _Ens(
        np.tile(z.x, (m, 1)), np.tile(z.y, (m, 1)),
        a.D_star_x.copy(), a.D_star_y.copy(),
        rng.standard_normal(a.H_star_x.shape), rng.standard_normal(a.H_star_y.shape),
    )
    params = _Params(M_x=1.0, M_y=1.0, s=0.001, gamma_x=0.01, gamma_y=0.01)
    assert ds.phi(ens, a, params, 0.0, spec) <= 1e-18


def test_phi_dominates_distance(acc_problem, acc_graph, acc_zstar):
    g, spec = acc_graph
    z, _ = acc_zstar
    a = ds.compute_anchors(acc_problem, z, s=0.001)
    rng = np.random.default_rng(3)
    m = g.m
    d = acc_problem.d
    ens = _Ens(
        rng.standard_normal((m, d)), rng.standard_normal((m, d)),
        np.zeros((m, d)), np.zeros((m, d)),
        rng.standard_normal((m, d)), rng.standard_normal((m, d)),
    )
    M_x, M_y = 0.9, 0.8
    params = _Params(M_x=M_x, M_y=M_y, s=0.001, gamma_x=0.01, gamma_y=0.01)
    val = ds.phi(ens, a, params, 0.04, spec)
    assert val >= min(M_x, M_y) * ds.distance_to_saddle(ens, z.stacked()) - 1e-12


def test_phi_tilde_hand_arithmetic(acc_problem, acc_graph, acc_zstar):
    g, spec = acc_graph
    z, _ = acc_zstar
    a = ds.compute_anchors(acc_problem, z, s=0.001)
    m = g.m
    d = acc_problem.d
    ens = _Ens(
        np.tile(z.x, (m, 1)), np.tile(z.y, (m, 1)),
        a.D_star_x.copy(), a.D_star_y.copy(),
        a.H_star_x.copy(), a.H_star_y.copy(),
    )
    params = _Params(
        M_x=1.0, M_y=1.0, s=0.001, gamma_x=0.01, gamma_y=0.01,
        delta=0.0, c_tilde_x=2.0, c_tilde_y=3.0,
    )
    state = type("S", (), {"x_tilde": np.tile(z.x + 1.0, (m, 1)),
                           "y_tilde": np.tile(z.y, (m, 1))})
    # phi part vanishes; x-reference offset of 1 per coordinate remains
    expected = 2.0 * m * d
    val = ds.phi_tilde(ens, a, state, params, spec)
    assert abs(val - expected) <= 1e-9


def test_phi_tilde_zero(acc_problem, acc_graph, acc_zstar):
    g, spec = acc_graph
    z, _ = acc_zstar
    a = ds.compute_anchors(acc_problem, z, s=0.001)
    m = g.m
    ens = _Ens(
        np.tile(z.x, (m, 1)), np.tile(z.y, (m, 1)),
        a.D_star_x.copy(), a.D_star_y.copy(),
        a.H_star_x.copy(), a.H_star_y.copy(),
    )
    params = _Params(
        M_x=1.0, M_y=1.0, s=0.001, gamma_x=0.01, gamma_y=0.01,
        delta=0.0, c_tilde_x=2.0, c_tilde_y=3.0,
    )
    state = type("S", (), {"x_tilde": np.tile(z.x, (m, 1)),
                           "y_tilde": np.tile(z.y, (m, 1))})
    assert ds.phi_tilde(ens, a, state, params, spec) <= 1e-18
