import numpy as np
import pytest

import decsaddle as ds
from decsaddle.compression import InfeasibleParameterError


class _ConstRng:
    """Stub generator whose uniform draws all equal u."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None, out=None):
        return np.full(size if out is None else out.shape, self.u)


def _quantizer(b):
    return ds.Quantizer(bits=b, delta=1.0)


def test_quantize_zero_input():
    rng = np.random.default_rng(0)
    out = np.ones(5)
    _quantizer(4).bind((5,), rng)(np.zeros(5), out)
    assert np.array_equal(out, np.zeros(5))


def test_quantize_hand_example_u0():
    # x = (1, -2), b = 2, u = 0: levels floor((1, 2)) = (1, 2), scale 1
    out = np.empty(2)
    _quantizer(2).bind((2,), _ConstRng(0.0))(np.array([1.0, -2.0]), out)
    assert np.array_equal(out, np.array([1.0, -2.0]))


def test_quantize_matches_formula():
    # direct transcription of the quantizer with captured uniforms
    rng = np.random.default_rng(3)
    x = rng.standard_normal(12)

    class Capture:
        def __init__(self):
            self.u = None

        def random(self, size=None, out=None):
            self.u = np.random.default_rng(99).random(size, out=out)
            return self.u

    for b in (1, 2, 4, 8):
        cap = Capture()
        out = np.empty_like(x)
        _quantizer(b).bind(x.shape, cap)(x, out)
        scale = np.max(np.abs(x))
        expected = (scale * 2.0 ** (1 - b)) * np.sign(x) * np.floor(
            2.0 ** (b - 1) * np.abs(x) / scale + cap.u
        )
        assert np.allclose(out, expected, atol=0)


def test_quantize_exact_moments():
    # each coordinate of Q(v) takes one of two values, the multiples of
    # w = ||v||_inf 2^(1-b) just below and just above |v_k| (with v_k's
    # sign), the upper one with probability f_k, the fractional part of
    # |v_k| / w.  The quantizer gives the lower value at u = 0 and the upper
    # one at u just below 1; their law has mean v and E||Q(v) - v||^2 =
    # sum_k w^2 f_k (1 - f_k), exactly.  The zero row maps to zero through
    # the same body.
    V = np.random.default_rng(3).standard_normal((3, 12))
    V[1] = 0.0
    for X in (V, V[[0, 2]]):
        scale = np.max(np.abs(X), axis=1, keepdims=True)
        for b in (1, 2, 4, 8):
            w = scale * 2.0 ** (1 - b)
            f = np.divide(np.abs(X), w, out=np.zeros_like(X), where=w > 0) % 1.0
            low, high = np.empty_like(X), np.empty_like(X)
            _quantizer(b).bind(X.shape, _ConstRng(0.0))(X, low)
            _quantizer(b).bind(X.shape, _ConstRng(np.nextafter(1.0, 0.0)))(X, high)
            mean = (1.0 - f) * low + f * high
            second = np.sum((1.0 - f) * (low - X) ** 2 + f * (high - X) ** 2)
            assert np.max(np.abs(mean - X)) <= 1e-12
            assert abs(second - np.sum(w**2 * f * (1.0 - f))) <= 1e-12


def _exact_sq_error(X, b):
    """E||Q(x)-x||^2 of each row of X under the two-point law of each
    coordinate, from the quantizer's values at u = 0 and u just below 1."""
    w = np.max(np.abs(X), axis=1, keepdims=True) * 2.0 ** (1 - b)
    f = (np.abs(X) / w) % 1.0
    low, high = np.empty_like(X), np.empty_like(X)
    _quantizer(b).bind(X.shape, _ConstRng(0.0))(X, low)
    _quantizer(b).bind(X.shape, _ConstRng(np.nextafter(1.0, 0.0)))(X, high)
    return np.sum((1.0 - f) * (low - X) ** 2 + f * (high - X) ** 2, axis=1)


_DELTA_GRID = [(b, d) for b in (1, 2, 3, 4, 8, 32) for d in (1, 2, 10, 50, 122)]


@pytest.mark.parametrize("b, d", _DELTA_GRID)
def test_quantizer_delta_attained_at_worst_case(b, d):
    # the maximal coordinate is exact and every other one sits at the
    # fraction 1 / (sqrt(1+t) + 1) of the first level
    delta = ds.quantizer_delta(b, d)
    t = (d - 1) * 4.0 ** (1 - b)
    v = np.full((1, d), 2.0 ** (1 - b) / (np.sqrt(1.0 + t) + 1.0))
    v[0, 0] = 1.0
    ratio = _exact_sq_error(v, b)[0] / np.sum(v**2)
    assert ratio == pytest.approx(delta, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("b, d", _DELTA_GRID)
def test_quantizer_delta_bounds_random_vectors(b, d):
    rng = np.random.default_rng([b, d])
    # Gaussian rows, and rows of one dominant coordinate over a tail below
    # the first level, where the worst case lies
    X = rng.standard_normal((2000, d))
    X[1000:] = rng.random((1000, d)) * 2.0 ** (1 - b)
    X[1000:, 0] = 1.0
    ratio = _exact_sq_error(X, b) / np.sum(X**2, axis=1)
    assert np.max(ratio) <= ds.quantizer_delta(b, d) * (1.0 + 1e-12)


def test_quantizer_delta_positive_at_32_bits():
    # (sqrt(1+t) - 1)/2 rounds to 0 here, which the [0, 1] window would
    # take for the exact d = 1 quantizer; the evaluated form keeps its digits
    assert ds.quantizer_delta(32, 10) == pytest.approx(9.0 * 4.0**-31 / 4.0)
    assert ds.quantizer_delta(32, 10) > 0.0


def test_compressor_rejects_bad_delta():
    with pytest.raises(InfeasibleParameterError):
        ds.Quantizer(bits=2, delta=1.5)


def test_compressor_takes_exactly_its_own_values():
    # the quantizer needs both bits and delta; the identity takes none,
    # and its delta is 0
    with pytest.raises(TypeError):
        ds.Quantizer(4)
    with pytest.raises(TypeError):
        ds.Identity(delta=0.5)
    assert ds.Identity().delta == 0.0


@pytest.mark.parametrize("bits", [0, 33, 1100])
def test_compressor_rejects_bits_outside_window(bits):
    # 1100 bits would overflow 2^(b-1) in the first quantized step
    with pytest.raises(ValueError, match="bits"):
        ds.Quantizer(bits=bits, delta=0.5)


def test_payload_bits():
    # b + 1 bits per quantized coordinate, 32 per raw one, as Python ints
    shape = (2, 4, 10)
    bits = ds.Quantizer(bits=4, delta=0.1).payload_bits(shape)
    assert type(bits) is int and bits == 80 * 5
    assert ds.Identity().payload_bits(shape) == 80 * 32
    assert ds.Identity().payload_bits((10,)) == 10 * 32


def _pair(g, H):
    """The consistent reference pair [H, W H] of the references H."""
    return np.array([H, ds.mix(g, H)])


def test_comm_identity_collapses():
    g = ds.DecGraph((4,))
    rng = np.random.default_rng(0)
    nu = rng.standard_normal((4, 3))
    HH = _pair(g, rng.standard_normal((4, 3)))
    NN = np.empty_like(HH)  # alpha [nu_hat, nu_hat_w]
    ds.bind_exchange(
        HH, 0.5, g, ds.Identity(), rng, NN, np.empty((4, 3))
    )(nu)
    nu_hat, nu_hat_w = NN / 0.5  # dividing by a power of two is exact
    assert np.allclose(nu_hat, nu, atol=0)
    assert np.allclose(nu_hat_w, ds.mix(g, nu), atol=1e-15)


def test_comm_no_drift():
    g = ds.DecGraph((4,))
    rng = np.random.default_rng(1)
    H = rng.standard_normal((4, 2))
    HH = _pair(g, H)
    c = ds.Quantizer(bits=4, delta=0.1)
    NN = np.empty_like(HH)
    ds.bind_exchange(HH, 0.5, g, c, rng, NN, np.empty_like(H))(H)
    nu_hat, nu_hat_w = NN / 0.5
    assert np.array_equal(nu_hat, H)
    assert np.array_equal(nu_hat_w, HH[1])
    assert np.array_equal(HH[0], H)


def test_comm_hand_example_ring3():
    g = ds.DecGraph((3,))
    rng = np.random.default_rng(0)
    HH = np.zeros((2, 3, 1))
    nu = np.array([[3.0], [0.0], [0.0]])
    NN = np.empty_like(HH)
    ds.bind_exchange(
        HH, 0.5, g, ds.Identity(), rng, NN, np.empty((3, 1))
    )(nu)
    nu_hat, nu_hat_w = NN / 0.5
    H, Hw = HH
    assert np.allclose(nu_hat.ravel(), [3, 0, 0], atol=0)
    assert np.allclose(nu_hat_w.ravel(), [1, 1, 1], atol=1e-15)
    assert np.allclose(H.ravel(), [1.5, 0, 0], atol=0)
    assert np.allclose(Hw.ravel(), [0.5, 0.5, 0.5], atol=1e-15)


def test_comm_state_consistency_1000_steps():
    g = ds.DecGraph((5,))
    rng = np.random.default_rng(7)
    c = ds.Quantizer(bits=3, delta=0.5)
    HH = _pair(g, rng.standard_normal((5, 4)))
    H, Hw = HH
    exchange = ds.bind_exchange(
        HH, 0.3, g, c, rng, np.empty_like(HH), np.empty((5, 4))
    )
    for _ in range(1000):
        exchange(rng.standard_normal((5, 4)))
        drift = np.max(np.abs(Hw - ds.mix(g, H)))
        assert drift <= 1e-9 * (1 + np.max(np.abs(Hw)))


def test_bound_exchange_matches_comm_step():
    # an exchange bound once (as the step plan binds it) advances [H, Hw]
    # and writes diff = nu_hat - nu_hat_w bit for bit as exchanges bound
    # afresh for every call do; the zero start gives the quantizer zero
    # rows in call 1
    g = ds.DecGraph((5,))
    c = ds.Quantizer(bits=3, delta=0.5)
    alpha = np.array([0.3, 0.2])[:, None, None]
    HH_a, HH_b = np.zeros((2, 2, 5, 4)), np.zeros((2, 2, 5, 4))
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    NN, diff = np.empty_like(HH_a), np.empty((2, 5, 4))
    exchange = ds.bind_exchange(HH_a, alpha, g, c, rng_a, NN, diff)
    nus = np.random.default_rng(4).standard_normal((50, 2, 5, 4))
    nus[0, 1] = 0.0
    for nu in nus:
        exchange(nu)
        diff_b = np.empty_like(diff)
        ds.bind_exchange(
            HH_b, alpha, g, c, rng_b, np.empty_like(NN), diff_b
        )(nu)
        assert diff.tobytes() == diff_b.tobytes()
        assert HH_a.tobytes() == HH_b.tobytes()
    assert rng_a.random() == rng_b.random()
    with pytest.raises(ValueError):  # references for another graph
        ds.bind_exchange(HH_a, alpha, ds.DecGraph((4,)), c, rng_a, NN, diff)


def test_quantize_rows_match_sequential_calls():
    # one call on stacked rows consumes the draws of one call per row, in
    # row order; a zero row maps to zero and draws its d uniforms like any
    # other row, so one call draws exactly 6 * 5 uniforms
    X = np.random.default_rng(2).standard_normal((6, 5))
    X[2] = 0.0
    X[4] = 0.0
    rng_a, rng_b, rng_c = (np.random.default_rng(12) for _ in range(3))
    out, seq = np.empty_like(X), np.empty_like(X)
    for b in (1, 3, 4):
        _quantizer(b).bind(X.shape, rng_a)(X, out)
        row = _quantizer(b).bind((5,), rng_b)
        for i in range(6):
            row(X[i], seq[i])
        assert np.array_equal(out, seq)
        assert not out[[2, 4]].any()
        rng_c.random(X.size)
    assert rng_a.random() == rng_b.random() == rng_c.random()


def test_quantize_subnormal_row_at_the_floor_width():
    # a row whose inf-norm is below the least normal float is quantized at
    # the width of a row of that norm, w = tiny 2^(1-b): its two values are
    # the multiples of w just below and just above |x_k| (with x_k's sign),
    # so Q stays unbiased there
    tiny = np.finfo(float).tiny
    x = tiny * np.array([0.3, -0.7, 0.11])
    for b in (1, 2, 4):
        w = tiny * 2.0 ** (1 - b)
        low, high = np.empty_like(x), np.empty_like(x)
        _quantizer(b).bind(x.shape, _ConstRng(0.0))(x, low)
        _quantizer(b).bind(x.shape, _ConstRng(np.nextafter(1.0, 0.0)))(x, high)
        k = np.floor(np.abs(x) / w)
        assert np.array_equal(low, np.sign(x) * k * w)
        assert np.array_equal(high, np.sign(x) * (k + 1.0) * w)
