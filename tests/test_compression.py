import numpy as np
import pytest

import decsaddle as ds
from decsaddle.compression import InfeasibleParameterError


class _ZeroRng:
    """Stub generator whose uniform draws are always 0."""

    def random(self, shape=None):
        return np.zeros(shape) if shape is not None else 0.0


def test_quantize_zero_input():
    rng = np.random.default_rng(0)
    assert np.array_equal(ds.quantize_inf(np.zeros(5), 4, rng), np.zeros(5))


def test_quantize_hand_example_u0():
    # x = (1, -2), b = 2, u = 0: levels floor((1, 2)) = (1, 2), scale 1
    out = ds.quantize_inf(np.array([1.0, -2.0]), 2, _ZeroRng())
    assert np.array_equal(out, np.array([1.0, -2.0]))


def test_quantize_matches_formula():
    # direct transcription of the quantizer with captured uniforms
    rng = np.random.default_rng(3)
    x = rng.standard_normal(12)

    class Capture:
        def __init__(self):
            self.u = None

        def random(self, shape=None):
            self.u = np.random.default_rng(99).random(shape)
            return self.u

    for b in (1, 2, 4, 8):
        cap = Capture()
        out = ds.quantize_inf(x, b, cap)
        scale = np.max(np.abs(x))
        expected = (scale * 2.0 ** (1 - b)) * np.sign(x) * np.floor(
            2.0 ** (b - 1) * np.abs(x) / scale + cap.u
        )
        assert np.allclose(out, expected, atol=0)


def test_quantize_unbiased_mc():
    x = np.array([0.3, -1.1, 0.7])
    rng = np.random.default_rng(5)
    draws = np.stack([ds.quantize_inf(x, 4, rng) for _ in range(100_000)])
    mean = draws.mean(axis=0)
    sem = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    # additive slack covers float rounding on the max-magnitude coordinate,
    # which is reproduced deterministically
    assert np.all(np.abs(mean - x) <= 3 * sem + 1e-11)


def test_estimate_delta_identity():
    rng = np.random.default_rng(0)
    assert ds.estimate_delta(ds.identity_compressor(), 10, 1000, rng) == 0.0


def test_estimate_delta_high_bits_negligible():
    rng = np.random.default_rng(0)
    c = ds.Compressor(kind="quantize_inf", bits=32, delta=1e-9)
    assert ds.estimate_delta(c, 10, 1000, rng) <= 1e-6


def test_estimate_delta_b2_d4_in_range():
    rng = np.random.default_rng(0)
    c = ds.Compressor(kind="quantize_inf", bits=2, delta=1.0)
    dhat = ds.estimate_delta(c, 4, 2000, rng)
    assert 0.0 < dhat <= 1.0


def test_estimate_delta_rejects_few_trials():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ds.estimate_delta(ds.identity_compressor(), 10, 10, rng)


def test_compressor_rejects_bad_delta():
    with pytest.raises(InfeasibleParameterError):
        ds.Compressor(kind="quantize_inf", bits=2, delta=1.5)
    with pytest.raises(ValueError):
        ds.Compressor(kind="identity", delta=0.5)


@pytest.mark.parametrize("bits", [0, 33, 1100])
def test_compressor_rejects_bits_outside_window(bits):
    # 1100 bits would overflow 2^(b-1) in the first quantized step
    with pytest.raises(ValueError, match="bits"):
        ds.Compressor(kind="quantize_inf", bits=bits, delta=0.5)


def test_bits_per_coord():
    assert ds.Compressor(kind="quantize_inf", bits=4, delta=0.1).bits_per_coord == 5
    assert ds.identity_compressor().bits_per_coord == 32


def test_comm_identity_collapses():
    g = ds.build_ring(4)
    rng = np.random.default_rng(0)
    nu = rng.standard_normal((4, 3))
    st = ds.CommState.from_reference(g, rng.standard_normal((4, 3)))
    nu_hat, nu_hat_w, _ = ds.comm_step(
        nu, st, 0.5, 0.5, g, ds.identity_compressor(), rng
    )
    assert np.allclose(nu_hat, nu, atol=0)
    assert np.allclose(nu_hat_w, ds.mix(g, nu), atol=1e-15)


def test_comm_no_drift():
    g = ds.build_ring(4)
    rng = np.random.default_rng(1)
    H = rng.standard_normal((4, 2))
    st = ds.CommState.from_reference(g, H)
    c = ds.Compressor(kind="quantize_inf", bits=4, delta=0.1)
    nu_hat, nu_hat_w, new_st = ds.comm_step(H, st, 0.5, 0.5, g, c, rng)
    assert np.array_equal(nu_hat, H)
    assert np.array_equal(nu_hat_w, st.Hw)
    assert np.array_equal(new_st.H, H)


def test_comm_hand_example_ring3():
    g = ds.build_ring(3)
    rng = np.random.default_rng(0)
    st = ds.CommState(HH=np.zeros((2, 3, 1)))
    nu = np.array([[3.0], [0.0], [0.0]])
    nu_hat, nu_hat_w, new_st = ds.comm_step(
        nu, st, 0.5, 0.5, g, ds.identity_compressor(), rng
    )
    assert np.allclose(nu_hat.ravel(), [3, 0, 0], atol=0)
    assert np.allclose(nu_hat_w.ravel(), [1, 1, 1], atol=1e-15)
    assert np.allclose(new_st.H.ravel(), [1.5, 0, 0], atol=0)
    assert np.allclose(new_st.Hw.ravel(), [0.5, 0.5, 0.5], atol=1e-15)


def test_comm_state_consistency_1000_steps():
    g = ds.build_ring(5)
    rng = np.random.default_rng(7)
    c = ds.Compressor(kind="quantize_inf", bits=3, delta=0.5)
    st = ds.CommState.from_reference(g, rng.standard_normal((5, 4)))
    for _ in range(1000):
        nu = rng.standard_normal((5, 4))
        _, _, st = ds.comm_step(nu, st, 0.3, 1.0 - 0.3, g, c, rng)
        drift = np.max(np.abs(st.Hw - ds.mix(g, st.H)))
        assert drift <= 1e-9 * (1 + np.max(np.abs(st.Hw)))


def test_bound_exchange_matches_comm_step():
    # an exchange bound once, with alpha scaling the pair in place (as the
    # step plan binds it), advances [H, Hw] bit for bit as repeated
    # comm_step calls do, and its diff is nu_hat - nu_hat_w of each call;
    # the zero start takes the quantizer's zero-row path in call 1
    g = ds.build_ring(5)
    c = ds.Compressor(kind="quantize_inf", bits=3, delta=0.5)
    alpha = np.array([0.3, 0.2])[:, None, None]
    keep = 1.0 - alpha
    st_a = ds.CommState.from_reference(g, np.zeros((2, 5, 4)))
    st_b = ds.CommState.from_reference(g, np.zeros((2, 5, 4)))
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    NN, diff = np.empty_like(st_a.HH), np.empty((2, 5, 4))
    exchange = ds.bind_exchange(st_a, alpha, keep, g, c, rng_a, NN, diff, NN)
    nus = np.random.default_rng(4).standard_normal((50, 2, 5, 4))
    nus[0, 1] = 0.0
    for nu in nus:
        exchange(nu)
        nu_hat, nu_hat_w, _ = ds.comm_step(nu, st_b, alpha, keep, g, c, rng_b)
        assert diff.tobytes() == (nu_hat - nu_hat_w).tobytes()
        assert st_a.HH.tobytes() == st_b.HH.tobytes()
    assert rng_a.random() == rng_b.random()
    with pytest.raises(ValueError):  # references for another graph
        ds.bind_exchange(st_a, alpha, keep, ds.build_ring(4), c, rng_a, NN, diff, NN)


def test_quantize_rows_match_sequential_calls():
    # one call on stacked rows consumes the draws of one call per nonzero
    # row, in row order; zero rows draw nothing
    X = np.random.default_rng(2).standard_normal((6, 5))
    X[2] = 0.0
    X[4] = 0.0
    rng_a, rng_b = np.random.default_rng(12), np.random.default_rng(12)
    for b in (1, 3, 4):
        out = ds.quantize_inf(X, b, rng_a)
        seq = np.stack([ds.quantize_inf(X[i], b, rng_b) for i in range(6)])
        assert np.array_equal(out, seq)
    assert rng_a.random() == rng_b.random()
