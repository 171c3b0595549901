"""Shared fixtures: the desk-scale benchmark instance and its reference
saddle point (computed once per session)."""

import numpy as np
import pytest

import decsaddle as ds

ACC = dict(N=200, d=10, data_seed=1, m=4, n=5, lam=12.5, beta=12.5, R_x=20.0, R_y=1.0)


def project(prob, v, block):
    """Project v, one row or stacked (k, d) rows, onto the ball of block 0
    (R_x) or block 1 (R_y) through the stacked prox."""
    Z = np.zeros((2,) + np.atleast_2d(v).shape)
    Z[block] = v
    return prob.prox(Z)[block].reshape(np.shape(v))


# criterion 5 bounds the sampled variance by this Monte Carlo estimate;
# runs take the exact factor from ds.quantizer_delta
def estimate_delta(
    c: ds.Compressor, d: int, trials: int, rng: np.random.Generator
) -> float:
    """Empirical upper estimate of the variance factor delta.

    Samples both isotropic Gaussian directions and spiky vectors (one
    dominant coordinate plus a half-level tail, which sit near the
    quantizer's worst case) on the unit sphere; returns the largest
    Monte-Carlo mean of ||Q(x)-x||^2 observed.
    """
    if trials < 1000:
        raise ValueError(f"need trials >= 1000, got {trials}")
    if c.kind == "identity":
        return 0.0
    probes = []
    for _ in range(20):
        v = rng.standard_normal(d)
        probes.append(v / np.linalg.norm(v))
    # spiky probes: dominant coordinate with tails at half a quantization
    # level, where the rounding variance per coordinate is maximal
    half_level = 2.0 ** (-c.bits)
    for frac in (0.25, 0.5, 1.0):
        v = np.full(d, half_level * frac)
        v[0] = 1.0
        probes.append(v / np.linalg.norm(v))
    per_trial = max(trials // len(probes), 1000)
    worst = 0.0
    for v in probes:
        # all trials of one probe in one call: one row per trial; the
        # running sum adds the trial errors in trial order
        X = np.tile(v, (per_trial, 1))
        q = np.empty_like(X)
        c.bind(X.shape, rng)(X, q)
        err = np.cumsum(np.sum((q - v) ** 2, axis=1))[-1]
        worst = max(worst, float(err) / per_trial)
    return worst


class PickBatch:
    """Stub generator under which a bound draw takes batch l at every node:
    a GSGO draw through integers, and an SVRGO draw under the uniform law
    over n batches through random, whose uniforms lie in batch l's cell."""

    def __init__(self, n):
        self.n, self.l = n, 0

    def integers(self, n, size=None):
        return np.full(size, self.l)

    def random(self, size=None):
        return np.full(size, (self.l + 0.5) / self.n)


@pytest.fixture(scope="session")
def acc_dataset():
    return ds.synthesize(ACC["N"], ACC["d"], ACC["data_seed"])


@pytest.fixture(scope="session")
def acc_graph():
    g = ds.build_ring(ACC["m"])
    return g, ds.spectral(g)


@pytest.fixture(scope="session")
def acc_problem(acc_dataset):
    part = ds.partition(acc_dataset, ACC["m"], ACC["n"], seed=0)
    return ds.RobustLRProblem(
        acc_dataset, part, lam=ACC["lam"], beta=ACC["beta"],
        R_x=ACC["R_x"], R_y=ACC["R_y"],
    )


@pytest.fixture(scope="session")
def acc_problem_single(acc_dataset):
    part = ds.partition(acc_dataset, 1, ACC["n"], seed=0)
    return ds.RobustLRProblem(
        acc_dataset, part, lam=ACC["lam"], beta=ACC["beta"],
        R_x=ACC["R_x"], R_y=ACC["R_y"],
    )


@pytest.fixture(scope="session")
def acc_zstar(acc_problem_single):
    z, residual = ds.compute_reference(
        acc_problem_single, iterations=400_000, tol=1e-25
    )
    return z, residual


@pytest.fixture(scope="session")
def acc_zstar_alt(acc_dataset):
    # the solve draws nothing, so the independent second solve runs on an
    # m = 1 problem whose batches come from another partition shuffle
    part = ds.partition(acc_dataset, 1, ACC["n"], seed=7)
    prob = ds.RobustLRProblem(
        acc_dataset, part, lam=ACC["lam"], beta=ACC["beta"],
        R_x=ACC["R_x"], R_y=ACC["R_y"],
    )
    z, residual = ds.compute_reference(prob, iterations=400_000, tol=1e-25)
    return z, residual


@pytest.fixture(scope="session")
def acc_compressor():
    return ds.Compressor(
        kind="quantize_inf", bits=4, delta=ds.quantizer_delta(4, ACC["d"])
    )


@pytest.fixture(scope="session")
def acc_start():
    # the stacked (2, d) start [x0, y0]
    x0 = np.full(ACC["d"], ACC["R_x"] / np.sqrt(ACC["d"]))
    return np.array([x0, np.zeros(ACC["d"])])
