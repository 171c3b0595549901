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
    probe = ds.Compressor(kind="quantize_inf", bits=4, delta=1.0)
    rng = np.random.default_rng(0)
    dhat = ds.estimate_delta(probe, ACC["d"], 10_000, rng)
    return ds.Compressor(kind="quantize_inf", bits=4, delta=dhat)


@pytest.fixture(scope="session")
def acc_start():
    x0 = np.full(ACC["d"], ACC["R_x"] / np.sqrt(ACC["d"]))
    y0 = np.zeros(ACC["d"])
    return x0, y0
