"""Median microseconds per IPDHG step over node count, dimension and oracle.

    python3 tools/step_sweep.py [--steps 300] [--repeats 7]

For every m in {4, 16, 64} (a ring at m = 4, a square torus otherwise) and
d in {10, 100} it builds a synthetic robust logistic regression problem
(n = 5 batches of 8 samples per node) and times `ipdhg_step` with 4-bit
quantized gossip, once with the minibatch oracle (GSGO) and once with the
variance-reduced oracle (SVRGO, reference point held fixed, as between two
refreshes).  Each repeat times --steps consecutive steps after a short
warm-up; a row reports the median over --repeats of the mean step time.
The steps run under the kernel's overflow guard, entered once per cell, as
the solvers enter it once per solve.  BLAS/OpenMP threads are pinned to 1
before NumPy is imported.  The package is imported from the `src/` next to
this script.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import numpy as np  # noqa: E402

import decsaddle as ds  # noqa: E402
from decsaddle.problem import overflow_guard  # noqa: E402

NODES = (4, 16, 64)
DIMS = (10, 100)
BATCHES, BATCH_SIZE = 5, 8
WARMUP = 20


def _graph(m):
    if m == 4:
        return ds.build_ring(4)
    side = int(round(m**0.5))
    return ds.build_torus(side, side)


def _setup(m, d, kind):
    """Problem, graph, start ensemble and bound oracle of one sweep cell."""
    data = ds.synthesize(m * BATCHES * BATCH_SIZE, d, seed=1)
    part = ds.partition(data, m, BATCHES, seed=1)
    # small moduli keep kappa_f >= 1 at every (m, d) of the sweep
    prob = ds.RobustLRProblem(data, part, lam=0.01, beta=0.01, R_x=20.0, R_y=1.0)
    g = _graph(m)
    rng = np.random.default_rng(2)
    x0 = 0.1 * rng.standard_normal((m, d))
    y0 = 0.01 * rng.standard_normal((m, d))
    ens = ds.NodeEnsemble.initialize(g, x0, y0)
    if kind == "gsgo":
        def oracle(X, Y, r):
            return ds.gsgo_sample(prob, X, Y, r)
    else:
        st = ds.SvrgState.initialize(prob, x0, y0, p=1.0 / BATCHES)

        def oracle(X, Y, r):
            return ds.svrgo_sample(prob, X, Y, st, r)
    return prob, g, ens, oracle


def time_cell(m, d, kind, steps, repeats):
    prob, g, ens, oracle = _setup(m, d, kind)
    comp = ds.Compressor(kind="quantize_inf", bits=4, delta=0.05)
    params = ds.StepParams(
        s=1e-3, gamma_x=0.02, gamma_y=0.02, alpha_x=0.2, alpha_y=0.2, delta=0.05
    )
    rng = np.random.default_rng(3)
    step = ds.ipdhg_step
    per_step = []
    with overflow_guard():
        for _ in range(WARMUP):
            ens = step(ens, params, g, oracle, prob, comp, rng)
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(steps):
                ens = step(ens, params, g, oracle, prob, comp, rng)
            per_step.append((time.perf_counter() - t0) / steps * 1e6)
    return statistics.median(per_step)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args(argv)
    print(f"{'m':>4} {'d':>4} {'oracle':>6} {'us/step':>9}")
    for m in NODES:
        for d in DIMS:
            for kind in ("gsgo", "svrgo"):
                us = time_cell(m, d, kind, args.steps, args.repeats)
                print(f"{m:>4} {d:>4} {kind:>6} {us:>9.1f}", flush=True)


if __name__ == "__main__":
    main()
