"""Median microseconds per IPDHG step over node count, dimension and oracle.

    python3 tools/step_sweep.py [--steps 300] [--repeats 7] [--against SRC]

For every m in {4, 16, 64} (a ring at m = 4, a square torus otherwise) and
d in {10, 100} it builds a synthetic robust logistic regression problem
(n = 5 batches of 8 samples per node) and times the step the solvers run
with 4-bit quantized gossip: a `step_plan` bound once per cell, with the
oracles' bound draw, once with the minibatch oracle (GSGO) and once with
the variance-reduced oracle (SVRGO).  The SVRGO cell runs as the
variance-reduced solver does: after every step it calls
`svrgo_update_reference` with p = 1/n, so the timed steps include the
refreshes and the first-draw reuse.  A refresh copies the point into the
reference array and reruns the all-batch gradient kernel that
`SvrgState.initialize` bound once, overwriting the cached gradients and
their means in place.  Each
repeat times --steps consecutive steps after a short warm-up; a row
reports the median over --repeats of the mean step time.
The steps run under the kernel's overflow guard, as the solvers run
theirs.  BLAS/OpenMP threads are pinned to 1 before NumPy is imported.
The package is imported from the `src/` next to this script.

--against SRC also imports the `decsaddle` package under SRC (for
example another checkout's `src/`) into the same process, under another
module name.  Every cell then builds the same problem in both trees and
alternates them repeat by repeat (the order flips each repeat), so both
see the same machine state; a row adds the other tree's median and the
ratio against / this (above 1: this tree is faster).  A tree without
`step_plan`, or one that still passes x and y as separate arrays (it
exports `PrimalDualPoint`), is refused.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import numpy as np  # noqa: E402

import decsaddle  # noqa: E402

NODES = (4, 16, 64)
DIMS = (10, 100)
BATCHES, BATCH_SIZE = 5, 8
WARMUP = 20


def load_tree(src, name="decsaddle_against"):
    """The decsaddle package under src, imported as module `name`; its
    relative imports resolve inside that tree."""
    pkg_dir = os.path.join(os.path.abspath(src), "decsaddle")
    init = os.path.join(pkg_dir, "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"no decsaddle package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[pkg_dir]
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    if not hasattr(mod, "step_plan"):
        raise SystemExit(f"the decsaddle package under {src} has no step_plan")
    if hasattr(mod, "PrimalDualPoint"):
        raise SystemExit(
            f"the decsaddle package under {src} takes separate x and y arrays "
            "(it exports PrimalDualPoint), not stacked points"
        )
    return mod


def _graph(ds, m):
    if m == 4:
        return ds.build_ring(4)
    side = int(round(m**0.5))
    return ds.build_torus(side, side)


def make_cell(ds, m, d, kind):
    """Build one sweep cell in package ds, run its warm-up, and return
    timed(steps) -> mean microseconds per step over the next `steps`."""
    data = ds.synthesize(m * BATCHES * BATCH_SIZE, d, seed=1)
    part = ds.partition(data, m, BATCHES, seed=1)
    # small moduli keep kappa_f >= 1 at every (m, d) of the sweep
    prob = ds.RobustLRProblem(data, part, lam=0.01, beta=0.01, R_x=20.0, R_y=1.0)
    g = _graph(ds, m)
    rng = np.random.default_rng(2)
    x0 = 0.1 * rng.standard_normal((m, d))
    Z0 = np.array([x0, 0.01 * rng.standard_normal((m, d))])
    st = None
    if kind != "gsgo":
        st = ds.SvrgState.initialize(prob, Z0, p=1.0 / BATCHES)
    refresh = ds.svrgo_update_reference
    comp = ds.Compressor(kind="quantize_inf", bits=4, delta=0.05)
    params = ds.StepParams(
        s=1e-3, gamma_x=0.02, gamma_y=0.02, alpha_x=0.2, alpha_y=0.2, delta=0.05
    )
    ens = ds.NodeEnsemble.initialize(g, Z0)
    rng = np.random.default_rng(3)
    guard = ds.problem.overflow_guard
    if st is None:
        draw = ds.gsgo_draw(prob, ens.Z, rng)
    else:
        draw = ds.svrgo_draw(prob, ens.Z, st, rng)
    step = ds.step_plan(ens, params, g, draw, prob, comp, rng)

    def timed(steps):
        with guard():
            t0 = time.perf_counter()
            for _ in range(steps):
                step()
                if st is not None:
                    refresh(st, prob, ens.Z, rng)
            dt = time.perf_counter() - t0
        return dt / steps * 1e6

    timed(WARMUP)
    return timed


def time_cells(trees, m, d, kind, steps, repeats):
    """Median us/step of one cell in each tree, alternating the trees
    repeat by repeat."""
    cells = [make_cell(ds, m, d, kind) for ds in trees]
    per_step = [[] for _ in trees]
    for r in range(repeats):
        order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
        for k in order:
            per_step[k].append(cells[k](steps))
    return [statistics.median(v) for v in per_step]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--against", metavar="SRC",
                    help="directory holding another decsaddle package")
    args = ap.parse_args(argv)
    trees = [decsaddle]
    head = f"{'m':>4} {'d':>4} {'oracle':>6} {'us/step':>9}"
    if args.against:
        trees.append(load_tree(args.against))
        head += f" {'against':>9} {'ratio':>6}"
    print(head)
    for m in NODES:
        for d in DIMS:
            for kind in ("gsgo", "svrgo"):
                us = time_cells(trees, m, d, kind, args.steps, args.repeats)
                row = f"{m:>4} {d:>4} {kind:>6} {us[0]:>9.1f}"
                if args.against:
                    row += f" {us[1]:>9.1f} {us[1] / us[0]:>6.3f}"
                print(row, flush=True)


if __name__ == "__main__":
    main()
