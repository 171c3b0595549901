"""Median microseconds per IPDHG step over node count, dimension and oracle.

    python3 tools/step_sweep.py [--steps 300] [--repeats 10] [--against SRC]

For every m in {4, 16, 64} (a ring at m = 4, a square torus otherwise) and
d in {10, 100} it builds a synthetic robust logistic regression problem
(n = 5 batches of 8 samples per node) and times the step the solvers run
with 4-bit quantized gossip: a `step_plan` bound once per cell, with the
oracles' bound draw, once with the minibatch oracle (GSGO) and once with
the variance-reduced oracle (SVRGO).  Every cell steps under the tree's own
`cdpsvrg_params` record for its problem, graph spectrum, delta and p =
1/n, so the script reads no record field and runs against any tree with
that signature.  Each tree's graph and spectrum are built once per m and
shared by that m's cells.  The SVRGO cell runs as the
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
see the same machine state; a row adds the other tree's median, the
ratio against / this (above 1: this tree is faster), and in how many
repeats the other tree won (ran faster).  A ratio ends in `?`,
unresolved, unless the exact two-sided sign test on the won and lost
repeats (ties dropped) gives p <= 0.05 / 12, a Bonferroni correction over
the sweep's 12 cells (`resolved`): at 10 repeats only a 10-0 split
resolves, and below 9 repeats none can.  A tree that lacks a library
name the sweep calls is refused with one line naming what it lacks.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import math  # noqa: E402
import operator  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import numpy as np  # noqa: E402

import decsaddle  # noqa: E402

NODES = (4, 16, 64)
DIMS = (10, 100)
ORACLES = ("gsgo", "svrgo")
BATCHES, BATCH_SIZE = 5, 8
WARMUP = 20
# family-wise level of the sign test, split over the sweep's cells
LEVEL = 0.05 / (len(NODES) * len(DIMS) * len(ORACLES))
# the library names the sweep calls, looked up in every tree it times
NEEDS = ("synthesize", "partition", "RobustLRProblem", "problem.overflow_guard",
         "DecGraph", "spectral", "Quantizer", "cdpsvrg_params", "NodeEnsemble",
         "SvrgState", "svrgo_update_reference", "gsgo_draw", "svrgo_draw",
         "step_plan")


def _lacks(mod, name):
    """Whether mod has nothing at the dotted attribute path name."""
    try:
        operator.attrgetter(name)(mod)
    except AttributeError:
        return True
    return False


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
    missing = [need for need in NEEDS if _lacks(mod, need)]
    if missing:
        raise SystemExit(
            f"the decsaddle package under {src} lacks {', '.join(missing)}"
        )
    return mod


def network(ds, m):
    """The sweep's graph on m nodes in package ds, a ring at m = 4 and a
    square torus otherwise, with its spectrum."""
    g = ds.DecGraph((4,) if m == 4 else (round(m**0.5),) * 2)
    return g, ds.spectral(g)


def make_cell(ds, net, d, kind):
    """Build one sweep cell in package ds on the (graph, spectrum) pair
    net, run its warm-up, and return timed(steps) -> mean microseconds per
    step over the next `steps`."""
    g, spec = net
    m = g.m
    data = ds.synthesize(m * BATCHES * BATCH_SIZE, d, seed=1)
    part = ds.partition(data, m, BATCHES, seed=1)
    # small moduli keep kappa_f >= 1 at every (m, d) of the sweep
    prob = ds.RobustLRProblem(data, part, lam=0.01, beta=0.01, R_x=20.0, R_y=1.0)
    rng = np.random.default_rng(2)
    x0 = 0.1 * rng.standard_normal((m, d))
    Z0 = np.array([x0, 0.01 * rng.standard_normal((m, d))])
    st = None
    if kind != "gsgo":
        st = ds.SvrgState.initialize(prob, Z0, p=1.0 / BATCHES)
    refresh = ds.svrgo_update_reference
    comp = ds.Quantizer(bits=4, delta=0.05)
    params = ds.cdpsvrg_params(prob.constants, comp.delta, spec, 1 / BATCHES)
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


def resolved(won: int, lost: int) -> bool:
    """Whether won against lost repeats (ties dropped) tells the trees
    apart: the exact two-sided sign test's p-value, the chance under a
    fair coin of a split at least as uneven, is at most LEVEL."""
    n = won + lost
    tail = sum(math.comb(n, k) for k in range(min(won, lost) + 1))
    return min(1.0, 2.0 * tail / 2.0**n) <= LEVEL


def time_cells(trees, nets, d, kind, steps, repeats):
    """us/step of one cell in each tree, on that tree's network, one list
    per tree with one entry per repeat, alternating the trees repeat by
    repeat."""
    cells = [make_cell(ds, net, d, kind) for ds, net in zip(trees, nets)]
    per_step = [[] for _ in trees]
    for r in range(repeats):
        order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
        for k in order:
            per_step[k].append(cells[k](steps))
    return per_step


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--repeats", type=int, default=10)
    ap.add_argument("--against", metavar="SRC",
                    help="directory holding another decsaddle package")
    args = ap.parse_args(argv)
    trees = [decsaddle]
    head = f"{'m':>4} {'d':>4} {'oracle':>6} {'us/step':>9}"
    if args.against:
        trees.append(load_tree(args.against))
        head += f" {'against':>9} {'ratio':>7} {'won':>5}"
    print(head)
    for m in NODES:
        nets = [network(ds, m) for ds in trees]
        for d in DIMS:
            for kind in ORACLES:
                per_step = time_cells(trees, nets, d, kind, args.steps, args.repeats)
                us = [statistics.median(v) for v in per_step]
                row = f"{m:>4} {d:>4} {kind:>6} {us[0]:>9.1f}"
                if args.against:
                    won = sum(b < a for a, b in zip(*per_step))
                    lost = sum(a < b for a, b in zip(*per_step))
                    mark = "" if resolved(won, lost) else "?"
                    ratio = f"{us[1] / us[0]:.3f}{mark}"
                    row += f" {us[1]:>9.1f} {ratio:>7} {won:>2}/{args.repeats}"
                print(row, flush=True)


if __name__ == "__main__":
    main()
