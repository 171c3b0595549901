"""One `decsaddle` CLI process, as the benchmark launches it.

    python3 perfbench/child.py --src SRC --out OUT.json [--trace] -- run CONFIG

Puts SRC first on sys.path, imports `decsaddle.cli` and calls its `main`
with the arguments after `--`, exactly as the `decsaddle` console script
does.  Nothing under SRC is modified: all timing is done by replacing
names where the package looks them up.

Without --trace only the solver entry point (`run_cdpsvrg` /
`run_crdpsg`, as bound in `decsaddle.cli`) is wrapped, and the clock is
read only at its entry and exit.  With --trace every target in TARGETS is
wrapped; spans are kept on a stack so that each one's self time excludes
its traced children.  Counts and times are aggregated per (name, phase)
in memory, where the phase is "setup" before the solver starts, "solve"
while it runs and "post" after it returns, and written to OUT at exit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

# (span name, module, attribute[, method]).  Module-level names are wrapped
# in the module that looks them up, so a call is seen whichever module
# defines the function; methods are wrapped on their class.  A target whose
# module, attribute or method no longer exists is reported as absent.
TARGETS = [
    ("cli.cmd_run", "decsaddle.cli", "cmd_run"),
    ("cli.build_dataset", "decsaddle.cli", "build_dataset"),
    ("cli.build_problem", "decsaddle.cli", "build_problem"),
    ("cli.build_graph", "decsaddle.cli", "build_graph"),
    ("cli.build_compressor", "decsaddle.cli", "build_compressor"),
    ("cli.resolve_reference", "decsaddle.cli", "resolve_reference"),
    ("solvers.run_cdpsvrg", "decsaddle.cli", "run_cdpsvrg"),
    ("solvers.run_crdpsg", "decsaddle.cli", "run_crdpsg"),
    ("solvers.compute_reference", "decsaddle.cli", "compute_reference"),
    ("data.parse_libsvm", "decsaddle.data", "parse_libsvm"),
    ("data.synthesize", "decsaddle.data", "synthesize"),
    ("data.partition", "decsaddle.data", "partition"),
    ("topology.spectral", "decsaddle.cli", "spectral"),
    ("topology.mix", "decsaddle.compression", "mix"),
    ("topology.mix", "decsaddle.solvers", "mix"),
    ("compression.quantize_inf", "decsaddle.compression", "quantize_inf"),
    ("compression.comm_step", "decsaddle.ipdhg", "comm_step"),
    ("compression.estimate_delta", "decsaddle.cli", "estimate_delta"),
    ("problem.build", "decsaddle.problem", "RobustLRProblem", "__init__"),
    ("problem.grad_batch", "decsaddle.problem", "RobustLRProblem", "grad_batch"),
    ("problem.grad_full", "decsaddle.problem", "RobustLRProblem", "grad_full"),
    ("problem.prox", "decsaddle.problem", "RobustLRProblem", "prox_primal"),
    ("problem.prox", "decsaddle.problem", "RobustLRProblem", "prox_dual"),
    ("oracles.sample", "decsaddle.solvers", "gsgo_sample"),
    ("oracles.sample", "decsaddle.solvers", "svrgo_sample"),
    ("oracles.refresh", "decsaddle.solvers", "svrgo_update_reference"),
    ("ipdhg.step", "decsaddle.solvers", "ipdhg_step"),
    ("metrics.distance", "decsaddle.solvers", "distance_to_saddle"),
    ("metrics.log", "decsaddle.metrics", "Trace", "log"),
    ("metrics.to_csv", "decsaddle.metrics", "Trace", "to_csv"),
]

SOLVER_NAMES = ("run_cdpsvrg", "run_crdpsg")
SOLVER_SPANS = {"solvers." + n for n in SOLVER_NAMES}
ROOT = "cli.cmd_run"
REFRESH = "oracles.refresh"


class Tracer:
    """Span stack plus per-(name, phase) aggregates [calls, total, self]."""

    def __init__(self):
        self.stack = []  # [name, time covered by traced children]
        self.agg = {}
        self.top = {}  # setup-phase time of spans whose parent is ROOT
        self.phase = "setup"
        self.marks = {}
        self.absent = []

    def wrap(self, name, fn):
        clock = time.monotonic
        stack = self.stack

        def traced(*args, **kwargs):
            if name in SOLVER_SPANS:
                self.marks["solver_entry"] = clock()
                self.phase = "solve"
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                key = (name, self.phase)
                a = self.agg.get(key)
                if a is None:
                    a = self.agg[key] = [0, 0.0, 0.0]
                a[0] += 1
                a[1] += dt
                a[2] += dt - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    if parent[0] == ROOT and self.phase == "setup":
                        self.top[name] = self.top.get(name, 0.0) + dt
                if name in SOLVER_SPANS:
                    self.marks["solver_exit"] = clock()
                    self.phase = "post"
                elif name == ROOT:
                    self.marks["cmd_run_exit"] = clock()
            if name == REFRESH and isinstance(out, tuple) and out[-1]:
                # a refresh that fired reports its gradient cost
                self.agg.setdefault((REFRESH + ".fired", self.phase), [0, 0.0, 0.0])[0] += 1
            return out

        return traced

    def install(self):
        for target in TARGETS:
            name, modname, attr = target[:3]
            label = ".".join(target[1:])
            try:
                owner = importlib.import_module(modname)
                if len(target) == 4:
                    owner = getattr(owner, attr)
                    attr = target[3]
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            setattr(owner, attr, self.wrap(name, fn))

    def dump(self):
        return {
            "agg": [[n, ph, *v] for (n, ph), v in sorted(self.agg.items())],
            "top": self.top,
            "absent": self.absent,
        }


def install_solver_clock(cli, marks):
    """Untraced mode: read the clock at solver entry and exit only."""

    def wrap(fn):
        def timed(*args, **kwargs):
            marks["solver_entry"] = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                marks["solver_exit"] = time.monotonic()

        return timed

    for name in SOLVER_NAMES:
        if hasattr(cli, name):
            setattr(cli, name, wrap(getattr(cli, name)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    sys.path.insert(0, os.path.abspath(args.src))

    import decsaddle.cli as cli

    record = {"module_file": os.path.abspath(cli.__file__)}
    if args.trace:
        record["import_done"] = time.monotonic()
        tracer = Tracer()
        tracer.install()
        marks = tracer.marks
    else:
        marks = {}
        install_solver_clock(cli, marks)
    code = cli.main(argv)
    record.update(marks)
    record["exit_code"] = code
    if args.trace:
        record["trace"] = tracer.dump()
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
