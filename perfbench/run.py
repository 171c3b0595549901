"""Benchmark of `decsaddle run`: one CLI process per sample, closed loop.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout (the directory holding `src/`).
The benchmark prepares the workload's inputs from --seed (untimed),
then launches `decsaddle run` processes one after another, each only
after the previous one exits, for about --seconds seconds (at least
MIN_RUNS of them).  Every process runs with BLAS/OpenMP threads pinned
to 1.

--trace 0 reports the end-to-end metrics as medians over the processes.
--trace 1 also runs TRACED_RUNS processes in which every layer's public
functions are wrapped (see child.py) and reports the per-layer metrics;
their counts must repeat exactly between the traced processes.

Every process is checked: exit code 0 and no traceback, a well-formed
trace CSV with finite distances and nondecreasing counters, a readable
`.meta`, a trace byte-identical to the first process of the run, and on
`desk` a final dist_sq at or below 1e-12.  The last stdout line is the
JSON result; the lines before it describe the machine and each process.
Work files go to .perfbench_work/ under the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from workloads import WORKLOADS, prepare

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
MIN_RUNS = 3
TRACED_RUNS = 2
CHILD_TIMEOUT_S = 60.0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HEADER = "iter,grad_units,comm_rounds,bits,dist_sq"
TOL = 1e-12


class ChildResult:
    """One finished CLI process: timings, resource use and what it wrote."""

    def __init__(self, traced, t_spawn, t_exit, code, rusage, record, stderr):
        self.traced = traced
        self.run_s = t_exit - t_spawn
        self.t_spawn = t_spawn
        self.code = code
        self.peak_rss_mb = rusage.ru_maxrss * 1024 / 1e6
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.record = record
        self.stderr = stderr
        self.errors = []
        self.trace_bytes = b""
        self.rows = []


def spawn(argv, cwd, env, traced, out_json):
    """Run one child to completion; its peak RSS comes from wait4."""
    with open(os.path.join(cwd, "stdout.txt"), "wb") as so, open(
        os.path.join(cwd, "stderr.txt"), "wb"
    ) as se:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=so, stderr=se)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
            t_exit = time.monotonic()
        finally:
            watchdog.cancel()
            watchdog.join()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(os.path.join(cwd, "stderr.txt"), errors="replace") as fh:
        stderr = fh.read()
    record = {}
    if os.path.exists(out_json):
        with open(out_json) as fh:
            record = json.load(fh)
        os.remove(out_json)
    return ChildResult(traced, t_spawn, t_exit, code, rusage, record, stderr)


def parse_trace(text):
    """Rows of a trace CSV as (iter, grad_units, comm_rounds, bits, dist_sq);
    raises ValueError when the file is malformed or breaks an invariant."""
    lines = text.split("\n")
    if lines[0] != HEADER or lines[-1] != "":
        raise ValueError("bad header or missing final newline")
    rows = []
    for line in lines[1:-1]:
        f = line.split(",")
        if len(f) != 5:
            raise ValueError(f"row {line!r} has {len(f)} fields")
        row = tuple(int(v) for v in f[:4]) + (float(f[4]),)
        if not math.isfinite(row[4]):
            raise ValueError(f"non-finite dist_sq in row {line!r}")
        if rows:
            prev = rows[-1]
            if row[0] <= prev[0] or any(row[k] < prev[k] for k in (1, 2, 3)):
                raise ValueError(f"counters decrease at row {line!r}")
        rows.append(row)
    if not rows:
        raise ValueError("no rows")
    return rows


def check(res, workdir, src, first, gate):
    """Append every failed correctness condition of res to res.errors."""
    e = res.errors
    if res.code != 0:
        e.append(f"exit code {res.code}")
    if "Traceback" in res.stderr:
        e.append("traceback on stderr")
    mod = res.record.get("module_file", "")
    if not mod.startswith(src + os.sep):
        e.append(f"decsaddle imported from {mod!r}, not from {src}")
    if "solver_entry" not in res.record or "solver_exit" not in res.record:
        e.append("solver entry point was not reached")
    if e:
        return
    try:
        with open(os.path.join(workdir, "trace.csv"), "rb") as fh:
            res.trace_bytes = fh.read()
        res.rows = parse_trace(res.trace_bytes.decode())
        with open(os.path.join(workdir, "trace.csv.meta")) as fh:
            json.load(fh)
    except (OSError, ValueError) as exc:
        e.append(f"malformed output: {exc}")
        return
    if first is not None and res.trace_bytes != first.trace_bytes:
        e.append("trace differs from the first run of this seed")
    if gate is not None and res.rows[-1][4] > gate:
        e.append(f"final dist_sq {res.rows[-1][4]:.3e} above {gate:g}")


def source_digest(src):
    """Short SHA-256 over the file names and contents under src."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def calibrate():
    """Fixed loop of small NumPy calls, like the solvers' inner loops.

    Reported beside the results to show machine-speed drift; nothing is
    normalised by it."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((200, 10))
    times = []
    for _ in range(3):
        x = np.ones(10)
        t0 = time.monotonic()
        for _ in range(20_000):
            x = np.tanh(A.T @ (A @ x) * 1e-3)
        times.append(time.monotonic() - t0)
    return statistics.median(times)


def machine_record(root, src):
    from importlib import metadata

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # NumPy before 1.26 has no dict mode
        blas = {"name": "unknown"}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": source_digest(src),
        "thread_pinning": PINNED,
    }


def median(values):
    return statistics.median(values) if values else 0.0


ALL = ("setup", "solve", "post")
SOLVE = ("solve",)


def layer_metrics(res, m, input_bytes, trace_len):
    """Per-layer metrics of one traced process, as {name: (value, unit)}.

    Per-step layers count the solve phase only; set-up layers count every
    phase (README.md explains the split)."""
    rec = res.record
    agg = {(name, phase): v for name, phase, *v in rec["trace"]["agg"]}
    top = rec["trace"]["top"]

    def span(name, phases=ALL):
        """(calls, inclusive seconds, self seconds) of name over phases."""
        found = [agg[(name, ph)] for ph in phases if (name, ph) in agg]
        return tuple(sum(col) for col in zip(*found)) if found else (0, 0.0, 0.0)

    def per_call_us(name):
        calls, secs, _ = span(name, SOLVE)
        return 1e6 * secs / calls if calls else 0.0

    steps, grad_units, rounds, bits, _ = res.rows[-1]
    dists = [r[4] for r in res.rows]
    hit = next((r for r in res.rows if r[4] <= TOL), (-1, -1, -1, -1))
    solve_s = rec["solver_exit"] - rec["solver_entry"]
    phases = {
        "cli.import_s": rec["import_done"] - res.t_spawn,
        "cli.dataset_s": top.get("cli.build_dataset", 0.0),
        "cli.problem_s": top.get("cli.build_problem", 0.0),
        "cli.graph_s": top.get("cli.build_graph", 0.0),
        "cli.compressor_s": top.get("cli.build_compressor", 0.0),
        "cli.reference_s": top.get("cli.resolve_reference", 0.0),
        "cli.post_s": rec.get("cmd_run_exit", rec["solver_exit"]) - rec["solver_exit"],
    }
    builds = ("build_dataset", "build_problem", "build_graph", "build_compressor")
    out = {k: (v, "s") for k, v in phases.items()}
    out.update({
        "cli.other_s": (res.run_s - solve_s - sum(phases.values()), "s"),
        "cli.builds": (sum(span("cli." + b)[0] for b in builds), "count"),
        "data.load_s": (span("data.parse_libsvm")[1] + span("data.synthesize")[1], "s"),
        "data.load_calls": (span("data.parse_libsvm")[0] + span("data.synthesize")[0], "count"),
        "data.partition_s": (span("data.partition")[1], "s"),
        "data.input_mb": (input_bytes / 1e6, "MB"),
        "topology.spectral_s": (span("topology.spectral")[1], "s"),
        "topology.spectral_calls": (span("topology.spectral")[0], "count"),
        "topology.mix_s": (span("topology.mix", SOLVE)[1], "s"),
        "topology.mix_calls": (span("topology.mix", SOLVE)[0], "count"),
        "compression.quantize_s": (span("compression.quantize_inf", SOLVE)[1], "s"),
        "compression.quantize_calls": (span("compression.quantize_inf", SOLVE)[0], "count"),
        "compression.comm_step_self_s": (span("compression.comm_step", SOLVE)[2], "s"),
        "compression.estimate_delta_s": (span("compression.estimate_delta")[1], "s"),
        "compression.estimate_delta_calls": (span("compression.estimate_delta")[0], "count"),
        "compression.bits_per_step": (bits / steps, "bit"),
        "compression.comm_rounds": (rounds, "count"),
        "problem.build_s": (span("problem.build")[1], "s"),
        "problem.grad_batch_s": (span("problem.grad_batch", SOLVE)[1], "s"),
        "problem.grad_batch_calls": (span("problem.grad_batch", SOLVE)[0], "count"),
        "problem.grad_batch_us": (per_call_us("problem.grad_batch"), "us"),
        "problem.grad_full_calls": (span("problem.grad_full", SOLVE)[0], "count"),
        "problem.prox_s": (span("problem.prox", SOLVE)[1], "s"),
        "problem.prox_calls": (span("problem.prox", SOLVE)[0], "count"),
        "oracles.sample_self_s": (span("oracles.sample", SOLVE)[2], "s"),
        "oracles.sample_calls": (span("oracles.sample", SOLVE)[0], "count"),
        "oracles.refresh_s": (span("oracles.refresh", SOLVE)[1], "s"),
        "oracles.refresh_fired": (span("oracles.refresh.fired", SOLVE)[0], "count"),
        "oracles.refresh_draws": (span("oracles.refresh", SOLVE)[0], "count"),
        "oracles.grad_units_per_step": (grad_units / steps, "count"),
        "ipdhg.steps": (span("ipdhg.step", SOLVE)[0], "count"),
        "ipdhg.step_us": (per_call_us("ipdhg.step"), "us"),
        "ipdhg.step_self_s": (span("ipdhg.step", SOLVE)[2], "s"),
        "ipdhg.node_steps": (m * steps, "count"),
        "solvers.solve_s": (solve_s, "s"),
        "solvers.reference_s": (span("solvers.compute_reference")[1], "s"),
        "solvers.grad_units": (grad_units, "count"),
        "solvers.final_dist_sq": (dists[-1], "1"),
        "solvers.min_dist_sq": (min(dists), "1"),
        "solvers.iters_to_tol": (hit[0], "count"),
        "solvers.grad_units_to_tol": (hit[1], "count"),
        "solvers.bits_to_tol": (hit[3], "bit"),
        "metrics.log_s": (span("metrics.distance", SOLVE)[1] + span("metrics.log", SOLVE)[1], "s"),
        "metrics.log_calls": (span("metrics.log", SOLVE)[0], "count"),
        "metrics.csv_s": (span("metrics.to_csv")[1], "s"),
        "metrics.trace_kb": (trace_len / 1e3, "kB"),
    })
    return out


COUNT_UNITS = ("count", "bit")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "decsaddle", "cli.py")):
        print(f"no decsaddle sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2

    _, _, m, gate = WORKLOADS[args.workload]
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED)
    out_json = os.path.join(workdir, "child.json")

    def child(cli_args, traced=False):
        for stale in ("trace.csv", "trace.csv.meta"):
            if os.path.exists(os.path.join(workdir, stale)):
                os.remove(os.path.join(workdir, stale))
        argv = [sys.executable, CHILD, "--src", src, "--out", out_json]
        argv += (["--trace"] if traced else []) + ["--", *cli_args]
        return spawn(argv, workdir, env, traced, out_json)

    # untimed preparation: bytecode, inputs, stored reference point
    compileall.compile_dir(src, quiet=1)
    run_cfg, ref_cfg, inputs = prepare(args.workload, args.seed, workdir)
    if ref_cfg is not None:
        ref = child(["reference", ref_cfg])
        if ref.code != 0:
            print(f"reference preparation failed (exit {ref.code}):\n{ref.stderr}",
                  file=sys.stderr)
            return 1
    inputs["input_bytes"] = sum(
        os.path.getsize(os.path.join(workdir, f)) for f in inputs.pop("files"))

    machine = machine_record(root, src)
    machine["calibration_before_s"] = calibrate()

    plan = ["plain"] + ["traced"] * TRACED_RUNS if args.trace else ["plain"] * MIN_RUNS
    results = []
    first = None
    t0 = time.monotonic()
    while True:
        kind = plan[len(results)] if len(results) < len(plan) else "plain"
        res = child(["run", run_cfg], traced=(kind == "traced"))
        check(res, workdir, src, first, gate)
        if first is None and res.rows:
            first = res
        results.append(res)
        elapsed = time.monotonic() - t0
        typical = median([r.run_s for r in results])
        if len(results) >= len(plan) and elapsed + typical > args.seconds:
            break
    machine["calibration_after_s"] = calibrate()
    trace_len = len(first.trace_bytes) if first else 0

    plain = [r for r in results if not r.traced and not r.errors]
    traced = [r for r in results if r.traced and not r.errors]
    layers = []
    for r in traced:
        try:
            found = layer_metrics(r, m, inputs["input_bytes"], trace_len)
        except KeyError as exc:
            r.errors.append(f"trace record incomplete: {exc!r}")
            continue
        if layers:
            r.errors += [
                f"count {name} differs between traced runs"
                for name, (v, unit) in layers[0].items()
                if unit in COUNT_UNITS and found[name][0] != v
            ]
        layers.append(found)

    failed = sum(1 for r in results if r.errors)
    end_to_end = {
        "run_s": (median([r.run_s for r in plain]), "s"),
        "setup_s": (median([r.record["solver_entry"] - r.t_spawn for r in plain]), "s"),
        "node_steps_per_s": (median([
            m * r.rows[-1][0] / (r.record["solver_exit"] - r.record["solver_entry"])
            for r in plain]), "1/s"),
        "peak_rss_mb": (median([r.peak_rss_mb for r in plain]), "MB"),
    }
    if args.trace:
        metrics = {}
        if layers:
            # counts repeat exactly (checked above); times are medians
            metrics = {
                n: (v if u in COUNT_UNITS else median([l[n][0] for l in layers]), u)
                for n, (v, u) in layers[0].items()
            }
            metrics["trace.overhead"] = (
                median([r.run_s for r in traced]) / end_to_end["run_s"][0]
                if plain else 0.0, "ratio")
    else:
        metrics = end_to_end

    for i, r in enumerate(results):
        status = "ok" if not r.errors else "FAILED: " + "; ".join(r.errors)
        print(f"process {i} ({'traced' if r.traced else 'plain'}): "
              f"run_s={r.run_s:.4f} cpu_s={r.cpu_s:.4f} rss_mb={r.peak_rss_mb:.1f} {status}")
    absent = traced[0].record["trace"]["absent"] if traced else []
    detail = {
        "workload": args.workload, "seed": args.seed, "inputs": inputs,
        "machine": machine, "runs_failed": failed, "absent": absent,
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
    }
    print("detail: " + json.dumps(detail))
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump({**detail, "metrics": {k: v[0] for k, v in metrics.items()}}, fh, indent=1)
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
