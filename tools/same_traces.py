"""Check that two source trees write byte-identical outputs on the benchmark's
workloads.

    python3 tools/same_traces.py --against SRC [--seeds 1-10]
                                 [--workloads desk,scale64]

For every workload and seed it writes the workload's inputs with
`prepare` from perfbench/workloads.py (read, not changed), once per tree,
into a fresh temporary directory.  It then runs, in each tree,
`decsaddle reference` where the workload stores a reference point, and
`decsaddle run`, each as a `python3 -m decsaddle.cli` process that imports
the package from that tree, with BLAS/OpenMP threads at 1.  This tree is
the `src/` next to this script; SRC is another tree's `src/` (for example
a checkout of the parent commit).  It compares `zstar.txt`, `trace.csv`
and `trace.csv.meta` byte for byte, in that order, workload by workload
and seed by seed.

It names every file that differs on stderr, one line each, and prints
the count of identical files.  A differing trace.csv of the same header
and row count is named with the columns whose values differ in some
row, as in `desk seed 1: trace.csv differs in dist_sq`, and a differing
trace.csv.meta, where both parse as JSON, with the dotted paths of the
values that differ, as in `desk seed 1: trace.csv.meta differs in
platform.cpu_features`.  Exits 0 if every file matches, and 1 if any differs or at the first command that
fails, naming it.  --seeds takes one seed or a range such as 1-10;
--workloads takes names separated by commas.
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTPUTS = ("zstar.txt", "trace.csv", "trace.csv.meta")


def parse_seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def outputs(src: str, prepare, workload: str, seed: int) -> dict:
    """The outputs of the workload's commands at seed, run in the tree
    src: {file name: bytes}; raises SystemExit naming a failed command."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryDirectory() as workdir:
        run_cfg, ref_cfg, _ = prepare(workload, seed, workdir)
        commands = [("run", run_cfg)]
        if ref_cfg is not None:
            commands.insert(0, ("reference", ref_cfg))
        for command, cfg in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "decsaddle.cli", command, cfg],
                cwd=workdir, env=env, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                raise SystemExit(
                    f"{workload} seed {seed}: `{command}` exited "
                    f"{proc.returncode} in {src}: {proc.stderr.strip()}"
                )
        found = {}
        for name in OUTPUTS:
            path = os.path.join(workdir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    found[name] = fh.read()
        return found


def differing_columns(ours: bytes, theirs: bytes) -> str:
    """` in a, b`, the columns of two CSV traces whose values differ in
    some row, or "" if the traces differ in their header or row count, or
    in nothing but the separators."""
    a, b = (text.decode().splitlines() for text in (ours, theirs))
    if len(a) != len(b) or a[0] != b[0]:
        return ""
    rows = [(ra.split(","), rb.split(",")) for ra, rb in zip(a[1:], b[1:])]
    columns = [
        name for k, name in enumerate(a[0].split(","))
        if any(ra[k:k + 1] != rb[k:k + 1] for ra, rb in rows)
    ]
    return " in " + ", ".join(columns) if columns else ""


def _fields(obj, path: str = "") -> dict:
    """{dotted path: value} of every value under a JSON object that is not
    itself an object; a list is one value."""
    if not isinstance(obj, dict):
        return {path: obj}
    found = {}
    for key, value in obj.items():
        found.update(_fields(value, f"{path}.{key}" if path else key))
    return found


def differing_fields(ours: bytes, theirs: bytes) -> str:
    """` in a.b, c`, the dotted paths of the values in which two JSON
    documents differ, a path that one lacks included, or "" if either is
    not JSON or they differ in nothing but their formatting."""
    try:
        a, b = (_fields(json.loads(text)) for text in (ours, theirs))
    except ValueError:
        return ""
    missing = object()
    paths = [p for p in {**a, **b} if a.get(p, missing) != b.get(p, missing)]
    return " in " + ", ".join(paths) if paths else ""


DETAIL = {"trace.csv": differing_columns, "trace.csv.meta": differing_fields}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="SRC", required=True,
                    help="directory holding another decsaddle package")
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--workloads", default="desk,scale64")
    args = ap.parse_args(argv)
    prepare = runpy.run_path(os.path.join(ROOT, "perfbench", "workloads.py"))["prepare"]
    trees = (os.path.join(ROOT, "src"), args.against)
    same = differ = 0
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            ours, theirs = (outputs(src, prepare, workload, seed) for src in trees)
            for name in OUTPUTS:
                if ours.get(name) != theirs.get(name):
                    where = ""
                    if name in DETAIL and name in ours and name in theirs:
                        where = DETAIL[name](ours[name], theirs[name])
                    print(f"{workload} seed {seed}: {name} differs{where}",
                          file=sys.stderr)
                    differ += 1
                elif name in ours:
                    same += 1
    print(f"{same} files identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
