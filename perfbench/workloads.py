"""The benchmark's workloads and the inputs each one generates from a seed.

Every input is a function of the workload seed alone: the synthetic data
seed is the workload seed, the run seed (partition shuffle, oracle and
quantizer draws) is the workload seed plus 10, so seed 1 gives the
README config (with a smaller iteration budget).  README.md next to this
file says why each workload exists.
"""

from __future__ import annotations

import json
import os

PROBLEM = {"R_x": 20.0, "R_y": 1.0}


def _desk(seed):
    return {
        "algorithm": "cdpsvrg",
        "topology": {"kind": "ring", "m": 4},
        "dataset": {"kind": "synthetic", "N": 200, "d": 10, "seed": seed},
        "partition": {"n": 5, "mode": "shuffled"},
        "problem": {"lambda": 12.5, "beta": 12.5, **PROBLEM},
        "compression": {"kind": "qinf", "bits": 4, "delta": "auto"},
        "budget": {"iterations": 6500},
        "log": {"stride": 10},
        "reference": {"compute": {"iterations": 400_000, "tol": 1e-22}},
    }


def _scale64(seed):
    return {
        "algorithm": "crdpsg",
        "topology": {"kind": "torus", "rows": 8, "cols": 8},
        "dataset": {"kind": "synthetic", "N": 1280, "d": 10, "seed": seed},
        "partition": {"n": 5, "mode": "shuffled"},
        # lambda = 12.5 makes kappa_f < 1 at m = 64; 1.5 is about the
        # largest value the per-batch constants admit (see README.md)
        "problem": {"lambda": 1.5, "beta": 1.5, **PROBLEM},
        # above the 4-bit worst case (about 0.034 at d = 10), and numeric,
        # so this workload runs no delta estimation
        "compression": {"kind": "qinf", "bits": 4, "delta": 0.05},
        "budget": {"stages": 1},
        "log": {"stride": 1},
        "reference": {"compute": {"iterations": 5000, "tol": 1e-14}},
    }


# name -> (config builder, stored reference?, nodes m, convergence gate)
WORKLOADS = {
    "desk": (_desk, False, 4, 1e-12),
    "scale64": (_scale64, True, 64, None),
}


def prepare(name: str, seed: int, workdir: str):
    """Write the run config and its inputs into workdir.

    Paths in the configs are relative to workdir, where the CLI runs.
    Returns (run config, reference config or None, input record); the
    record's "files" are the files a run reads.  The reference config, when
    given, is run with `decsaddle reference` first: it writes the stored
    reference point that the run config reads.
    """
    build, stored, m, _ = WORKLOADS[name]
    cfg = build(seed)
    cfg["seed"] = seed + 10
    cfg["log"]["output"] = "trace.csv"
    inputs = {"m": m, "files": ["run.json"],
              "samples": cfg["dataset"]["N"], "features": cfg["dataset"]["d"]}
    ref_name = None
    if stored:
        ref_name = "reference.json"
        ref_cfg = dict(cfg, algorithm="reference", log={"output": "zstar.txt"})
        _dump(ref_cfg, os.path.join(workdir, ref_name))
        cfg["reference"] = {"path": "zstar.txt"}
        inputs["files"].append("zstar.txt")
    _dump(cfg, os.path.join(workdir, "run.json"))
    return "run.json", ref_name, inputs


def _dump(cfg, path):
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2)
        fh.write("\n")
