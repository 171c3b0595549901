"""Configuration-driven experiment runner.

Commands: run <config>, validate <config>, reference <config>.
Configs are strict JSON: unknown keys, wrong types and out-of-range
values are errors.  Exit codes: 0 ok, 2 config error, 3 infeasible
parameters, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import data as data_mod
from .compression import (
    MAX_BITS,
    Compressor,
    InfeasibleParameterError,
    identity_compressor,
    quantizer_delta,
)
from .problem import RobustLRProblem
from .solvers import (
    cdpsvrg_params,
    compute_reference,
    crdpsg_stage_params,
    run_cdpsvrg,
    run_crdpsg,
)
from .topology import DecGraph, build_ring, build_torus, spectral

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    pass


def _require(d: dict, path: str, allowed: set, required: set):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object, got {d!r}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")


def _integer(d: dict, path: str, key: str, lo: int, hi: int | None = None) -> int:
    v = d[key]
    if (
        isinstance(v, bool) or not isinstance(v, int) or v < lo
        or (hi is not None and v > hi)
    ):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{path}.{key} must be an integer {bound}, got {v!r}")
    return v


def _number(d: dict, path: str, key: str, positive: bool = False) -> float:
    # json.load accepts NaN and Infinity, which no setting admits
    v = d[key]
    numeric = isinstance(v, (int, float)) and not isinstance(v, bool)
    if not numeric or not math.isfinite(v) or (positive and not v > 0):
        kind = "a positive finite number" if positive else "a finite number"
        raise ConfigError(f"{path}.{key} must be {kind}, got {v!r}")
    return v


def _string(d: dict, path: str, key: str) -> str:
    if not isinstance(d[key], str):
        raise ConfigError(f"{path}.{key} must be a string, got {d[key]!r}")
    return d[key]


# the budget key each algorithm runs on; a reference solve caps its
# extragradient steps by budget.iterations and ignores stages
BUDGET_KEYS = {"crdpsg": {"stages"}, "cdpsvrg": {"iterations"}}


@dataclass
class RunConfig:
    algorithm: str
    topology: dict
    dataset: dict
    partition: dict
    problem: dict
    compression: dict
    oracle: dict
    budget: dict
    seed: int
    log: dict
    reference: dict

    @classmethod
    def parse(cls, raw: dict) -> "RunConfig":
        _require(
            raw,
            "<root>",
            allowed={
                "algorithm", "topology", "dataset", "partition", "problem",
                "compression", "oracle", "budget", "seed", "log", "reference",
            },
            required={
                "algorithm", "topology", "dataset", "partition", "problem",
                "compression", "budget", "seed",
            },
        )
        alg = raw["algorithm"]
        if alg not in ("crdpsg", "cdpsvrg", "reference"):
            raise ConfigError(f"algorithm: unknown value {alg!r}")
        topo = raw["topology"]
        _require(topo, "topology", {"kind", "m", "rows", "cols"}, {"kind"})
        if topo["kind"] == "ring":
            _require(topo, "topology", {"kind", "m"}, {"kind", "m"})
            _integer(topo, "topology", "m", 3)
        elif topo["kind"] == "torus":
            _require(topo, "topology", {"kind", "rows", "cols"}, {"kind", "rows", "cols"})
            _integer(topo, "topology", "rows", 3)
            _integer(topo, "topology", "cols", 3)
        else:
            raise ConfigError(f"topology.kind: unknown value {topo['kind']!r}")
        ds = raw["dataset"]
        _require(ds, "dataset", {"kind", "N", "d", "seed", "path"}, {"kind"})
        if ds["kind"] == "synthetic":
            _require(ds, "dataset", {"kind", "N", "d", "seed"}, {"kind", "N", "d", "seed"})
            _integer(ds, "dataset", "N", 1)
            _integer(ds, "dataset", "d", 1)
            _integer(ds, "dataset", "seed", 0)
        elif ds["kind"] == "libsvm":
            _require(ds, "dataset", {"kind", "path"}, {"kind", "path"})
            _string(ds, "dataset", "path")
        else:
            raise ConfigError(f"dataset.kind: unknown value {ds['kind']!r}")
        part = raw["partition"]
        _require(part, "partition", {"n", "mode"}, {"n"})
        _integer(part, "partition", "n", 1)
        if part.get("mode", "shuffled") not in ("shuffled", "sorted"):
            raise ConfigError(f"partition.mode: unknown value {part['mode']!r}")
        prob = raw["problem"]
        _require(
            prob, "problem",
            {"lambda", "beta", "R_x", "R_y"},
            {"lambda", "beta", "R_x", "R_y"},
        )
        for key in ("lambda", "beta", "R_x", "R_y"):
            _number(prob, "problem", key, positive=True)
        comp = raw["compression"]
        _require(comp, "compression", {"kind", "bits", "delta"}, {"kind"})
        if comp["kind"] == "identity":
            _require(comp, "compression", {"kind"}, {"kind"})
        elif comp["kind"] == "qinf":
            _require(comp, "compression", {"kind", "bits", "delta"}, {"kind", "bits"})
            _integer(comp, "compression", "bits", 1, MAX_BITS)
            if comp.get("delta", "auto") != "auto":
                _number(comp, "compression", "delta")
        else:
            raise ConfigError(f"compression.kind: unknown value {comp['kind']!r}")
        oracle = raw.get("oracle", {})
        _require(oracle, "oracle", {"p"}, set())
        if "p" in oracle:
            _number(oracle, "oracle", "p")
        budget = raw["budget"]
        keys = BUDGET_KEYS.get(alg, {"iterations", "stages"})
        _require(budget, "budget", keys, BUDGET_KEYS.get(alg, set()))
        if not budget:
            raise ConfigError("budget: need iterations or stages")
        for key in budget:
            _integer(budget, "budget", key, 1)
        seed = _integer(raw, "<root>", "seed", 0)
        log = raw.get("log", {})
        _require(log, "log", {"stride", "output"}, set())
        if "stride" in log:
            _integer(log, "log", "stride", 1)
        if "output" in log:
            _string(log, "log", "output")
        ref = raw.get("reference", {})
        _require(ref, "reference", {"path", "compute"}, set())
        if "path" in ref:
            _string(ref, "reference", "path")
        compute = ref.get("compute", {})
        _require(compute, "reference.compute", {"iterations", "tol"}, set())
        if "iterations" in compute:
            _integer(compute, "reference.compute", "iterations", 1)
        if "tol" in compute:
            _number(compute, "reference.compute", "tol", positive=True)
        if alg != "reference" and not ref:
            raise ConfigError(
                "reference: need a stored path or a compute section for "
                "trace distances"
            )
        return cls(
            algorithm=alg, topology=topo, dataset=ds, partition=part,
            problem=prob, compression=comp, oracle=oracle, budget=budget,
            seed=seed, log=log, reference=ref,
        )


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    return RunConfig.parse(raw)


def _builder(fn):
    """Builder errors come from the config's values: a ValueError or
    OSError becomes a ConfigError (exit 2), while infeasible derived
    parameters keep their own exit code."""

    @functools.wraps(fn)
    def build_step(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, InfeasibleParameterError):
            raise
        except (ValueError, OSError) as e:
            raise ConfigError(f"{fn.__name__}: {e}") from e

    return build_step


def _node_count(cfg: RunConfig) -> int:
    t = cfg.topology
    return t["m"] if t["kind"] == "ring" else t["rows"] * t["cols"]


@_builder
def build_dataset(cfg: RunConfig) -> data_mod.Dataset:
    ds = cfg.dataset
    if ds["kind"] == "synthetic":
        return data_mod.synthesize(ds["N"], ds["d"], ds["seed"])
    with open(ds["path"]) as fh:
        return data_mod.parse_libsvm(fh)


@_builder
def build_problem(cfg: RunConfig, dataset, m: int) -> RobustLRProblem:
    part = data_mod.partition(
        dataset, m, cfg.partition["n"], cfg.seed,
        mode=cfg.partition.get("mode", "shuffled"),
    )
    p = cfg.problem
    return RobustLRProblem(
        dataset, part, lam=p["lambda"], beta=p["beta"], R_x=p["R_x"], R_y=p["R_y"]
    )


@_builder
def build_graph(cfg: RunConfig):
    t = cfg.topology
    if t["kind"] == "ring":
        g = build_ring(t["m"])
    else:
        g = build_torus(t["rows"], t["cols"])
    return g, spectral(g)


@_builder
def build_compressor(cfg: RunConfig, d: int) -> Compressor:
    comp = cfg.compression
    if comp["kind"] == "identity":
        return identity_compressor()
    bits = comp["bits"]
    delta_star = quantizer_delta(bits, d)
    delta = comp.get("delta", "auto")
    if delta == "auto":
        delta = delta_star
    elif delta < delta_star:
        raise InfeasibleParameterError(
            f"compression.delta = {delta:.10g} is below the quantizer's "
            f"worst case delta* = {delta_star:.10g} at bits = {bits}, d = {d}"
        )
    return Compressor(kind="quantize_inf", bits=bits, delta=float(delta))


def write_zstar(path: str, z: np.ndarray, residual: float):
    """Store the stacked (2, d) saddle point z: a header, then x and y."""
    d = z.shape[1]
    with open(path, "w") as fh:
        fh.write(f"d_x {d} d_y {d} residual {residual:.17g}\n")
        for v in z.ravel():
            fh.write("%.17g\n" % v)


def read_zstar(path: str, d: int) -> np.ndarray:
    """The stacked (2, d) saddle point stored at path; a file that cannot
    be read, or holds a point of another size, is a ConfigError."""
    try:
        with open(path) as fh:
            header = fh.readline().split()
            d_x, d_y = int(header[1]), int(header[3])
            vals = np.array([float(line) for line in fh if line.strip()])
    except (OSError, IndexError, ValueError) as e:
        raise ConfigError(f"cannot read reference file {path}: {e}")
    if vals.size != d_x + d_y:
        raise ConfigError(f"reference file {path}: expected {d_x + d_y} values")
    if d_x != d or d_y != d:
        raise ConfigError(
            f"reference file {path}: d_x = {d_x}, d_y = {d_y}, but the "
            f"problem has d = {d}"
        )
    return vals.reshape(2, d)


def _solve_reference(cfg: RunConfig, dataset, iterations: int):
    """compute_reference on the config's m = 1 problem, with the compute
    section's cap (iterations if absent) and tolerance; returns (z,
    residual)."""
    opts = cfg.reference.get("compute", {})
    return compute_reference(
        build_problem(cfg, dataset, m=1),
        iterations=opts.get("iterations", iterations),
        tol=opts.get("tol", 1e-14),
    )


def resolve_reference(cfg: RunConfig, dataset) -> np.ndarray:
    """The run's (2, d) saddle point: stored, or computed inline."""
    if "path" in cfg.reference:
        return read_zstar(cfg.reference["path"], dataset.d)
    return _solve_reference(cfg, dataset, 50_000)[0]


def cmd_reference(cfg: RunConfig) -> int:
    dataset = build_dataset(cfg)
    z, residual = _solve_reference(cfg, dataset, cfg.budget.get("iterations", 50_000))
    out = cfg.log.get("output", "zstar.txt")
    write_zstar(out, z, residual)
    print(f"reference written to {out}, residual {residual:.3e}")
    return EXIT_OK


def build(cfg: RunConfig):
    """The one build path of run and validate: returns
    (dataset, problem, graph, spectrum, compressor)."""
    dataset = build_dataset(cfg)
    prob = build_problem(cfg, dataset, _node_count(cfg))
    g, spec = build_graph(cfg)
    compressor = build_compressor(cfg, prob.d)
    return dataset, prob, g, spec, compressor


def _derived_record(cfg: RunConfig, prob: RobustLRProblem, spec, compressor):
    """The run's derived numbers as one JSON object, every value a field of
    the object that holds it; returns (record, failures).  Its schedule is
    the list of the restart method's StageParams up to the first infeasible
    stage, or the variance-reduced method's SvrgParams."""
    record = {
        "m": prob.m, "n": prob.n, "N": prob.N,
        "constants": asdict(prob.constants),
        "spectrum": {
            key: getattr(spec, key)
            for key in ("lambda_max", "lambda_second_smallest", "kappa_g")
        },
        "delta": compressor.delta,
    }
    failures = []
    if cfg.algorithm == "crdpsg":
        record["schedule"] = []
        for k in range(cfg.budget["stages"]):
            try:
                sp = crdpsg_stage_params(k, prob.constants, compressor.delta, spec)
            except InfeasibleParameterError as e:
                failures.append(f"stage {k}: {e}")
                break
            record["schedule"].append(asdict(sp))
    elif cfg.algorithm == "cdpsvrg":
        try:
            vp = cdpsvrg_params(
                prob.constants, compressor.delta, spec, prob.n,
                p_min=1.0 / prob.n, p=cfg.oracle.get("p", 1.0 / prob.n),
            )
            record["schedule"] = asdict(vp)
        except InfeasibleParameterError as e:
            failures.append(str(e))
    return record, failures


def cmd_validate(cfg: RunConfig) -> int:
    _, prob, _, spec, compressor = build(cfg)
    record, failures = _derived_record(cfg, prob, spec, compressor)
    print(json.dumps(record, indent=2))
    if failures:
        print("FAILURES:")
        for f in failures:
            print(f"  {f}")
    else:
        print("all parameter windows feasible")
    return EXIT_OK


def cmd_run(cfg: RunConfig) -> int:
    if cfg.algorithm == "reference":
        return cmd_reference(cfg)
    dataset, prob, g, spec, compressor = build(cfg)
    z_star = resolve_reference(cfg, dataset)
    stride = cfg.log.get("stride")
    z0 = np.zeros((2, prob.d))
    if cfg.algorithm == "crdpsg":
        if stride is None:
            stride = 1
        trace, _ = run_crdpsg(
            prob, g, spec, compressor, cfg.budget["stages"], z0, z_star,
            cfg.seed, log_stride=stride,
        )
    else:
        T = cfg.budget["iterations"]
        if stride is None:
            stride = 1 if T <= 10_000 else 10
        trace, _ = run_cdpsvrg(
            prob, g, spec, compressor, T, z0, z_star, cfg.seed,
            p=cfg.oracle.get("p"), log_stride=stride,
        )
    out = cfg.log.get("output", "trace.csv")
    with open(out, "w") as fh:
        fh.write(trace.to_csv())
    record, _ = _derived_record(cfg, prob, spec, compressor)
    with open(out + ".meta", "w") as fh:
        fh.write(json.dumps({"config": cfg.__dict__, "derived": record}, indent=2))
        fh.write("\n")
    print(f"trace written to {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="decsaddle")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("run", "validate", "reference"):
        sp = sub.add_parser(cmd)
        sp.add_argument("config")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "validate":
            return cmd_validate(cfg)
        return cmd_reference(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleParameterError as e:
        print(f"infeasible parameters: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ArithmeticError as e:
        # a non-finite iterate (FloatingPointError), or a derived constant
        # that leaves the float range (OverflowError, ZeroDivisionError)
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
