"""Configuration-driven experiment runner.

Commands: run <config>, validate <config>, reference <config>.
Configs are strict JSON: unknown keys, wrong types and out-of-range
values are errors.  Exit codes: 0 ok, 2 config error, 3 infeasible
parameters, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import json
import math
import os
import platform
import sys
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from . import data as data_mod
from .compression import (
    MAX_BITS,
    Compressor,
    Identity,
    InfeasibleParameterError,
    Quantizer,
    quantizer_delta,
)
from .problem import RobustLRProblem
from .solvers import (
    cdpsvrg_params,
    compute_reference,
    contraction_terms,
    crdpsg_stage_params,
    run_cdpsvrg,
    run_crdpsg,
)
from .topology import DecGraph, spectral

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    pass


REQUIRED = object()  # the default of a key that a config must give


@dataclass(frozen=True)
class Key:
    """A config key: its kind ("int" in [lo, hi], finite "number" or
    "positive", "string", "enum" of the choices), literal choices it also
    admits, and its default: REQUIRED, a value, None or f(config, job)."""

    kind: str
    lo: int = 0
    hi: float = math.inf
    choices: tuple = ()
    default: object = REQUIRED


@dataclass(frozen=True)
class Section:
    """An object: shared keys, and variants picked by the value of its key
    `by` (else the root's) or, with `by` None, by the first one it names as a key."""

    keys: dict
    by: str | None = None
    variants: dict | None = None
    default: object = REQUIRED


def _kinds(**variants) -> Section:
    return Section({"kind": Key("enum", choices=tuple(variants))}, "kind", variants)


# The one table of config keys, read by the parser, the defaults, the README
# and the fuzz test.  A run's .meta lists the sections in this order.
SCHEMA = Section({
    "algorithm": Key("enum", choices=("crdpsg", "cdpsvrg", "reference")),
    "topology": _kinds(
        ring={"m": Key("int", 3)},
        torus={"rows": Key("int", 3), "cols": Key("int", 3)},
    ),
    "dataset": _kinds(
        synthetic={"N": Key("int", 1), "d": Key("int", 1), "seed": Key("int", 0)},
        libsvm={"path": Key("string")},
    ),
    "partition": Section({
        "n": Key("int", 1),
        "mode": Key("enum", choices=("shuffled", "sorted"), default="shuffled"),
    }),
    "problem": Section({k: Key("positive") for k in ("lambda", "beta", "R_x", "R_y")}),
    "compression": _kinds(identity={}, qinf={
        "bits": Key("int", 1, MAX_BITS),
        "delta": Key("number", choices=("auto",), default="auto"),
    }),
    "oracle": Section({
        "p": Key("number", default=lambda cfg, _: 1.0 / cfg.partition["n"]),
    }, default={}),
    # a reference config's solve caps its steps by budget.iterations and
    # ignores stages
    "budget": Section({}, "algorithm", {
        "crdpsg": {"stages": Key("int", 1)},
        "cdpsvrg": {"iterations": Key("int", 1)},
        "reference": {k: Key("int", 1, default=None) for k in ("iterations", "stages")},
    }),
    "seed": Key("int", 0),
    "log": Section({
        "stride": Key("int", 1, default=lambda cfg, _: (
            10 if cfg.budget.get("iterations", 0) > 10_000 else 1)),
        "output": Key("string", default=lambda _, job: (
            "zstar.txt" if job == "reference" else "trace.csv")),
    }, default={}),
    "reference": Section({}, None, {
        "path": {"path": Key("string")},
        "compute": {"compute": Section({
            "iterations": Key("int", 1, default=lambda cfg, _: (
                cfg.algorithm == "reference" and cfg.budget.get("iterations")
                or 50_000)),
            "tol": Key("positive", default=1e-14),
        })},
    }, default={}),
})


def _leaves(spec: Section, path: str = ""):
    """(dotted path, Key) of every key of every variant under spec."""
    for keys in (spec.keys, *(spec.variants or {}).values()):
        for name, key in keys.items():
            at = f"{path}.{name}" if path else name
            yield from _leaves(key, at) if isinstance(key, Section) else [(at, key)]


KEYS = dict(_leaves(SCHEMA))


def _variant(spec: Section, sec: dict, path: str, root: dict) -> dict:
    """The keys of the variant of spec that sec is."""
    if spec.by is None:
        return next((keys for name, keys in spec.variants.items() if name in sec), {})
    if spec.by not in spec.keys:
        return spec.variants[root[spec.by]]
    if spec.by not in sec:
        raise ConfigError(f"{path}: missing keys {[spec.by]}")
    _check(spec.keys[spec.by], sec[spec.by], f"{path}.{spec.by}", root)
    return spec.variants[sec[spec.by]]


def _check(spec, v, path: str, root: dict):
    """Raise ConfigError unless v, found at the dotted path, fits spec."""
    if isinstance(spec, Section):
        where = path or "<root>"
        if not isinstance(v, dict):
            raise ConfigError(f"{where}: expected an object, got {v!r}")
        keys = {**spec.keys, **(_variant(spec, v, path, root) if spec.variants else {})}
        unknown = set(v) - set(keys)
        if unknown:
            raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
        missing = {k for k, s in keys.items() if s.default is REQUIRED} - set(v)
        if missing:
            raise ConfigError(f"{where}: missing keys {sorted(missing)}")
        for k, s in keys.items():
            if k in v:
                _check(s, v[k], f"{path}.{k}" if path else k, root)
        return
    if v in spec.choices:
        return
    if spec.kind == "enum":
        raise ConfigError(f"{path}: unknown value {v!r}")
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    if spec.kind == "int":
        ok = number and isinstance(v, int) and spec.lo <= v <= spec.hi
        bound = f">= {spec.lo}" if spec.hi == math.inf else f"in [{spec.lo}, {spec.hi}]"
        want = f"an integer {bound}"
    elif spec.kind == "string":
        ok, want = isinstance(v, str), "a string"
    else:
        # json.load accepts NaN and Infinity, which no setting admits
        positive = spec.kind == "positive"
        ok = number and math.isfinite(v) and (v > 0 or not positive)
        want = "a positive finite number" if positive else "a finite number"
    if not ok:
        raise ConfigError(f"{path} must be {want}, got {v!r}")


class RunConfig(SimpleNamespace):
    """A checked config: one attribute per SCHEMA section, in SCHEMA's
    order, each as written ({} for an absent optional section)."""

    @classmethod
    def parse(cls, raw: dict) -> "RunConfig":
        _check(SCHEMA, raw, "", raw)
        # the two rules the table does not hold
        if not raw["budget"]:
            raise ConfigError("budget: need iterations or stages")
        if raw["algorithm"] != "reference" and not raw.get("reference"):
            raise ConfigError("reference: need a stored path or a compute "
                              "section for trace distances")
        return cls(**{name: raw[name] if name in raw else dict(spec.default)
                      for name, spec in SCHEMA.keys.items()})

    def setting(self, dotted: str, job: str = "run"):
        """The value at a dotted key path as written, else the key's default
        for the job ("run" or "reference") that reads it."""
        node = vars(self)
        for key in dotted.split("."):
            if key not in node:
                default = KEYS[dotted].default
                return default(self, job) if callable(default) else default
            node = node[key]
        return node


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    return RunConfig.parse(raw)


def _builder(fn):
    """Builder errors come from the config's values: a ValueError,
    OSError or MemoryError (an array too large to allocate) becomes a
    ConfigError (exit 2), while infeasible derived parameters keep their
    own exit code."""

    @functools.wraps(fn)
    def build_step(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, InfeasibleParameterError):
            raise
        except (ValueError, OSError, MemoryError) as e:
            raise ConfigError(f"{fn.__name__}: {e}") from e

    return build_step


@_builder
def build_dataset(cfg: RunConfig) -> data_mod.Dataset:
    ds = cfg.dataset
    if ds["kind"] == "synthetic":
        return data_mod.synthesize(ds["N"], ds["d"], ds["seed"])
    with open(ds["path"]) as fh:
        return data_mod.parse_libsvm(fh)


@_builder
def build_problem(cfg: RunConfig, dataset, m: int) -> RobustLRProblem:
    index = data_mod.partition(
        dataset, m, cfg.partition["n"], cfg.seed, mode=cfg.setting("partition.mode")
    )
    p = cfg.problem
    return RobustLRProblem(
        dataset, index, lam=p["lambda"], beta=p["beta"], R_x=p["R_x"], R_y=p["R_y"]
    )


@_builder
def build_graph(cfg: RunConfig):
    t = cfg.topology
    g = DecGraph((t["m"],) if t["kind"] == "ring" else (t["rows"], t["cols"]))
    return g, spectral(g)


@_builder
def build_compressor(cfg: RunConfig, d: int) -> Compressor:
    if cfg.compression["kind"] == "identity":
        return Identity()
    bits = cfg.compression["bits"]
    delta_star = quantizer_delta(bits, d)
    delta = cfg.setting("compression.delta")
    if delta == "auto":
        delta = delta_star
    elif delta < delta_star:
        raise InfeasibleParameterError(
            f"compression.delta = {delta:.10g} is below the quantizer's "
            f"worst case delta* = {delta_star:.10g} at bits = {bits}, d = {d}"
        )
    return Quantizer(bits, float(delta))


def write_zstar(path: str, z: np.ndarray, residual: float):
    """Store the stacked (2, d) saddle point z: a header, then x and y."""
    d = z.shape[1]
    with open(path, "w") as fh:
        fh.write(f"d_x {d} d_y {d} residual {residual:.17g}\n")
        for v in z.ravel():
            fh.write("%.17g\n" % v)


def read_zstar(path: str, d: int) -> np.ndarray:
    """The stacked (2, d) saddle point stored at path; a file that cannot
    be read, or holds a point of another size or a non-finite value, is a
    ConfigError."""
    try:
        with open(path) as fh:
            header = fh.readline().split()
            d_x, d_y = int(header[1]), int(header[3])
            vals = np.array([float(line) for line in fh if line.strip()])
    except (OSError, IndexError, ValueError) as e:
        raise ConfigError(f"cannot read reference file {path}: {e}")
    if vals.size != d_x + d_y:
        raise ConfigError(f"reference file {path}: expected {d_x + d_y} values")
    if not np.isfinite(vals).all():
        raise ConfigError(f"reference file {path}: holds a non-finite value")
    if d_x != d or d_y != d:
        raise ConfigError(
            f"reference file {path}: d_x = {d_x}, d_y = {d_y}, but the "
            f"problem has d = {d}"
        )
    return vals.reshape(2, d)


def resolve_reference(cfg: RunConfig, single: RobustLRProblem):
    """compute_reference on the config's m = 1 problem, with the compute
    section's cap and tolerance; returns (z, residual), z the (2, d) saddle
    point.  This is the one judge of a reference solve: one that stops
    above tol raises ArithmeticError (exit 4), in a reference job and in a
    run's inline compute alike."""
    tol = cfg.setting("reference.compute.tol")
    iterations = cfg.setting("reference.compute.iterations")
    z, residual = compute_reference(single, iterations=iterations, tol=tol)
    if not residual <= tol:
        raise ArithmeticError(
            f"reference residual {residual:.3e} above tol {tol:.3e} after "
            f"{iterations} iterations; nothing written"
        )
    return z, residual


def _output(cfg: RunConfig, job: str) -> str:
    """The file the job ("run" or "reference") writes; one in a missing
    directory, that names a directory, or that is a file the job reads (a
    run's .meta counts too), is a ConfigError, found without creating a
    file.  A run reads dataset.path and reference.path, a reference job
    dataset.path alone, so it may write over reference.path."""
    out = cfg.setting("log.output", job)
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError(f"log.output: no directory for {out!r}")
    if not out or os.path.isdir(out):
        raise ConfigError(f"log.output: {out!r} names a directory")
    reads, writes = [cfg.dataset.get("path")], [out]
    if job == "run":
        reads.append(cfg.reference.get("path"))
        writes.append(out + ".meta")
    for path in filter(None, reads):
        if any(os.path.realpath(w) == os.path.realpath(path) for w in writes):
            raise ConfigError(f"log.output: {out!r} would overwrite {path!r}, "
                              f"which the {job} reads")
    return out


def _record(prob: RobustLRProblem) -> dict:
    """The sizes and constants of a built problem, as validate prints them."""
    return {"m": prob.m, "n": prob.n, "N": prob.N, "constants": asdict(prob.constants)}


def _json(values: dict) -> dict:
    """values as JSON values, each (x, y) pair as a two-element list [x, y]."""
    return {
        key: v.tolist() if isinstance(v, np.ndarray) else v
        for key, v in values.items()
    }


def _openblas_core() -> str:
    """The core whose kernels NumPy's bundled OpenBLAS dispatched to, or
    "unknown" where that library or its core-name symbol is absent."""
    libs = glob.glob(os.path.join(
        os.path.dirname(np.__file__), os.pardir, "numpy.libs",
        "libscipy_openblas64_*.so",
    ))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def platform_record() -> dict:
    """The platform a run's last bits depend on, as .meta records it: the
    Python and NumPy versions, NumPy's BLAS and the OpenBLAS core it
    dispatched to, and NumPy's CPU features: its baseline, then the
    dispatch targets it found, which select its kernels."""
    config = np.show_config(mode="dicts")
    blas, simd = config["Build Dependencies"]["blas"], config["SIMD Extensions"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "openblas_core": _openblas_core(),
        "cpu_features": simd["baseline"] + simd["found"],
    }


def verdict(cfg: RunConfig, job: str) -> SimpleNamespace:
    """The one verdict of every command on a job, all but the solve: checks
    the output, builds what the job needs and returns its fields out,
    record (validate's JSON object), failure (the first refusal's message
    or None) and z_star, the (2, d) saddle point.  A reference job builds
    the dataset and the m = 1 problem, whose sizes and constants are its
    record, and solves it by resolve_reference, adding the residual.  A
    run job adds the build (g, spec, prob, compressor) and its schedule:
    the restart method's list of StageParams up to the first infeasible
    stage, or the SvrgParams (None if infeasible).  The run hands these
    records to its solver, the record's schedule lists their fields, each
    value a field of the object that holds it, and its contraction gives
    each record's contraction_terms by label, one object per stage for
    the restart method.  z_star is read from reference.path before the
    schedule is derived, or, once it is feasible, solved for an inline
    reference.compute by resolve_reference; it is None if the schedule
    failed before an inline solve.  A feasible run whose log.stride
    exceeds its step count (the budget's iterations, or the stages'
    summed t) would log no row: that is a ConfigError."""
    out = _output(cfg, job)
    if job == "reference":
        single = build_problem(cfg, build_dataset(cfg), m=1)
        z_star, residual = resolve_reference(cfg, single)
        return SimpleNamespace(out=out, record=_record(single), failure=None,
                               z_star=z_star, residual=residual)
    g, spec = build_graph(cfg)
    dataset = build_dataset(cfg)
    prob = build_problem(cfg, dataset, g.m)
    compressor = build_compressor(cfg, prob.d)
    z_star = None
    if "path" in cfg.reference:
        z_star = read_zstar(cfg.reference["path"], prob.d)
    record = {
        **_record(prob),
        "spectrum": {
            key: getattr(spec, key)
            for key in ("lambda_max", "lambda_second_smallest", "kappa_g")
        },
        "delta": compressor.delta,
    }
    schedule, failure = None, None
    if cfg.algorithm == "crdpsg":
        schedule = []
        for k in range(cfg.budget["stages"]):
            try:
                schedule.append(
                    crdpsg_stage_params(k, prob.constants, compressor.delta, spec)
                )
            except InfeasibleParameterError as e:
                failure = str(e)  # StageParams prefixes `stage k: `
                break
        record["schedule"] = [_json(asdict(sp)) for sp in schedule]
        record["contraction"] = [_json(contraction_terms(sp, spec)) for sp in schedule]
    else:
        try:
            schedule = cdpsvrg_params(
                prob.constants, compressor.delta, spec, cfg.setting("oracle.p")
            )
            record["schedule"] = _json(asdict(schedule))
            record["contraction"] = _json(contraction_terms(schedule, spec))
        except InfeasibleParameterError as e:
            failure = str(e)
    if failure is None:
        stride = cfg.setting("log.stride")
        steps = (sum(sp.t for sp in schedule) if cfg.algorithm == "crdpsg"
                 else cfg.budget["iterations"])
        if stride > steps:
            raise ConfigError(f"log.stride = {stride} exceeds the run's {steps} "
                              "steps, so the trace would have no rows")
    if failure is None and "compute" in cfg.reference:
        z_star = resolve_reference(cfg, build_problem(cfg, dataset, m=1))[0]
    return SimpleNamespace(out=out, record=record, failure=failure, z_star=z_star,
                           prob=prob, g=g, spec=spec, compressor=compressor,
                           schedule=schedule)


def cmd_validate(cfg: RunConfig, job: str) -> int:
    v = verdict(cfg, job)
    print(json.dumps(v.record, indent=2))
    if v.failure is not None:
        print("FAILURES:", v.failure, sep="\n  ")
        return EXIT_INFEASIBLE
    print("all parameter windows feasible")
    return EXIT_OK


def cmd_run(cfg: RunConfig, job: str) -> int:
    v = verdict(cfg, job)
    if job == "reference":
        write_zstar(v.out, v.z_star, v.residual)
        print(f"reference written to {v.out}, residual {v.residual:.3e}")
        return EXIT_OK
    if v.failure is not None:
        raise InfeasibleParameterError(v.failure)
    z0 = np.zeros((2, v.prob.d))
    stride = cfg.setting("log.stride")
    if cfg.algorithm == "crdpsg":
        trace, _ = run_crdpsg(
            v.prob, v.g, v.compressor, v.schedule, z0, v.z_star, cfg.seed,
            log_stride=stride,
        )
    else:
        trace, _ = run_cdpsvrg(
            v.prob, v.g, v.compressor, v.schedule, cfg.budget["iterations"], z0,
            v.z_star, cfg.seed, log_stride=stride,
        )
    with open(v.out, "w") as fh:
        fh.write(trace.to_csv())
    with open(v.out + ".meta", "w") as fh:
        meta = {"config": cfg.__dict__, "platform": platform_record()}
        fh.write(json.dumps({**meta, "derived": v.record}, indent=2))
        fh.write("\n")
    print(f"trace written to {v.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="decsaddle")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("run", "validate", "reference"):
        sub.add_parser(cmd).add_argument("config")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        # the reference command, or any command on a reference config,
        # solves for z* and runs no solver; run writes what either job made
        job = "reference" if "reference" in (args.command, cfg.algorithm) else "run"
        return (cmd_validate if args.command == "validate" else cmd_run)(cfg, job)
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
