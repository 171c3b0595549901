import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decsaddle as ds
from decsaddle import cli, solvers
from decsaddle.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    RunConfig,
    main,
    read_zstar,
    write_zstar,
)


def _base_config(tmp_path, **overrides):
    cfg = {
        "algorithm": "cdpsvrg",
        "topology": {"kind": "ring", "m": 4},
        "dataset": {"kind": "synthetic", "N": 60, "d": 6, "seed": 2},
        "partition": {"n": 2},
        "problem": {"lambda": 2.0, "beta": 2.0, "R_x": 5.0, "R_y": 1.0},
        "compression": {"kind": "qinf", "bits": 4},
        "budget": {"iterations": 200},
        "seed": 11,
        "log": {"stride": 10, "output": str(tmp_path / "trace.csv")},
        "reference": {"compute": {"iterations": 100000, "tol": 1e-22}},
    }
    cfg.update(overrides)
    return cfg


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_unknown_key_rejected(tmp_path):
    cfg = _base_config(tmp_path)
    cfg["typo"] = 1
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_CONFIG


def test_unknown_nested_key_rejected(tmp_path):
    cfg = _base_config(tmp_path)
    cfg["topology"]["weight"] = 0.5
    assert main(["validate", _write(tmp_path, cfg)]) == EXIT_CONFIG


def test_bad_algorithm_rejected(tmp_path):
    cfg = _base_config(tmp_path, algorithm="gradient-descent")
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_CONFIG


def test_missing_file():
    assert main(["run", "/nonexistent/cfg.json"]) == EXIT_CONFIG


def _validate_output(out):
    """validate's printed derived record, and the lines after it."""
    record, end = json.JSONDecoder().raw_decode(out)
    return record, out[end:].strip().split("\n")


def test_validate_reports_constants(tmp_path, capsys):
    cfg = _base_config(tmp_path, compression={"kind": "identity"})
    assert main(["validate", _write(tmp_path, cfg)]) == EXIT_OK
    record, tail = _validate_output(capsys.readouterr().out)
    assert "kappa_f" in record["constants"] and "lambda_max" in record["spectrum"]
    # delta = 0 gives M_x = M_y = 1
    assert record["schedule"]["M_x"] == 1.0
    assert tail == ["all parameter windows feasible"]


def test_run_writes_csv_and_meta(tmp_path):
    cfg = _base_config(tmp_path)
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_OK
    text = (tmp_path / "trace.csv").read_text()
    assert text.startswith("iter,grad_units,comm_rounds,bits,dist_sq")
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    assert len(rows) == 20
    for row in rows:
        assert all(np.isfinite(float(v)) for v in row)
    meta = json.loads((tmp_path / "trace.csv.meta").read_text())
    assert "derived" in meta and "config" in meta


def test_reference_command_roundtrip(tmp_path):
    cfg = _base_config(
        tmp_path,
        algorithm="reference",
        budget={"iterations": 100000},
        log={"output": str(tmp_path / "zstar.txt")},
        reference={"compute": {"tol": 1e-22}},
    )
    assert main(["reference", _write(tmp_path, cfg)]) == EXIT_OK
    z = read_zstar(str(tmp_path / "zstar.txt"), 6)
    assert z.shape == (2, 6)
    # rerun the run command against the stored reference
    cfg2 = _base_config(tmp_path, reference={"path": str(tmp_path / "zstar.txt")})
    assert main(["run", _write(tmp_path, cfg2, "cfg2.json")]) == EXIT_OK


@pytest.mark.parametrize(
    "header",
    ["d_x 6 d_y 5 residual 0", "d_x 5 d_y 5 residual 0"],
    ids=["unequal-halves", "wrong-dimension"],
)
def test_stored_reference_of_other_size_is_config_error(tmp_path, header):
    # a well-formed file whose sizes do not match the problem's d = 6:
    # halves of unequal size, or both halves of another size
    d_x, d_y = int(header.split()[1]), int(header.split()[3])
    (tmp_path / "zstar.txt").write_text(header + "\n" + "0.25\n" * (d_x + d_y))
    cfg = _base_config(tmp_path, reference={"path": str(tmp_path / "zstar.txt")})
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ds.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "decsaddle.cli", "run", _write(tmp_path, cfg)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert "reference file" in proc.stderr and "d = 6" in proc.stderr


def test_zstar_roundtrip(tmp_path):
    z = np.array([[1.5, -2.25], [0.125, 0.0]])
    path = str(tmp_path / "z.txt")
    write_zstar(path, z, 1e-10)
    z2 = read_zstar(path, 2)
    assert np.array_equal(z, z2)


def test_crdpsg_run(tmp_path):
    cfg = _base_config(
        tmp_path,
        algorithm="crdpsg",
        budget={"stages": 1},
        compression={"kind": "identity"},
    )
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_OK
    text = (tmp_path / "trace.csv").read_text()
    assert len(text.strip().split("\n")) > 1


def test_config_requires_reference_for_runs(tmp_path):
    cfg = _base_config(tmp_path)
    del cfg["reference"]
    with pytest.raises(ConfigError):
        RunConfig.parse(cfg)


def _leaves(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _leaves(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _leaves(v)
    else:
        yield obj


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"algorithm": "crdpsg", "budget": {"stages": 2},
         "compression": {"kind": "identity"}},
        # at d = 1 the quantizer is exact: delta = 0
        {"dataset": {"kind": "synthetic", "N": 60, "d": 1, "seed": 2}},
        {"algorithm": "crdpsg", "budget": {"stages": 2},
         "topology": {"kind": "torus", "rows": 3, "cols": 3},
         "dataset": {"kind": "synthetic", "N": 90, "d": 4, "seed": 1},
         "problem": {"lambda": 9.0, "beta": 9.0, "R_x": 20.0, "R_y": 1.0},
         "compression": {"kind": "qinf", "bits": 3, "delta": 0.3}},
        {"topology": {"kind": "torus", "rows": 8, "cols": 8},
         "dataset": {"kind": "synthetic", "N": 640, "d": 4, "seed": 1},
         "problem": {"lambda": 1.5, "beta": 1.5, "R_x": 20.0, "R_y": 1.0},
         "budget": {"iterations": 20}, "log": {"stride": 5},
         "reference": {"compute": {"iterations": 100, "tol": 1e-8}}},
    ],
    ids=["cdpsvrg-qinf-auto", "crdpsg-identity", "cdpsvrg-qinf-d1",
         "crdpsg-torus3x3", "cdpsvrg-torus8x8"],
)
def test_meta_derived_matches_validate(tmp_path, capsys, overrides):
    cfg = _base_config(tmp_path, **overrides)
    cfg["log"]["output"] = str(tmp_path / "trace.csv")
    path = _write(tmp_path, cfg)
    assert main(["validate", path]) == EXIT_OK
    printed, tail = _validate_output(capsys.readouterr().out)
    assert main(["run", path]) == EXIT_OK
    meta = json.loads((tmp_path / "trace.csv.meta").read_text())
    assert tail == ["all parameter windows feasible"]
    assert printed == meta["derived"]
    for v in _leaves(printed):
        assert isinstance(v, (int, float)) and not isinstance(v, bool)
        assert np.isfinite(v)
    # every value equals the field of the object the run builds
    _, prob, _, spec, comp = cli.build(RunConfig.parse(cfg))
    assert (printed["m"], printed["n"], printed["N"]) == (prob.m, prob.n, prob.N)
    assert printed["constants"] == dataclasses.asdict(prob.constants)
    assert printed["spectrum"] == {
        "lambda_max": spec.lambda_max,
        "lambda_second_smallest": spec.lambda_second_smallest,
        "kappa_g": spec.kappa_g,
    }
    assert printed["delta"] == comp.delta
    if cfg["algorithm"] == "crdpsg":
        assert printed["schedule"] == [
            dataclasses.asdict(
                solvers.crdpsg_stage_params(k, prob.constants, comp.delta, spec)
            )
            for k in range(cfg["budget"]["stages"])
        ]
    else:
        assert printed["schedule"] == dataclasses.asdict(
            solvers.cdpsvrg_params(
                prob.constants, comp.delta, spec, prob.n,
                p_min=1.0 / prob.n, p=1.0 / prob.n,
            )
        )


@pytest.mark.parametrize(
    "text",
    ["d_x 2\n0.5\n1.5\n", "d_x 1 d_y 1 residual 0\n0.5\nnot-a-number\n"],
    ids=["garbled-header", "non-numeric-value"],
)
def test_malformed_stored_reference_is_config_error(tmp_path, text):
    (tmp_path / "zstar.txt").write_text(text)
    with pytest.raises(ConfigError):
        read_zstar(str(tmp_path / "zstar.txt"), 1)
    cfg = _base_config(tmp_path, reference={"path": str(tmp_path / "zstar.txt")})
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ds.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "decsaddle.cli", "run", _write(tmp_path, cfg)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert "reference file" in proc.stderr


def _subprocess_run(config_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ds.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "decsaddle.cli", "run", config_path],
        capture_output=True, text=True, env=env,
    )


@pytest.mark.parametrize(
    "overrides",
    [
        {"topology": {"kind": "ring", "m": "4"}},
        {"topology": {"kind": "ring", "m": 2}},
        {"compression": {"kind": "qinf", "bits": 0}},
        {"partition": {"n": 100}},  # 4 nodes x 100 batches > N = 60
        {"partition": {"n": 2, "mode": "interleaved"}},
        {"dataset": {"kind": "libsvm", "path": "missing.svm"}},
        {"seed": "x"},
        # json.load reads Infinity and NaN as floats
        {"problem": {"lambda": 2.0, "beta": 2.0, "R_x": float("inf"), "R_y": 1.0}},
        {"problem": {"lambda": float("inf"), "beta": 2.0, "R_x": 5.0, "R_y": 1.0}},
        {"compression": {"kind": "qinf", "bits": 4, "delta": float("nan")}},
        {"oracle": {"p": float("nan")}},
        {"compression": {"kind": "qinf", "bits": 1100}},
        {"reference": {"compute": 0}},
        {"reference": {"compute": False}},
        {"reference": {"compute": ""}},
        {"reference": {"compute": []}},
    ],
    ids=[
        "m-string", "ring-m2", "bits0", "n-too-large", "unknown-mode",
        "missing-libsvm", "seed-string", "R_x-inf", "lambda-inf", "delta-nan",
        "p-nan", "bits1100", "compute-0", "compute-false", "compute-empty-string",
        "compute-list",
    ],
)
def test_malformed_config_is_config_error(tmp_path, overrides):
    cfg = _base_config(tmp_path, **overrides)
    if "dataset" in overrides:
        cfg["dataset"]["path"] = str(tmp_path / "missing.svm")
    proc = _subprocess_run(_write(tmp_path, cfg))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "config error" in proc.stderr


@pytest.mark.parametrize(
    "bits, delta, code, message",
    [
        (4, 0.0340002340823457, EXIT_OK, 0.0340002340823457),
        (4, 0.034, EXIT_INFEASIBLE, "delta* = 0.03400023408"),
        (1, "auto", EXIT_INFEASIBLE, "increase bits"),  # delta* = 1.081
        (32, "auto", EXIT_OK, 4.87890977618477e-19),
    ],
    ids=["b4-at-floor", "b4-below-floor", "b1-auto", "b32-auto"],
)
def test_validate_checks_delta_against_quantizer_worst_case(
    tmp_path, capsys, bits, delta, code, message
):
    # exit 0 prints the delta the run takes; exit 3 names the reason
    cfg = _base_config(tmp_path)
    cfg["compression"] = {"kind": "qinf", "bits": bits, "delta": delta}
    cfg["dataset"]["d"] = 10
    assert main(["validate", _write(tmp_path, cfg)]) == code
    out = capsys.readouterr()
    if code == EXIT_OK:
        assert _validate_output(out.out)[0]["delta"] == message
    else:
        assert message in out.err


def test_validate_golden_desk_prints_exact_delta(capsys):
    data = os.path.join(os.path.dirname(__file__), "data")
    assert main(["validate", os.path.join(data, "golden_desk.json")]) == EXIT_OK
    record, _ = _validate_output(capsys.readouterr().out)
    assert record["delta"] == ds.quantizer_delta(4, 10)


@pytest.mark.parametrize(
    "algorithm, budget",
    [("crdpsg", {"iterations": 10}), ("cdpsvrg", {"stages": 1}),
     ("cdpsvrg", {"iterations": 10, "stages": 1})],
)
def test_budget_key_must_match_algorithm(tmp_path, algorithm, budget):
    # rejected while parsing, before any dataset or constant is built
    cfg = _base_config(tmp_path, algorithm=algorithm, budget=budget)
    cfg["dataset"] = {"kind": "libsvm", "path": str(tmp_path / "never-read.svm")}
    with pytest.raises(ConfigError, match="budget"):
        RunConfig.parse(cfg)


@pytest.mark.parametrize(
    "algorithm, budget, problem",
    [
        ("crdpsg", {"stages": 1}, {"R_x": 1e200}),  # R_x**2 in the constants
        ("cdpsvrg", {"iterations": 10}, {"lambda": 1e-170}),  # kappa_f**2
    ],
    ids=["R_x-1e200", "lambda-1e-170"],
)
def test_overflowing_constants_are_numerical_failures(
    tmp_path, capsys, algorithm, budget, problem
):
    # finite config values whose derived constants leave the float range
    cfg = _base_config(tmp_path, algorithm=algorithm, budget=budget)
    cfg["problem"].update(problem)
    assert main(["validate", _write(tmp_path, cfg)]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


# two valid configs (validate exits 0 on both, all windows feasible)
_FUZZ_BASES = (
    {
        "algorithm": "cdpsvrg",
        "topology": {"kind": "ring", "m": 3},
        "dataset": {"kind": "synthetic", "N": 24, "d": 3, "seed": 1},
        "partition": {"n": 2, "mode": "shuffled"},
        "problem": {"lambda": 2.0, "beta": 2.0, "R_x": 5.0, "R_y": 1.0},
        "compression": {"kind": "qinf", "bits": 3, "delta": "auto"},
        "oracle": {"p": 0.5},
        "budget": {"iterations": 10},
        "seed": 3,
        "log": {"stride": 2, "output": "trace.csv"},
        "reference": {"compute": {"iterations": 100, "tol": 1e-12}},
    },
    {
        "algorithm": "crdpsg",
        "topology": {"kind": "torus", "rows": 3, "cols": 3},
        "dataset": {"kind": "synthetic", "N": 36, "d": 2, "seed": 0},
        "partition": {"n": 2, "mode": "sorted"},
        "problem": {"lambda": 2.0, "beta": 2.0, "R_x": 20.0, "R_y": 1.0},
        "compression": {"kind": "identity"},
        "budget": {"stages": 2},
        "seed": 0,
        "reference": {"path": "zstar.txt"},
    },
)
_FUZZ_KEYS = sorted(
    {k for base in _FUZZ_BASES for sec in base.values() if isinstance(sec, dict)
     for k in sec} | {"compute", "iterations", "tol", "path", "stages", "typo"}
)
# sizes stay small (integers up to 12) so that no drawn config allocates a
# large dataset or spectrum
_FUZZ_NUMBER = st.one_of(
    st.integers(-3, 12),
    st.floats(allow_nan=True, allow_infinity=True),
    # magnitudes whose squares or products leave the float range
    st.sampled_from([5e-324, 1e-300, 1e-170, 1e150, 1e200, 1e300, -0.0]),
)
_FUZZ_LEAF = st.one_of(
    st.none(), st.booleans(), _FUZZ_NUMBER,
    st.sampled_from(["", "auto", "ring", "torus", "synthetic", "libsvm",
                     "qinf", "identity", "sorted", "crdpsg", "cdpsvrg",
                     "reference"]),
)
_FUZZ_VALUE = st.recursive(
    _FUZZ_LEAF,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(_FUZZ_KEYS), kids, max_size=3),
    max_leaves=6,
)


def _paths(cfg, prefix=()):
    """Every key path of a config, objects and leaves alike."""
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


_DELETE = object()


def _mutate(cfg, path, value):
    """Set cfg at path (delete it when value is _DELETE), where the parent
    path still is an object."""
    parent = cfg
    for key in path[:-1]:
        parent = parent.get(key) if isinstance(parent, dict) else None
    if not isinstance(parent, dict):
        return
    if value is _DELETE:
        parent.pop(path[-1], None)
    else:
        parent[path[-1]] = value


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_config_validates_to_documented_exit_code(data):
    # any JSON edit of a valid config ends in 0 (valid), 2 (config),
    # 3 (infeasible) or 4 (numerical), never an escaping exception; most
    # edits replace or delete an existing key, some add one
    cfg = json.loads(json.dumps(data.draw(st.sampled_from(_FUZZ_BASES))))
    paths = sorted(_paths(cfg))
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.integers(0, 4)):
            path = data.draw(st.sampled_from(paths))
        else:
            parent = data.draw(st.sampled_from([()] + paths))
            path = parent + (data.draw(st.sampled_from(_FUZZ_KEYS)),)
        value = data.draw(st.one_of(st.just(_DELETE), _FUZZ_NUMBER, _FUZZ_VALUE))
        _mutate(cfg, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["validate", path])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_NUMERICAL)


@pytest.mark.parametrize("name", ["golden_desk", "golden_torus", "golden_scale64"])
def test_run_reproduces_golden_trace(tmp_path, name):
    """`decsaddle run` reproduces a stored trace byte for byte.

    golden_desk is the README desk config cut to 400 iterations (stride
    10); golden_torus is a 3-bit quantized two-stage CRDPSG run on a 3x3
    torus, logged at every step; golden_scale64 is the benchmark's scale64
    config (CRDPSG on an 8x8 torus, m = 64) at workload seed 1, with its
    reference computed inline.  The traces are pinned to NumPy 2.4.6
    (the x86-64 wheel with scipy-openblas 0.3.31); another NumPy build may
    round differently, so a mismatch there is not by itself a regression.
    This is the guard that a rewrite of the step changed no trajectory.
    """
    data = os.path.join(os.path.dirname(__file__), "data")
    with open(os.path.join(data, name + ".json")) as fh:
        cfg = json.load(fh)
    cfg["log"]["output"] = str(tmp_path / "trace.csv")
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_OK
    with open(os.path.join(data, name + ".csv"), "rb") as fh:
        expected = fh.read()
    assert (tmp_path / "trace.csv").read_bytes() == expected


def test_build_does_not_import_numpy_ma():
    # the partition check once went through np.unique, whose masked-array
    # test imports numpy.ma (15-19 ms) on every run
    data = os.path.join(os.path.dirname(__file__), "data")
    code = (
        "import sys\n"
        "from decsaddle import cli\n"
        f"cli.build(cli.load_config({os.path.join(data, 'golden_desk.json')!r}))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ds.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_run_calls_the_names_the_benchmark_wraps(tmp_path, monkeypatch):
    # perfbench/child.py times a run by replacing run_crdpsg / run_cdpsvrg
    # in decsaddle.cli, and traces the refresh and the log distance by
    # replacing svrgo_update_reference and distance_to_saddle in
    # decsaddle.solvers; a run must look each of them up there, by name
    calls = {}

    def counting(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    for name in ("run_crdpsg", "run_cdpsvrg"):
        counting(cli, name)
    for name in ("svrgo_update_reference", "distance_to_saddle"):
        counting(solvers, name)

    data = os.path.join(os.path.dirname(__file__), "data")
    with open(os.path.join(data, "golden_torus.json")) as fh:
        cfg = json.load(fh)
    cfg["log"]["output"] = str(tmp_path / "torus.csv")
    assert main(["run", _write(tmp_path, cfg, "torus.json")]) == EXIT_OK
    rows = len((tmp_path / "torus.csv").read_text().strip().split("\n")) - 1
    assert calls == {"run_crdpsg": 1, "distance_to_saddle": rows}

    calls.clear()
    cfg = _base_config(tmp_path, budget={"iterations": 30})
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_OK
    assert calls == {
        "run_cdpsvrg": 1, "svrgo_update_reference": 30, "distance_to_saddle": 3,
    }
