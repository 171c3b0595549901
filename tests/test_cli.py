import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import re
import runpy
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from decsaddle.data import serialize_libsvm


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    assert record["schedule"]["M"][0] == 1.0
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
    assert list(meta) == ["config", "platform", "derived"]
    assert meta["platform"] == cli.platform_record()
    assert meta["platform"]["numpy"] == np.__version__


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


def test_reference_cap_is_the_budget_of_a_reference_config_only(tmp_path):
    # golden_desk.json with tol 1e-22 and a budget of 20 iterations: that
    # budget is the cdpsvrg solver's, so the reference command keeps the
    # default cap of 50,000 and meets tol; as a reference config's budget
    # it caps the solve at 20 iterations, which stop about eleven orders
    # above tol, so the command exits 4 and writes nothing
    with open(os.path.join(ROOT, "tests", "data", "golden_desk.json")) as fh:
        cfg = json.load(fh)
    out = tmp_path / "zstar.txt"
    cfg.update(budget={"iterations": 20}, log={"output": str(out)},
               reference={"compute": {"tol": 1e-22}})
    assert main(["reference", _write(tmp_path, cfg)]) == EXIT_OK
    assert float(out.read_text().split()[5]) <= 1e-22
    out.unlink()
    cfg["algorithm"] = "reference"
    assert main(["reference", _write(tmp_path, cfg)]) == EXIT_NUMERICAL
    assert not out.exists()


@pytest.mark.parametrize(
    "topology, N",
    [({"kind": "ring", "m": 50}, 200), ({"kind": "torus", "rows": 8, "cols": 8}, 1280)],
    ids=["ring50", "torus8x8-N1280"],
)
def test_reference_config_builds_only_the_single_node_problem(
    tmp_path, capsys, topology, N
):
    # golden_desk.json as a reference config, on networks whose m-node
    # build is refused (N < m n on the ring of 50, kappa_f < 1 on the
    # torus): run writes the bytes the reference command writes, and
    # validate prints the m = 1 build's sizes and constants and exits 0
    with open(os.path.join(ROOT, "tests", "data", "golden_desk.json")) as fh:
        cfg = json.load(fh)
    cfg.update(algorithm="reference", topology=topology)
    cfg["dataset"]["N"] = N
    for command in ("reference", "run"):
        cfg["log"] = {"output": str(tmp_path / f"{command}.txt")}
        assert main([command, _write(tmp_path, cfg)]) == EXIT_OK
    written = (tmp_path / "reference.txt").read_bytes()
    assert (tmp_path / "run.txt").read_bytes() == written
    capsys.readouterr()
    assert main(["validate", _write(tmp_path, cfg)]) == EXIT_OK
    record, tail = _validate_output(capsys.readouterr().out)
    parsed = RunConfig.parse(cfg)
    single = cli.build_problem(parsed, cli.build_dataset(parsed), m=1)
    assert record == {
        "m": 1, "n": 5, "N": N, "constants": dataclasses.asdict(single.constants)
    }
    assert tail == ["all parameter windows feasible"]


@pytest.mark.parametrize("command", ["reference", "run", "validate"])
def test_reference_config_exits_as_the_reference_command(tmp_path, capsys, command):
    # a reference config's budget of 20 iterations stops the solve above
    # tol (exit 4), and an output in a missing directory is refused (exit
    # 2), in every command, with nothing written
    with open(os.path.join(ROOT, "tests", "data", "golden_desk.json")) as fh:
        cfg = json.load(fh)
    out = tmp_path / "zstar.txt"
    cfg.update(algorithm="reference", budget={"iterations": 20},
               log={"output": str(out)}, reference={"compute": {"tol": 1e-22}})
    assert main([command, _write(tmp_path, cfg)]) == EXIT_NUMERICAL
    assert "above tol" in capsys.readouterr().err and not out.exists()
    cfg["log"] = {"output": str(tmp_path / "missing" / "zstar.txt")}
    assert main([command, _write(tmp_path, cfg)]) == EXIT_CONFIG


def test_reference_cut_short_prints_one_line(tmp_path):
    # golden_desk.json as a reference config whose solve stops after one
    # step, far above tol: the reference command exits 4, and its stderr
    # is the verdict's one line, with no warning before it
    with open(os.path.join(ROOT, "tests", "data", "golden_desk.json")) as fh:
        cfg = json.load(fh)
    out = tmp_path / "zstar.txt"
    cfg.update(algorithm="reference", budget={"iterations": 1},
               log={"output": str(out)},
               reference={"compute": {"iterations": 1, "tol": 1e-20}})
    cfg["problem"].update(R_x=3.0, R_y=0.5)
    proc = _subprocess_run(_write(tmp_path, cfg), "reference")
    assert proc.returncode == EXIT_NUMERICAL
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("numerical failure: reference residual")
    assert not out.exists()


def test_run_refuses_an_inline_reference_above_tol(tmp_path, capsys):
    # golden_desk.json with its inline solve capped at 3 iterations stops
    # at a residual of about 5.0e-7 against tol 1e-22: run exits 4 with
    # the reference command's message and writes no trace
    with open(os.path.join(ROOT, "tests", "data", "golden_desk.json")) as fh:
        cfg = json.load(fh)
    out = tmp_path / "trace.csv"
    cfg.update(log={"output": str(out)},
               reference={"compute": {"iterations": 3, "tol": 1e-22}})
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "reference residual" in err and "above tol 1.000e-22 after 3" in err
    assert not out.exists() and not (tmp_path / "trace.csv.meta").exists()


def test_validate_solves_the_inline_reference(tmp_path, capsys):
    # validate reaches the verdict run does, the inline reference solve
    # included: with the solve capped at 3 iterations both exit 4, with the
    # same message, and validate prints no feasibility line
    with open(os.path.join(ROOT, "tests", "data", "golden_desk.json")) as fh:
        cfg = json.load(fh)
    cfg.update(log={"output": str(tmp_path / "trace.csv")},
               reference={"compute": {"iterations": 3, "tol": 1e-22}})
    path = _write(tmp_path, cfg)
    errors = []
    for command in ("validate", "run"):
        assert main([command, path]) == EXIT_NUMERICAL
        out = capsys.readouterr()
        assert "feasible" not in out.out
        errors.append(out.err)
    assert errors[0] == errors[1] and "above tol 1.000e-22 after 3" in errors[0]


def test_reference_certificate_does_not_vanish_with_mu(tmp_path, capsys):
    # at beta = 1e-152 the schedule step mu / (24 L^2) is about 4e-158, and
    # a residual measured there (2.6e-316 at the origin) passes any tol
    # before a step is taken; at the floor step 1/(4L) fifty steps leave a
    # residual of about 6.9e-11, so validate and run each refuse it
    path = _golden("golden_desk", tmp_path, problem={"beta": 1e-152},
                   reference={"compute": {"iterations": 50, "tol": 1e-22}})
    for command in ("validate", "run"):
        assert main([command, path]) == EXIT_NUMERICAL
        out = capsys.readouterr()
        lines = out.err.splitlines()
        assert len(lines) == 1, out.err
        assert lines[0].startswith("numerical failure: reference residual ")
        assert "feasible" not in out.out
    assert not (tmp_path / "trace.csv").exists()


def test_scale64_reference_lies_near_the_saddle_point():
    # golden_scale64's m = 1 problem (kappa_f about 68) solved with its own
    # reference.compute (5000 iterations, tol 1e-14) lies within 1e-4 of a
    # tol-1e-28 solve; a residual measured at the schedule step mu / (24
    # L^2) stopped 8.2e-3 away
    with open(os.path.join(ROOT, "tests", "data", "golden_scale64.json")) as fh:
        cfg = RunConfig.parse(json.load(fh))
    single = cli.build_problem(cfg, cli.build_dataset(cfg), m=1)
    z, _ = cli.resolve_reference(cfg, single)
    z_fine, residual = ds.compute_reference(single, iterations=400_000, tol=1e-28)
    assert residual <= 1e-28
    assert np.linalg.norm(z - z_fine) <= 1e-4


def _golden(name, tmp_path, **sections):
    """The shipped config tests/data/<name>.json, logging under tmp_path,
    with the given sections updated key by key."""
    with open(os.path.join(ROOT, "tests", "data", f"{name}.json")) as fh:
        cfg = json.load(fh)
    cfg["log"] = {"output": str(tmp_path / "trace.csv")}
    for section, values in sections.items():
        cfg.setdefault(section, {}).update(values)
    return _write(tmp_path, cfg)


def test_stage_refusal_names_its_stage_once(tmp_path, capsys):
    # a restart stage's refusal already starts with `stage k: `, and the
    # verdict prints it as it is
    path = _golden("golden_torus", tmp_path, problem={"lambda": 100.0})
    assert main(["validate", path]) == EXIT_INFEASIBLE
    _, tail = _validate_output(capsys.readouterr().out)
    assert tail[0] == "FAILURES:"
    assert tail[1].strip().startswith("stage 0: b_x = ")
    assert "\n".join(tail).count("stage 0: ") == 1


def test_stage_whose_rate_rounds_to_1_is_refused(tmp_path, capsys):
    # at lambda = 1e-9 the stage's slowest contraction factor rounds to 1,
    # so no step count reaches the stage's target: the stage is refused
    # (exit 3), once, instead of dividing by log(1) = 0
    path = _golden("golden_torus", tmp_path, problem={"lambda": 1e-9})
    assert main(["validate", path]) == EXIT_INFEASIBLE
    _, tail = _validate_output(capsys.readouterr().out)
    assert tail[0] == "FAILURES:"
    assert tail[1].strip().startswith("stage 0: contraction rate r_k = 1 ")
    assert "\n".join(tail).count("stage 0: ") == 1
    assert main(["run", path]) == EXIT_INFEASIBLE
    assert capsys.readouterr().err.count("stage 0: ") == 1


def test_svrg_step_does_not_depend_on_n(tmp_path, capsys):
    # s = mu / (24 L^2) for every n, also at n = 49, where n * (1/n)
    # rounds below 1
    path = _golden("golden_desk", tmp_path, partition={"n": 49})
    assert main(["validate", path]) == EXIT_OK
    record, _ = _validate_output(capsys.readouterr().out)
    c = record["constants"]
    assert record["n"] == 49
    assert record["schedule"]["s"] == c["mu"] / (24.0 * c["L"] ** 2)


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


@pytest.mark.parametrize("mode", ["shuffled", "sorted"])
def test_libsvm_run_reproduces_the_synthetic_run(tmp_path, mode):
    # N = 61 is not a multiple of m n = 8, so some batches are padded; the
    # synthetic dataset written as LIBSVM text and read back gives the same
    # trace, byte for byte
    cfg = _base_config(tmp_path, partition={"n": 2, "mode": mode})
    cfg["dataset"]["N"] = 61
    svm = tmp_path / "data.svm"
    svm.write_text(serialize_libsvm(ds.synthesize(61, 6, cfg["dataset"]["seed"])))
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_OK
    synthetic = (tmp_path / "trace.csv").read_bytes()
    cfg["dataset"] = {"kind": "libsvm", "path": str(svm)}
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_OK
    assert (tmp_path / "trace.csv").read_bytes() == synthetic


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


def _as_json(params):
    """A schedule record's fields with each (x, y) pair as a list [x, y]."""
    return json.loads(json.dumps(dataclasses.asdict(params), default=np.ndarray.tolist))


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
    v = cli.verdict(RunConfig.parse(cfg), "run")
    prob, spec, comp = v.prob, v.spec, v.compressor
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
            _as_json(
                solvers.crdpsg_stage_params(k, prob.constants, comp.delta, spec)
            )
            for k in range(cfg["budget"]["stages"])
        ]
    else:
        assert printed["schedule"] == _as_json(
            solvers.cdpsvrg_params(prob.constants, comp.delta, spec, p=1.0 / prob.n)
        )


@pytest.mark.parametrize(
    "text, message",
    [("d_x 2\n0.5\n1.5\n", "cannot read reference file"),
     ("d_x 1 d_y 1 residual 0\n0.5\nnot-a-number\n", "cannot read reference file"),
     # a header that names more values than the file holds
     ("d_x 10 d_y 10 residual 0\n" + "0.5\n" * 12, "expected 20 values")],
    ids=["garbled-header", "non-numeric-value", "short-file"],
)
def test_malformed_stored_reference_is_config_error(tmp_path, text, message):
    (tmp_path / "zstar.txt").write_text(text)
    with pytest.raises(ConfigError):
        read_zstar(str(tmp_path / "zstar.txt"), 1)
    cfg = _base_config(tmp_path, reference={"path": str(tmp_path / "zstar.txt")})
    proc = _subprocess_run(_write(tmp_path, cfg))
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


def _subprocess_run(config_path, command="run"):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ds.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "decsaddle.cli", command, config_path],
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
        # LIBSVM files that parse to no usable dataset
        {"dataset": {"kind": "libsvm", "path": "nan.svm"}},
        {"dataset": {"kind": "libsvm", "path": "inf.svm"}},
        {"dataset": {"kind": "libsvm", "path": "labels-only.svm"}},
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
        # a stored point that exists, beside a compute section
        {"reference": {"path": "zstar.txt", "compute": {}}},
        # a stored point that is missing, or of another size than d = 6
        {"reference": {"path": "missing.txt"}},
        {"reference": {"path": "zstar5.txt"}},
        {"reference": {"path": "zstar-nan.txt"}},
    ],
    ids=[
        "m-string", "ring-m2", "bits0", "n-too-large", "unknown-mode",
        "missing-libsvm", "libsvm-nan", "libsvm-inf", "libsvm-no-feature",
        "seed-string", "R_x-inf", "lambda-inf", "delta-nan",
        "p-nan", "bits1100", "compute-0", "compute-false", "compute-empty-string",
        "compute-list", "path-and-compute", "missing-zstar", "zstar-of-other-size",
        "zstar-nan",
    ],
)
def test_malformed_config_is_config_error(tmp_path, capsys, overrides):
    # run and validate share one verdict, so both exit 2
    cfg = _base_config(tmp_path, **overrides)
    (tmp_path / "nan.svm").write_text("+1 1:nan 2:0.5\n" + "-1 1:1 2:2\n" * 7)
    (tmp_path / "inf.svm").write_text("+1 1:0.5 2:inf\n" + "-1 1:1 2:2\n" * 7)
    (tmp_path / "labels-only.svm").write_text("+1\n-1\n" * 4)
    (tmp_path / "zstar-nan.txt").write_text(
        "d_x 6 d_y 6 residual 0\n" + "0\n" * 11 + "nan\n"
    )
    if "dataset" in overrides:
        cfg["dataset"]["path"] = str(tmp_path / cfg["dataset"]["path"])
    if "path" in cfg["reference"]:
        write_zstar(str(tmp_path / "zstar.txt"), np.zeros((2, 6)), 0.0)
        write_zstar(str(tmp_path / "zstar5.txt"), np.zeros((2, 5)), 0.0)
        cfg["reference"]["path"] = str(tmp_path / cfg["reference"]["path"])
    path = _write(tmp_path, cfg)
    proc = _subprocess_run(path)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "config error" in proc.stderr
    assert main(["validate", path]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


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


@pytest.mark.parametrize("name", ["golden_desk", "golden_torus"])
def test_largest_contraction_term_is_the_rate(name):
    # the record lists the term families of each schedule record's rate,
    # one object per restart stage; the largest value listed, read back
    # from JSON, is contraction_rate, bit for bit
    cfg = cli.load_config(os.path.join(ROOT, "tests", "data", name + ".json"))
    v = cli.verdict(cfg, "run")
    spec, schedule = v.spec, v.schedule
    listed = json.loads(json.dumps(v.record["contraction"]))
    if cfg.algorithm == "crdpsg":
        assert len(schedule) == len(listed) == cfg.budget["stages"]
    else:
        schedule, listed = [schedule], [listed]
    for params, terms in zip(schedule, listed):
        labels = ["(1-b)/M", "1-alpha", "1-gamma*lambda_2/2"]
        assert list(terms) == labels + ["1-p/2"] * (cfg.algorithm == "cdpsvrg")
        assert max(np.max(v) for v in terms.values()) == ds.contraction_rate(
            params, spec
        )


@pytest.mark.parametrize(
    "algorithm, budget",
    [("crdpsg", {"iterations": 10}), ("cdpsvrg", {"stages": 1}),
     ("cdpsvrg", {"iterations": 10, "stages": 1}),
     # a reference budget's two keys are each optional, but not both
     ("reference", {})],
)
def test_budget_key_must_match_algorithm(tmp_path, algorithm, budget):
    # rejected while parsing, before any dataset or constant is built
    cfg = _base_config(tmp_path, algorithm=algorithm, budget=budget)
    cfg["dataset"] = {"kind": "libsvm", "path": str(tmp_path / "never-read.svm")}
    with pytest.raises(ConfigError, match="budget"):
        RunConfig.parse(cfg)


@pytest.mark.parametrize(
    "algorithm, budget, problem, libsvm",
    [
        ("crdpsg", {"stages": 1}, {"R_x": 1e200}, None),  # R_x**2 in the constants
        ("cdpsvrg", {"iterations": 10}, {"lambda": 1e-170}, None),  # kappa_f**2
        # a finite feature whose square overflows in L_xx and the row norms
        ("cdpsvrg", {"iterations": 10}, {}, "+1 1:1e308 2:1\n" + "-1 1:1 2:1\n" * 7),
    ],
    ids=["R_x-1e200", "lambda-1e-170", "libsvm-feature-1e308"],
)
def test_overflowing_constants_are_numerical_failures(
    tmp_path, capsys, algorithm, budget, problem, libsvm
):
    # finite input values whose derived constants leave the float range:
    # exit 4 from run and validate, with no warning on stderr
    cfg = _base_config(tmp_path, algorithm=algorithm, budget=budget)
    cfg["problem"].update(problem)
    if libsvm is not None:
        (tmp_path / "data.svm").write_text(libsvm)
        cfg["dataset"] = {"kind": "libsvm", "path": str(tmp_path / "data.svm")}
    path = _write(tmp_path, cfg)
    proc = _subprocess_run(path)
    assert proc.returncode == EXIT_NUMERICAL, proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert "numerical failure" in proc.stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["validate", path]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, section, values, code, named",
    [
        ("golden_desk", "problem", {"lambda": 1e300}, EXIT_NUMERICAL, "L_xx"),
        ("golden_desk", "problem", {"beta": 1e-300}, EXIT_NUMERICAL, "kappa_f"),
        ("golden_torus", "problem", {"beta": 1e-300}, EXIT_NUMERICAL, "kappa_f"),
        ("golden_desk", "problem", {"R_x": 1e160}, EXIT_NUMERICAL, "L_yy"),
        ("golden_desk", "problem", {"R_y": 1e200}, EXIT_NUMERICAL, "L_xx"),
        ("golden_desk", "oracle", {"p": 5e-324}, EXIT_INFEASIBLE, "p"),
    ],
    ids=["lambda", "beta-desk", "beta-torus", "R_x", "R_y", "p"],
)
def test_value_whose_square_overflows_is_named(
    tmp_path, capsys, name, section, values, code, named
):
    # a finite setting that overflows where a schedule squares a constant
    # (or divides by p) ends in one stderr line naming the value, with no
    # NumPy warning; validate exits with the same code
    path = _golden(name, tmp_path, **{section: values})
    proc = _subprocess_run(path)
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and re.search(rf"\b{named} = ", lines[0]), proc.stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["validate", path]) == code
    out = capsys.readouterr()
    assert re.search(rf"\b{named} = ", out.out + out.err)


@pytest.mark.parametrize(
    "name, stride, steps",
    # golden_torus' two stages run 1209 steps in all
    [("golden_desk", 1000, 400), ("golden_torus", 10**9, 1209)],
)
def test_stride_above_the_step_count_is_config_error(
    tmp_path, capsys, name, stride, steps
):
    # such a trace would hold its header alone; run and validate refuse it
    path = _golden(name, tmp_path, log={"stride": stride})
    for command in ("run", "validate"):
        assert main([command, path]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: log.stride")
        assert f"{stride} " in err[0] and f" {steps} steps" in err[0]
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("command", ["run", "validate"])
def test_allocation_failure_is_config_error(tmp_path, monkeypatch, capsys, command):
    # a dataset too large to allocate (N = 10^10 asks NumPy for 745 GiB)
    # is the config's fault: exit 2 and one line.  The failure is
    # simulated: a host that overcommits memory would grant the request
    message = "Unable to allocate 745. GiB for an array"

    def too_large(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli.data_mod, "synthesize", too_large)
    path = _golden("golden_desk", tmp_path, dataset={"N": 10**10})
    assert main([command, path]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: build_dataset: {message}"]


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
# the fuzz test draws its keys, strings and integer boundaries from the
# config table, plus one key that no section has
_FUZZ_KEYS = sorted({part for key in cli.KEYS for part in key.split(".")} | {"typo"})
_FUZZ_STRINGS = sorted({c for key in cli.KEYS.values() for c in key.choices} | {""})
_FUZZ_BOUNDS = sorted({
    b for key in cli.KEYS.values() if key.kind == "int"
    for b in (key.lo - 1, key.lo, key.hi, key.hi + 1) if b != math.inf
})
# sizes stay small (integers up to 12, bounds up to MAX_BITS + 1) so that no
# drawn config allocates a large dataset or spectrum
_FUZZ_NUMBER = st.one_of(
    st.integers(-3, 12),
    st.sampled_from(_FUZZ_BOUNDS),
    st.floats(allow_nan=True, allow_infinity=True),
    # magnitudes whose squares or products leave the float range
    st.sampled_from([5e-324, 1e-300, 1e-170, 1e150, 1e200, 1e300, -0.0]),
)
_FUZZ_LEAF = st.one_of(
    st.none(), st.booleans(), _FUZZ_NUMBER, st.sampled_from(_FUZZ_STRINGS)
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


@st.composite
def _mutated_configs(draw):
    """A valid config after one to three JSON edits; most edits replace or
    delete an existing key, some add one."""
    cfg = json.loads(json.dumps(draw(st.sampled_from(_FUZZ_BASES))))
    paths = sorted(_paths(cfg))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 4)):
            path = draw(st.sampled_from(paths))
        else:
            parent = draw(st.sampled_from([()] + paths))
            path = parent + (draw(st.sampled_from(_FUZZ_KEYS)),)
        _mutate(cfg, path, draw(st.one_of(st.just(_DELETE), _FUZZ_NUMBER, _FUZZ_VALUE)))
    return cfg


class _SolveEntered(Exception):
    """Raised by the stubs where a command would start its solve."""


def _enter_solve(*args, **kwargs):
    raise _SolveEntered


def _exit_code(command, path):
    """main's exit code and printed output; a command that reaches its
    solve counts as exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([command, path])
        except _SolveEntered:
            code = EXIT_OK
    return code, out.getvalue()


@settings(max_examples=200, deadline=None)
@given(_mutated_configs())
# validate printed this config's FAILURES and exited 0, while run exited 3
@example(dict(_FUZZ_BASES[0], oracle={"p": 2.0}))
def test_mutated_config_validates_to_documented_exit_code(cfg):
    # any JSON edit of a valid config ends in 0 (valid), 2 (config),
    # 3 (infeasible) or 4 (numerical), never an escaping exception; run,
    # stopped where its solve would start, ends in validate's code
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        for name in ("run_crdpsg", "run_cdpsvrg", "compute_reference"):
            mp.setattr(cli, name, _enter_solve)
        # the stored point of the crdpsg base, which verdict reads
        write_zstar("zstar.txt", np.zeros((2, 2)), 0.0)
        with open("cfg.json", "w") as fh:
            json.dump(cfg, fh)
        code, out = _exit_code("validate", "cfg.json")
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_NUMERICAL)
        if "FAILURES:" in out:
            assert code == EXIT_INFEASIBLE
        assert _exit_code("run", "cfg.json")[0] == code


@pytest.mark.parametrize("command", ["run", "validate", "reference"])
@pytest.mark.parametrize("output", ["missing/trace.csv", "."], ids=["no-dir", "a-dir"])
def test_unusable_output_is_config_error(tmp_path, monkeypatch, capsys, command, output):
    # refused by all three commands before any work is done, not by the
    # write after the solve
    cfg = _base_config(tmp_path, log={"output": str(tmp_path / output)})
    monkeypatch.setattr(cli, "run_cdpsvrg", _enter_solve)
    monkeypatch.setattr(cli, "compute_reference", _enter_solve)
    assert main([command, _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert "config error: log.output" in capsys.readouterr().err


def _torus(**sections):
    """golden_torus.json with the given sections replaced whole."""
    with open(os.path.join(ROOT, "tests", "data", "golden_torus.json")) as fh:
        return {**json.load(fh), **sections}


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "stored, output", [("zstar.txt", "zstar.txt"), ("trace.csv.meta", "trace.csv")],
    ids=["trace", "meta"],
)
def test_run_output_over_its_stored_point_is_refused(
    tmp_path, monkeypatch, capsys, command, stored, output
):
    # golden_torus reading its stored point from the file that its trace,
    # or the trace's .meta, would be written to (named by another path):
    # refused in one line before anything is built, the point unchanged
    monkeypatch.chdir(tmp_path)
    write_zstar(stored, np.zeros((2, 5)), 0.0)
    before = (tmp_path / stored).read_bytes()
    monkeypatch.setattr(cli, "build_graph", _enter_solve)
    cfg = _torus(reference={"path": stored},
                 log={"output": f"{tmp_path}/./{output}"})
    assert main([command, _write(tmp_path, cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: log.output"), err
    assert (tmp_path / stored).read_bytes() == before


@pytest.mark.parametrize("command", ["run", "validate", "reference"])
def test_output_over_the_dataset_is_refused(tmp_path, capsys, command):
    # every job reads dataset.path: a log.output that names it is refused
    # in one line, and the data keeps its bytes
    svm = tmp_path / "data.svm"
    svm.write_text(serialize_libsvm(ds.synthesize(60, 6, 2)))
    before = svm.read_bytes()
    cfg = _base_config(tmp_path, dataset={"kind": "libsvm", "path": str(svm)},
                       log={"output": str(svm)})
    assert main([command, _write(tmp_path, cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: log.output"), err
    assert svm.read_bytes() == before


@pytest.mark.parametrize("command, algorithm",
                         [("reference", "crdpsg"), ("run", "reference")])
def test_reference_job_may_write_over_the_stored_point(
    tmp_path, monkeypatch, command, algorithm
):
    # a reference job does not read reference.path, so it may refresh the
    # point stored there, which the run then reads
    monkeypatch.chdir(tmp_path)
    write_zstar("zstar.txt", np.zeros((2, 5)), 0.0)
    cfg = _torus(algorithm=algorithm, reference={"path": "zstar.txt"},
                 log={"output": "zstar.txt"})
    assert main([command, _write(tmp_path, cfg)]) == EXIT_OK
    assert read_zstar("zstar.txt", 5).any()
    cfg.update(algorithm="crdpsg", log={"output": "trace.csv"})
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_OK


@pytest.mark.parametrize("algorithm", ["crdpsg", "reference"])
def test_each_command_writes_its_jobs_default_output(tmp_path, monkeypatch, algorithm):
    # golden_torus without its log section, and its reference twin: the
    # reference command, or any command on a reference config, solves for
    # z*, which run and reference write to zstar.txt; run on a run config
    # writes trace.csv and its .meta; validate writes nothing
    cfg = _torus(algorithm=algorithm)
    del cfg["log"]
    path = _write(tmp_path, cfg)
    written = {}
    for command in ("run", "validate", "reference"):
        (tmp_path / command).mkdir()
        monkeypatch.chdir(tmp_path / command)
        assert main([command, path]) == EXIT_OK
        written[command] = sorted(os.listdir())
    run = ["trace.csv", "trace.csv.meta"] if algorithm == "crdpsg" else ["zstar.txt"]
    assert written == {"run": run, "validate": [], "reference": ["zstar.txt"]}


def test_cpu_features_lose_a_disabled_dispatch_target():
    # the record lists NumPy's baseline, then the dispatch targets it found;
    # disabling the last target found removes it, and nothing else
    found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    if not found:
        pytest.skip("NumPy found no dispatch target on this CPU")
    features = cli.platform_record()["cpu_features"]
    assert features[-len(found):] == found
    code = ("import json\nfrom decsaddle import cli\n"
            "print(json.dumps(cli.platform_record()['cpu_features']))\n")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=found[-1],
               PYTHONPATH=os.path.dirname(os.path.dirname(ds.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == features[:-1]


def _readme():
    with open(os.path.join(ROOT, "README.md")) as fh:
        return fh.read()


@pytest.mark.parametrize(
    "name",
    ["README", "golden_desk", "golden_torus", "golden_scale64", "desk", "scale64"],
)
def test_shipped_config_validates(tmp_path, monkeypatch, capsys, name):
    # the README's example, the golden configs, and the benchmark's
    # workloads at seed 1, as perfbench/workloads.py writes them
    monkeypatch.chdir(tmp_path)
    if name == "README":
        example = re.search(r"```json\n(.*?)```", _readme(), re.S).group(1)
        path = _write(tmp_path, json.loads(example))
    elif name.startswith("golden"):
        path = os.path.join(ROOT, "tests", "data", name + ".json")
    else:
        workloads = runpy.run_path(os.path.join(ROOT, "perfbench", "workloads.py"))
        path, ref, _ = workloads["prepare"](name, 1, str(tmp_path))
        if ref is not None:
            # the stored reference point that the run config reads
            assert main(["reference", ref]) == EXIT_OK
    assert main(["validate", path]) == EXIT_OK
    assert capsys.readouterr().out.endswith("\nall parameter windows feasible\n")


def test_readme_config_table_lists_exactly_the_schema_keys():
    rows = re.findall(r"^\| `([\w.]+)` \|", _readme(), re.M)
    assert sorted(rows) == sorted(cli.KEYS)


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
    A mismatch names its first differing line and the platform.
    """
    data = os.path.join(os.path.dirname(__file__), "data")
    with open(os.path.join(data, name + ".json")) as fh:
        cfg = json.load(fh)
    cfg["log"]["output"] = str(tmp_path / "trace.csv")
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_OK
    with open(os.path.join(data, name + ".csv"), "rb") as fh:
        expected = fh.read()
    actual = (tmp_path / "trace.csv").read_bytes()
    assert actual == expected, _trace_mismatch(actual, expected)


def _trace_mismatch(actual: bytes, expected: bytes) -> str:
    """The first line where two traces differ, with the platform that
    wrote the actual one, as .meta records it: NumPy's version, its BLAS
    and the OpenBLAS core it dispatched to, and the CPU features NumPy
    enabled (another build or CPU may round differently)."""
    lines = itertools.zip_longest(actual.splitlines(), expected.splitlines())
    k, (got, want) = next((k, p) for k, p in enumerate(lines, 1) if p[0] != p[1])
    p = cli.platform_record()
    return (
        f"trace line {k}: got {got!r}, expected {want!r}; NumPy "
        f"{p['numpy']}, BLAS {p['blas']['name']} {p['blas']['version']}, "
        f"OpenBLAS core {p['openblas_core']}, "
        f"CPU features {' '.join(p['cpu_features'])}"
    )


def test_trace_mismatch_names_the_line_and_the_openblas_core():
    expected = b"iter,bits\n1,5\n2,10\n"
    message = _trace_mismatch(expected.replace(b"1,5", b"1,6"), expected)
    assert message.startswith("trace line 2: got b'1,6', expected b'1,5'; NumPy ")
    core = cli.platform_record()["openblas_core"]
    assert core and f", OpenBLAS core {core}, CPU features " in message


def test_build_does_not_import_numpy_ma():
    # the partition check once went through np.unique, whose masked-array
    # test imports numpy.ma (15-19 ms) on every run
    data = os.path.join(os.path.dirname(__file__), "data")
    code = (
        "import sys\n"
        "from decsaddle import cli\n"
        "cli.verdict(cli.load_config("
        f"{os.path.join(data, 'golden_desk.json')!r}), 'run')\n"
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
    # in decsaddle.cli, its set-up spans by replacing cmd_run, the four
    # build_* functions and resolve_reference there, and traces the refresh
    # and the log distance by replacing svrgo_update_reference and
    # distance_to_saddle in decsaddle.solvers; a run must look each of them
    # up there, by name.  Both runs solve their reference inline, so each
    # builds the problem twice: at m nodes and at m = 1
    calls = {}

    def counting(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    setup = {"cmd_run": 1, "build_graph": 1, "build_dataset": 1, "build_problem": 2,
             "build_compressor": 1, "resolve_reference": 1}
    for name in (*setup, "run_crdpsg", "run_cdpsvrg"):
        counting(cli, name)
    for name in ("svrgo_update_reference", "distance_to_saddle"):
        counting(solvers, name)

    data = os.path.join(os.path.dirname(__file__), "data")
    with open(os.path.join(data, "golden_torus.json")) as fh:
        cfg = json.load(fh)
    cfg["log"]["output"] = str(tmp_path / "torus.csv")
    assert main(["run", _write(tmp_path, cfg, "torus.json")]) == EXIT_OK
    rows = len((tmp_path / "torus.csv").read_text().strip().split("\n")) - 1
    assert calls == {**setup, "run_crdpsg": 1, "distance_to_saddle": rows}

    calls.clear()
    cfg = _base_config(tmp_path, budget={"iterations": 30})
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_OK
    assert calls == {
        **setup, "run_cdpsvrg": 1, "svrgo_update_reference": 30,
        "distance_to_saddle": 3,
    }
