import importlib.util
import json
import os
import runpy
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_step_sweep_smoke():
    # every (m, d, oracle) cell of the sweep runs and prints one row; with
    # --against (here the same tree imported a second time) each row adds
    # the other tree's time, the ratio and the repeats the other tree won,
    # and the ratio ends in ?: no split of 2 repeats passes the sign test
    sweep = [sys.executable, os.path.join(ROOT, "tools", "step_sweep.py"),
             "--steps", "5", "--repeats", "2"]
    for extra, against in (([], []), (["against", "ratio", "won"],
                                      ["--against", os.path.join(ROOT, "src")])):
        proc = subprocess.run(
            sweep + against, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        header, *rows = proc.stdout.strip().splitlines()
        assert header.split() == ["m", "d", "oracle", "us/step"] + extra
        assert len(rows) == 12
        for row in rows:
            m, d, kind, *times = row.split()
            assert kind in ("gsgo", "svrgo") and len(times) == 1 + len(extra)
            if extra:
                *times, won = times
                k, repeats = won.split("/")
                assert repeats == "2" and k in ("0", "1", "2")
                assert times[-1].endswith("?")
                times[-1] = times[-1].rstrip("?")
            assert all(float(v) > 0 for v in times)


@pytest.mark.parametrize("won, repeats, expected", [
    (9, 10, False),  # p = 22/1024, about 0.021
    (10, 10, True),  # p = 2/1024
    (0, 10, True),  # the other side, as unlikely
    (18, 20, True),  # p = 422/2^20, about 4e-4
])
def test_step_sweep_resolves_by_the_corrected_sign_test(
    monkeypatch, won, repeats, expected
):
    # a cell resolves only when the exact two-sided sign test on the
    # won/lost repeats gives p <= 0.05/12; loading the script pins the BLAS
    # thread variables and puts src/ on sys.path, which monkeypatch undoes
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "step_sweep", os.path.join(ROOT, "tools", "step_sweep.py")
    )
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.resolved(won, repeats - won) is expected


def test_step_sweep_refuses_a_tree_without_step_plan(tmp_path):
    # --against a tree that lacks a library name the sweep calls (here one
    # from before the bound step plan, and one from before the quantizer
    # type) exits with a one-line message naming what it lacks instead of
    # ending in a traceback
    for name, init, lacks, has in (
        ("no-plan", '"""A decsaddle without step_plan."""\n', "step_plan", None),
        ("two-arrays", "step_plan = PrimalDualPoint = None\n", "Quantizer",
         "step_plan"),
    ):
        pkg = tmp_path / name / "decsaddle"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text(init)
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "step_sweep.py"),
             "--against", str(pkg.parent)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        prefix = f"the decsaddle package under {pkg.parent} lacks "
        line = proc.stderr.strip()
        assert line.startswith(prefix) and "\n" not in line
        missing = line[len(prefix):].split(", ")
        assert lacks in missing and has not in missing


def _mutate(path, old, new):
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))


def test_same_traces_smoke(tmp_path):
    # desk at seed 1: the repo's own src/ against itself matches, and a
    # copy of src/ whose variance-reduced solver seeds its RNG with another
    # tag and whose .meta is indented otherwise writes another trace and
    # another .meta, and the tool names both, the trace with the columns
    # the other draws move (the refresh count and the distance)
    src = tmp_path / "src"
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    _mutate(src / "decsaddle" / "solvers.py",
            "rng_for(seed, 0x5502)", "rng_for(seed, 0x5503)")
    _mutate(src / "decsaddle" / "cli.py",
            '"derived": v.record}, indent=2)', '"derived": v.record}, indent=1)')
    tool = [sys.executable, os.path.join(ROOT, "tools", "same_traces.py"),
            "--seeds", "1", "--workloads", "desk", "--against"]
    same = subprocess.run(tool + [os.path.join(ROOT, "src")],
                          capture_output=True, text=True, timeout=300)
    assert same.returncode == 0, same.stderr
    assert same.stdout.strip() == "2 files identical"
    changed = subprocess.run(tool + [str(src)], capture_output=True, text=True,
                             timeout=300)
    assert changed.returncode == 1
    assert changed.stdout.strip() == "0 files identical"
    assert changed.stderr.strip().splitlines() == [
        "desk seed 1: trace.csv differs in grad_units, dist_sq",
        "desk seed 1: trace.csv.meta differs",
    ]


def test_same_traces_scale64_smoke():
    # scale64 at seed 1, the repo's own src/ against itself: the stored
    # reference point, the trace and its .meta all match
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "same_traces.py"),
         "--seeds", "1", "--workloads", "scale64",
         "--against", os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "3 files identical"


def test_same_traces_names_columns_of_traces_of_one_shape():
    # the columns whose values differ in some row, in header order; traces
    # of another header or row count are named without columns
    columns = runpy.run_path(
        os.path.join(ROOT, "tools", "same_traces.py")
    )["differing_columns"]
    trace = b"iter,bits,dist_sq\n1,5,0.5\n2,10,0.25\n"
    assert columns(trace, trace.replace(b",0.25", b",0.3")) == " in dist_sq"
    assert columns(trace, b"iter,bits,dist_sq\n1,6,0.4\n2,10,0.25\n") == (
        " in bits, dist_sq"
    )
    assert columns(trace, trace + b"3,15,0.1\n") == ""
    assert columns(trace, trace.replace(b"bits", b"sent")) == ""


def test_same_traces_names_fields_of_metas_that_parse():
    # the dotted paths of the values that differ, a list being one value
    # and a key one side lacks included; metas that differ in formatting
    # alone, or that do not parse, are named without paths
    fields = runpy.run_path(
        os.path.join(ROOT, "tools", "same_traces.py")
    )["differing_fields"]
    meta = b'{"config": {"seed": 11}, "platform": {"cpu_features": ["X86_V2"]}}'
    assert fields(meta, meta.replace(b'"X86_V2"', b'"X86_V2", "X86_V3"')) == (
        " in platform.cpu_features"
    )
    assert fields(meta, meta.replace(b"11}", b'12, "typo": 1}')) == (
        " in config.seed, config.typo"
    )
    assert fields(meta, json.dumps(json.loads(meta), indent=2).encode()) == ""
    assert fields(meta, meta[:-1]) == ""
