import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_step_sweep_smoke():
    # every (m, d, oracle) cell of the sweep runs and prints one row; with
    # --against (here the same tree imported a second time) each row adds
    # the other tree's time and the ratio
    sweep = [sys.executable, os.path.join(ROOT, "tools", "step_sweep.py"),
             "--steps", "5", "--repeats", "2"]
    for extra, against in (([], []), (["against", "ratio"],
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
            assert all(float(v) > 0 for v in times)


def test_step_sweep_refuses_a_tree_without_step_plan(tmp_path):
    # --against a tree from before the bound step plan, or from before the
    # stacked primal-dual points, exits with a one-line message instead of
    # timing some other step
    for name, init, message in (
        ("no-plan", '"""A decsaddle without step_plan."""\n', "has no step_plan"),
        ("two-arrays", "step_plan = PrimalDualPoint = None\n",
         "takes separate x and y arrays (it exports PrimalDualPoint), not "
         "stacked points"),
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
        expected = f"the decsaddle package under {pkg.parent} {message}"
        assert proc.stderr.strip() == expected
