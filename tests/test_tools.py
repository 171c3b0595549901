import os
import subprocess
import sys
import types

import decsaddle as ds

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


def test_step_sweep_times_the_plan_or_falls_back_to_ipdhg_step():
    # a tree with step_plan is timed through its bound plan, so no step
    # goes through ipdhg_step; a tree without it (here the same package
    # with the plan and the bound draws hidden) is timed through ipdhg_step
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        import step_sweep
    finally:
        sys.path.pop(0)
    hidden = ("step_plan", "gsgo_draw", "svrgo_draw", "ipdhg_step")
    calls = []

    def counted(*args):
        calls.append(1)
        return ds.ipdhg_step(*args)

    for has_plan in (True, False):
        tree = types.SimpleNamespace(
            **{k: getattr(ds, k) for k in dir(ds) if k not in hidden},
            ipdhg_step=counted,
        )
        if has_plan:
            tree.step_plan = ds.step_plan
            tree.gsgo_draw, tree.svrgo_draw = ds.gsgo_draw, ds.svrgo_draw
        for kind in ("gsgo", "svrgo"):
            before = len(calls)
            assert step_sweep.make_cell(tree, 4, 10, kind)(5) > 0
            ran = len(calls) - before
            assert ran == (0 if has_plan else step_sweep.WARMUP + 5)
