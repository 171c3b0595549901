import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_step_sweep_smoke():
    # every (m, d, oracle) cell of the sweep runs and prints one row
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "step_sweep.py"),
         "--steps", "5", "--repeats", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().splitlines()
    assert header.split() == ["m", "d", "oracle", "us/step"]
    assert len(rows) == 12
    for row in rows:
        m, d, kind, us = row.split()
        assert kind in ("gsgo", "svrgo") and float(us) > 0
