"""Smoke tests: each script under scripts/ runs at a tiny horizon."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


def test_catalog_report_passes_at_short_horizon():
    # 0.5 s is the shortest horizon at which the rotating bead's energy change shows
    proc = _run("catalog_report.py", "--t-end", "0.5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "[FAIL]" not in proc.stdout
    assert "[PASS] equivalence" in proc.stdout
    assert "[PASS] covariance" in proc.stdout


def test_convergence_study_observes_fourth_order():
    proc = _run(
        "convergence_study.py", "--t-end", "0.2", "--dts", "1e-2,5e-3", "--projection"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    order = float(next(row for row in rows if len(row) == 4 and row[0] == "5.0e-03")[3])
    assert abs(order - 4.0) < 0.2
    assert "with positional+velocity projection:" in proc.stdout


def test_convergence_study_refuses_projection_of_a_nonholonomic_scenario():
    proc = _run(
        "convergence_study.py", "--scenario", "knife-edge", "--t-end", "0.1", "--dts", "1e-2",
        "--projection",
    )
    assert proc.returncode == 2
    assert "--projection needs a holonomic scenario; 'knife-edge' is not one" in proc.stderr
    assert proc.stdout == ""
