"""Self-test of the benchmark: python3 -m pytest cdynbench (from the repository root)."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import BASE_DOCUMENTS, WORKLOADS, Op, make_documents

RUN = Path(run.__file__).resolve()
DEFINITION = run.load_definition()


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_named_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seed", "5", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = _last_json(proc.stdout)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    wanted = DEFINITION["per_layer" if trace else "end_to_end"]
    for workload in WORKLOADS:
        for name, unit in wanted.items():
            metric = result["metrics"][f"{workload}/{name}"]
            assert metric["unit"] == unit, (workload, name)
            assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
    assert len(result["metrics"]) == len(WORKLOADS) * len(wanted)
    if trace:
        assert result["metrics"]["trajectory/maps.force_evals_per_step"]["value"] == 6.0


def _drop_last_row(original):
    def to_csv(self):
        text = original(self)
        return text[: text.rstrip("\n").rfind("\n") + 1]

    return to_csv


@pytest.mark.parametrize("workload", ["trajectory", "property-suite"])
def test_corrupted_output_is_a_failed_op(workload, monkeypatch, capsys):
    run.load_engine()
    from constrained_dynamics import checks, integrate

    if workload == "trajectory":  # one CSV row short of steps + 1
        monkeypatch.setattr(integrate.Trajectory, "to_csv",
                            _drop_last_row(integrate.Trajectory.to_csv))
    else:  # a loosened threshold must not pass as a faster, equally good run
        monkeypatch.setitem(checks.DEFAULT_THRESHOLDS, "virtual-work", 1e-3)
    rc = run.main(["--workload", workload, "--smoke", "--seed", "2"])
    out = capsys.readouterr().out
    result = _last_json(out)
    ops = len(WORKLOADS[workload].ops) + 1  # the timed pass and the warm-up op
    assert rc == 1
    assert result["correct"] is False
    assert result["failed"] == ops and result["attempted"] == ops + 1  # + the oracle probe
    assert "FAILED" in out


def test_same_seed_same_documents_on_the_constraints():
    run.load_engine()
    from constrained_dynamics.scenarios import scenario_from_document

    assert make_documents(7) == make_documents(7)
    assert make_documents(7) != make_documents(8)
    for name, doc in make_documents(7).items():
        sc = scenario_from_document(doc)
        s = sc.initial
        assert abs(sc.constraints.phi(s.t, s.x, s.v)).max() < 1e-14, name


def test_exits_nonzero_without_the_engine_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN.parent, tmp_path / RUN.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{RUN.parent.name}/run.py", "--workload", "trajectory", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode not in (0, 1)
    assert '"metrics"' not in proc.stdout


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: RK4 with positional+velocity projection on rotating-wire-bead raises "
    "ProjectionError between t=9 and t=10; the absolute 1e-12 g-tolerance is below the "
    "rounding floor once |x| ~ 1e4"))
def test_projected_rk4_reaches_t10_on_rotating_wire_bead(tmp_path):
    # the unperturbed catalog state; whether a perturbed one trips the
    # tolerance by t=10 depends on rounding (seed 7 does, seed 1 does not)
    cli, _, _ = run.load_engine()
    base = {"rotating-wire-bead": BASE_DOCUMENTS["rotating-wire-bead"]}
    docs = run.write_documents(base, tmp_path / "docs")
    runner = run.Runner(cli.main, docs, tmp_path / "out", lambda: 0.0)
    op = Op("simulate", "rotating-wire-bead", 10.0, ("--projection", "positional+velocity"))
    record = runner.run(op)
    assert record.outcome is not None, record.error
