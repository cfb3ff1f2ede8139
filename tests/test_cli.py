import json

import numpy as np
import pytest

from constrained_dynamics.cli import main


def test_simulate_writes_csv(tmp_path, capsys):
    rc = main(["simulate", "pendulum", "--t-end", "0.05", "--out", str(tmp_path)])
    assert rc == 0
    csv_path = tmp_path / "pendulum_trajectory.csv"
    assert csv_path.exists()
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("t,x1,x2,v1,v2,lambda1,N1,N2")
    assert len(lines) == 1 + 51
    out = capsys.readouterr().out
    assert "wrote" in out and "max |phi|" in out


def test_reactions_json_dump(capsys):
    rc = main(["reactions", "pendulum", "--state", "0,-1,2,0"])
    assert rc == 0
    dump = json.loads(capsys.readouterr().out)
    assert abs(dump["Lambda"][0] - (-14.0)) < 1e-12
    assert abs(dump["N"][1] - 14.0) < 1e-12


def test_reactions_wrong_state_length(capsys):
    # exit 2 is bad input; 1 would read as a failed check
    rc = main(["reactions", "pendulum", "--state", "1,2,3"])
    assert rc == 2
    out = capsys.readouterr()
    assert "--state expects 4 comma-separated values (x then v), got 3" in out.err
    assert out.out == ""


@pytest.mark.parametrize(
    "state, says", [("1,abc,0,0", "could not convert"), ("0,-1,nan,0", "must be finite")]
)
def test_reactions_bad_state_value_exit_code(capsys, state, says):
    rc = main(["reactions", "pendulum", "--state", state])
    assert rc == 2
    out = capsys.readouterr()
    assert says in out.err and out.out == ""


def test_check_invariants_passes(tmp_path, capsys):
    rc = main(
        ["check-invariants", "pendulum", "--t-end", "0.5", "--out", str(tmp_path)]
    )
    assert rc == 0
    report = json.loads((tmp_path / "pendulum_report.json").read_text(encoding="utf-8"))
    assert report["passed"] is True
    text = (tmp_path / "pendulum_report.txt").read_text(encoding="utf-8")
    assert "overall: PASS" in text


def test_check_invariants_tol_override_fails(tmp_path, capsys):
    rc = main(
        [
            "check-invariants", "pendulum", "--t-end", "0.2",
            "--tol", "gde-residual=1e-30", "--out", str(tmp_path),
        ]
    )
    assert rc == 1
    assert "[FAIL] gde-residual" in capsys.readouterr().out


def test_unknown_tol_name_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "check-invariants", "pendulum", "--t-end", "0.1",
                "--tol", "no-such-check=1", "--out", str(tmp_path),
            ]
        )
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "pair, says",
    [
        ("energy=nan", "energy must be a finite number >= 0, got 'nan'"),
        ("energy=inf", "energy must be a finite number >= 0, got 'inf'"),
        ("energy=abc", "energy must be a finite number >= 0, got 'abc'"),
        # the energy-nonconservation check passes when the change exceeds
        # its threshold, so a negative one would pass it by fiat
        ("energy-nonconservation=-1", "must be a finite number >= 0, got '-1'"),
        ("energy", "expects NAME=VALUE"),
    ],
)
@pytest.mark.parametrize("command", ["check-invariants", "compare-embeddings"])
def test_bad_tol_is_a_usage_error(tmp_path, capsys, command, pair, says):
    # exit 2 is bad input; 1 would read as a failed check, 0 as a pass
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "rotating-wire-bead", "--t-end", "0.1", "--tol", pair, "--out", str(out)])
    assert exc.value.code == 2
    assert says in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, t_end",
    [("check-invariants", "nan"), ("simulate", "-1"), ("compare-embeddings", "nan"),
     ("simulate", "inf"), ("check-invariants", "1e-13"), ("compare-embeddings", "1e-13")],
)
def test_horizon_that_gives_no_run_exit_code(tmp_path, capsys, command, t_end):
    rc = main([command, "pendulum", "--t-end", t_end, "--out", str(tmp_path)])
    assert rc == 2
    assert "t_end must be finite and later than the initial t=0.0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unknown_scenario_exit_code(capsys):
    rc = main(["simulate", "not-a-scenario"])
    assert rc == 2
    assert "scenario error" in capsys.readouterr().err


def test_compare_embeddings(tmp_path, capsys):
    rc = main(
        ["compare-embeddings", "pendulum", "--t-end", "1.0", "--out", str(tmp_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS] equivalence" in out
    assert "[PASS] chart-inversion" in out


@pytest.mark.parametrize("command", ["check-invariants", "compare-embeddings"])
def test_false_time_independence_exit_code(tmp_path, capsys, monkeypatch, command):
    import dataclasses

    from constrained_dynamics import catalog_scenario, cli

    sc = catalog_scenario("rotating-wire-bead")
    emb = dataclasses.replace(sc.embedding, u_t=None, u_tt=None, u_ty=None)
    sc = dataclasses.replace(sc, embedding=emb)
    monkeypatch.setattr(cli, "_load_scenario", lambda token: sc)
    rc = main([command, "rotating-wire-bead", "--t-end", "0.1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "chart declared time-independent (u_t=None)" in err and "tau=0.001" in err


def test_compare_embeddings_nonholonomic(capsys):
    rc = main(["compare-embeddings", "knife-edge", "--t-end", "0.5"])
    assert rc == 1
    assert "no embedding" in capsys.readouterr().out


def test_compare_embeddings_unconstrained(free_particle_file, capsys):
    rc = main(["compare-embeddings", str(free_particle_file), "--t-end", "0.5"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "no embedding (unconstrained system)" in out
    assert "nonholonomic" not in out


@pytest.mark.parametrize("mode", ["positional", "positional+velocity"])
@pytest.mark.parametrize("scenario", ["knife-edge", "free-particle"])
def test_projection_without_holonomic_constraints_exit_code(
    tmp_path, capsys, free_particle_file, scenario, mode
):
    token = str(free_particle_file) if scenario == "free-particle" else scenario
    out = tmp_path / "out"
    rc = main(["simulate", token, "--t-end", "0.05", "--projection", mode, "--out", str(out)])
    assert rc == 2
    assert "projection requires a holonomic constraint set" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_compare_embeddings_adaptive_method_refused(tmp_path, capsys):
    argv = ["compare-embeddings", "pendulum", "--t-end", "0.1", "--method", "rk45-adaptive"]
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    assert "second-kind integration uses the rk4-fixed method" in capsys.readouterr().err


def test_reactions_unconstrained(free_particle_file, capsys):
    rc = main(["reactions", str(free_particle_file)])
    assert rc == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["Lambda"] == []
    assert dump["N"] == [0.0, 0.0]
    assert dump["gram"] == []


def test_scenario_from_file(tmp_path, capsys):
    doc = {
        "name": "wire-copy",
        "mass": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "force": {"type": "none"},
        "constraint": {"type": "rotating-line", "omega": 1.0},
        "embedding": {"type": "rotating-line", "omega": 1.0},
        "initial": {"t": 0.0, "y": [1.0], "w": [0.0]},
        "integrator": {"method": "rk4-fixed", "dt": 1e-3},
    }
    p = tmp_path / "wire.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["simulate", str(p), "--t-end", "0.05", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "wire-copy_trajectory.csv").exists()


def test_dt_override_changes_sample_count(tmp_path, capsys):
    main(["simulate", "pendulum", "--t-end", "0.1", "--dt", "0.05", "--out", str(tmp_path)])
    lines = (tmp_path / "pendulum_trajectory.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 3


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("cdyn")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "reactions", "pendulum", "--state", "0,-1,2,0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["Lambda"] == [-14.0]


def _run_module(*argv):
    """``python -m constrained_dynamics.cli`` in a fresh process, with this
    checkout's src first on the import path."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "constrained_dynamics.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_module_entry_point_exit_codes():
    # the exit status a shell sees, which main()'s return value only implies
    proc = _run_module("reactions", "pendulum", "--state", "0,-1,2,0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["Lambda"] == [-14.0]
    proc = _run_module("check-invariants", "pendulum", "--tol", "energy=-1")
    assert proc.returncode == 2
    assert "energy must be a finite number >= 0, got '-1'" in proc.stderr
    assert proc.stdout == ""


def test_malformed_scenario_file_exit_code(tmp_path, capsys):
    doc = {
        "name": "bad-axis",
        "mass": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "force": {"type": "uniform-gravity", "g0": 10.0, "axis": 5},
        "initial": {"t": 0.0, "x": [0.0, 0.0], "v": [0.0, 0.0]},
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["simulate", str(p), "--t-end", "0.05", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "scenario error:" in err and "force.axis" in err


@pytest.mark.parametrize(
    "raw, why",
    [(b"\xff\xfe{\x00}\x00", "utf-8"), (b'{"t": ' + b"7" * 5000 + b"}", "4300 digits")],
    ids=["not-utf8", "integer-past-digit-limit"],
)
def test_unreadable_scenario_file_exit_code(tmp_path, capsys, raw, why):
    p = tmp_path / "unreadable.json"
    p.write_bytes(raw)
    rc = main(["simulate", str(p), "--t-end", "0.05", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error:\n  - unreadable scenario file") and why in err


def _pendulum_text(**sections):
    from constrained_dynamics.scenarios import _catalog_documents

    doc = dict(_catalog_documents()["pendulum"], **sections)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text, problem",
    [
        # JSON's NaN literal, which json.loads accepts
        (_pendulum_text(force={"type": "linear-spring", "k": float("nan")}),
         "force.k is not finite"),
        # a literal that overflows to inf when parsed
        (_pendulum_text(integrator={"dt": "DT"}).replace('"DT"', "1e400"),
         "integrator.dt is not finite"),
        (_pendulum_text(mass={"matrix": [[1.0, 0.5], [0.0, 1.0]]}),
         "mass: mass matrix must be symmetric"),
        (_pendulum_text(mass={"point_masses": ["PM"]}).replace('"PM"', "1e400"),
         "mass.point_masses is not finite"),
        (_pendulum_text(mass={"matrix": [[1.0, 0.0], [0.0, float("nan")]]}),
         "mass.matrix is not finite"),
        (_pendulum_text(mass={"matrix": [[float("inf"), 0.0], [0.0, 1.0]]}),
         "mass.matrix is not finite"),
        (_pendulum_text(mass=5), "mass must be an object, got int"),
        (_pendulum_text(checks=5), "checks must be a list of strings, got 5"),
        (_pendulum_text(integrator=[1e-3]), "integrator must be an object, got list"),
        ("[1, 2]", "scenario document must be an object, got list"),
    ],
    ids=[
        "nan-spring-constant", "overflowing-dt", "asymmetric-mass",
        "overflowing-point-mass", "nan-mass-entry", "inf-mass-entry",
        "mass-not-an-object", "checks-not-a-list", "integrator-a-list",
        "document-a-list",
    ],
)
def test_bad_document_value_exit_code(tmp_path, capsys, text, problem):
    p = tmp_path / "bad.json"
    p.write_text(text, encoding="utf-8")
    rc = main(["simulate", str(p), "--t-end", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "scenario error:" in err and problem in err
    assert not (tmp_path / "pendulum_trajectory.csv").exists()


@pytest.mark.parametrize("dt", ["inf", "nan"])
def test_non_finite_dt_flag_exit_code(tmp_path, capsys, dt):
    rc = main(["simulate", "pendulum", "--t-end", "1", "--dt", dt, "--out", str(tmp_path)])
    assert rc == 2
    assert f"dt must be finite and positive, got {dt}" in capsys.readouterr().err
    assert not (tmp_path / "pendulum_trajectory.csv").exists()
