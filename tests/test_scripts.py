"""Smoke tests: each script under scripts/ runs at a tiny horizon."""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

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


def test_output_digests_repeat_and_cover_every_op():
    # each op writes to a fresh temporary directory, so equal stdout digests
    # of two runs also show that the directory is normalised
    runs = [_run("output_digests.py", "--t-end", "0.05") for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    labels = {line.split("  ")[1] for line in lines}
    assert all(len(line.split("  ")[0]) == 64 for line in lines)
    holonomic = ("pendulum", "spherical-pendulum", "rotating-wire-bead")
    for name in holonomic + ("knife-edge",):
        horizon = f"{name} {{}} --t-end 0.05"
        ops = [horizon.format(cmd) for cmd in ("check-invariants", "compare-embeddings")]
        for method in ("rk4-fixed", "rk45-adaptive"):
            modes = ("off", "positional", "positional+velocity") if name in holonomic else ("off",)
            ops += [horizon.format("simulate") + f" --method {method} --projection {mode}"
                    for mode in modes]
        if name in holonomic:
            ops.append(horizon.format("compare-embeddings") + " --projection positional+velocity")
        assert set(ops) | {f"{name} reactions"} <= labels
        # a simulate op hashes its CSV next to its stdout
        assert any(line.endswith(f"  {name}_trajectory.csv") for line in lines)
    # 6 simulate ops and 4 others on a holonomic scenario, 2 and 3 on the knife edge
    assert len(labels) == 3 * 10 + 5


def _digest_lines(text: str) -> dict:
    """{op label and output: sha256} of the lines an output_digests.py run prints."""
    return {label: digest for digest, label in (ln.split("  ", 1) for ln in text.splitlines())}


def test_output_digests_pass_dt_to_every_op_that_takes_it():
    # the step reaches simulate, check-invariants and compare-embeddings, and
    # an op that ends in an error hashes its standard error: at dt 5e-2 the
    # pendulum's first-kind run leaves the chart image by more than 1e-6
    plain, coarse = (
        _run("output_digests.py", "pendulum", "--t-end", "1", *dt) for dt in ([], ["--dt", "5e-2"])
    )
    for proc in (plain, coarse):
        assert proc.returncode == 0, proc.stderr
    plain, coarse = _digest_lines(plain.stdout), _digest_lines(coarse.stdout)

    def ops(lines):
        return {label.split("  ")[0] for label in lines}

    with_dt = {op.replace(" --t-end 1.0", " --t-end 1.0 --dt 0.05") for op in ops(plain)}
    assert ops(coarse) == with_dt and len(with_dt - ops(plain)) == 9
    simulate = "pendulum simulate --t-end 1.0{} --method rk4-fixed --projection off"
    csv = "  pendulum_trajectory.csv"
    assert plain[simulate.format("") + csv] != coarse[simulate.format(" --dt 0.05") + csv]
    error = (
        "error (compare-embeddings pendulum): chart inversion diverged at "
        "t=0.49999999999999994 (residual 1.243e-06); trajectory left the chart\n"
    )
    failed = "pendulum compare-embeddings --t-end 1.0 --dt 0.05"
    assert coarse[f"{failed}  stdout (exit 2)"] == hashlib.sha256(b"").hexdigest()
    assert coarse[f"{failed}  stderr"] == hashlib.sha256(error.encode()).hexdigest()
    assert [label for label in coarse if label.endswith("stderr")] == [f"{failed}  stderr"]
    assert not [label for label in plain if label.endswith("stderr")]


GOLDEN = ROOT / "tests" / "data" / "output_digests.txt"
GOLDEN_ARGS = ("--t-end", "1", "--dt", "1e-2")


def _platform_line() -> str:
    """The `#` line that heads the golden file: what the bits depend on
    besides the code. The sweep's subprocess runs this interpreter."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return (
        f"# python {platform.python_version()}  numpy {np.__version__}  "
        f"blas {blas.get('name', '?')} {blas.get('version', '?')}  "
        f"libc {' '.join(platform.libc_ver()) or '?'}"
    )


def test_outputs_match_the_golden_digests():
    # every output of every op over the catalog, held to the committed digests:
    # at dt 1e-2 the chart scenarios' matches run Gauss-Newton too
    here = _platform_line()
    regenerate = (
        f"(echo '{here}'; PYTHONPATH=src python scripts/output_digests.py "
        f"{' '.join(GOLDEN_ARGS)}) > {GOLDEN.relative_to(ROOT)}"
    )
    head, *golden = GOLDEN.read_text().splitlines()
    # the bits depend on the platform: another one fails, it is not skipped
    assert here == head, (
        f"{GOLDEN.name} was written under {head[2:]!r}, this is {here[2:]!r}; "
        f"to pin this platform instead, regenerate it with: {regenerate}"
    )
    proc = _run("output_digests.py", *GOLDEN_ARGS)
    assert proc.returncode == 0, proc.stderr
    now = proc.stdout.splitlines()
    before, after = _digest_lines("\n".join(golden)), _digest_lines(proc.stdout)
    moved = [
        f"{label}: {before.get(label, '(absent)')} -> {after.get(label, '(absent)')}"
        for label in sorted(before.keys() | after.keys())
        if before.get(label) != after.get(label)
    ]
    assert not moved, (
        f"{len(moved)} output(s) moved:\n" + "\n".join(moved)
        + f"\nif on purpose, regenerate with: {regenerate}"
    )
    assert now == golden, f"the same digests in another order; regenerate with: {regenerate}"
