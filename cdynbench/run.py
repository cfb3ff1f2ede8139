#!/usr/bin/env python3
"""Benchmark of the constrained-dynamics engine through its ``cdyn`` command line.

Run from the repository root:

    python3 cdynbench/run.py --workload trajectory --seed 1 --seconds 25 --trace 0
    python3 cdynbench/run.py --seed 1              # every workload, one process each
    python3 cdynbench/run.py --workload drift-control --smoke

Each workload is a closed loop in one process: the next op starts when the
previous one has finished.  An op is one ``cdyn`` subcommand, run in-process
through ``constrained_dynamics.cli.main(argv)`` on a scenario document
generated from ``--seed``, and its output is checked (see verify.py).  The op
list is repeated until ``--seconds`` have passed; timings are medians over
those passes.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics instead (see tracing.py).  The metric names and units
are those of BENCHMARK.json; NOTES.md says why each workload exists.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status is 0 when every op passed its
checks, 1 when one failed, 2 when the benchmark could not run at all.
Results, the machine stamp and the span table are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

from verify import ORACLE_ARGV, CheckFailed, Outcome, check_op, check_oracle, expected_outputs
from workloads import WORKLOADS, Op, make_documents, write_documents

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
PACKAGE = "constrained_dynamics"
SETUP_REPS = 3
IMPORT_SAMPLES = 4  # the run's own import, then one after each third of the timed loop


class BenchError(RuntimeError):
    """The benchmark cannot run here (no engine source, bad definition)."""


def load_engine():
    """Import the engine from ./src of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no engine source at {src / PACKAGE}; run from a repository checkout")
    sys.path.insert(0, str(src))
    cli = importlib.import_module(f"{PACKAGE}.cli")
    pkg = sys.modules[PACKAGE]
    if Path(pkg.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise BenchError(f"{PACKAGE} was imported from {pkg.__file__}, not from {src}")
    return cli, importlib.import_module(f"{PACKAGE}.scenarios"), pkg.__version__


def import_seconds() -> float:
    """Time to import the engine from ./src in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            f"import {PACKAGE}.cli; print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def load_definition() -> Dict[str, Dict[str, str]]:
    """Metric name -> unit, for the end_to_end and per_layer lists of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


# ---------------------------------------------------------------------------
# ops


def call(main: Callable, argv: List[str]):
    """(exit code or None if it raised, seconds, stdout, stderr) of one main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse and cdyn usage errors
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            print(exc, file=sys.stderr)
        except Exception:  # noqa: BLE001 - an op that raises is a failed op
            rc = None
            traceback.print_exc()
        seconds = perf_counter() - t0
    return rc, seconds, out.getvalue(), err.getvalue()


@dataclass
class OpRecord:
    label: str
    seconds: float
    outcome: Optional[Outcome]
    error: str = ""
    ref: float = 0.0  # reference kernel seconds, timed right after the op


class Runner:
    """Runs ops on the generated documents and checks what each one wrote."""

    def __init__(self, main: Callable, docs: Dict[str, Path], out_dir: Path,
                 reference: Callable[[], float]):
        self.main = main
        self.docs = docs
        self.out_dir = out_dir
        self.reference = reference
        out_dir.mkdir(parents=True, exist_ok=True)

    def run(self, op: Op, main: Optional[Callable] = None) -> OpRecord:
        for path in expected_outputs(op, self.out_dir):
            path.unlink(missing_ok=True)  # never check a stale file
        argv = op.argv(self.docs[op.scenario], self.out_dir)
        rc, seconds, stdout, stderr = call(main or self.main, argv)
        ref = self.reference()
        try:
            outcome, error = check_op(op, rc, self.out_dir, stdout, stderr), ""
        except CheckFailed as exc:
            outcome, error = None, str(exc)
        return OpRecord(op.label, seconds, outcome, error, ref)


def setup(cli, scenarios, wl, seed: int, work: Path, reps: int, reference):
    """Generate and parse the documents, probe the oracle and warm up, ``reps`` times.

    Returns (set-up seconds of each repetition, op records, runner).
    """
    times, records, runner = [], [], None
    for _ in range(reps):
        t0 = perf_counter()
        paths = write_documents(make_documents(seed), work / "docs")
        for name, path in paths.items():
            try:
                scenarios.parse_scenario(path)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                records.append(OpRecord(f"parse {name}", 0.0, None, f"{exc}"))
        elapsed = perf_counter() - t0
        rc, seconds, stdout, _ = call(cli.main, ORACLE_ARGV)
        try:
            check_oracle(rc, stdout)
            records.append(OpRecord("reactions oracle", seconds, Outcome(0, 0.0)))
        except CheckFailed as exc:
            records.append(OpRecord("reactions oracle", seconds, None, str(exc)))
        runner = Runner(cli.main, paths, work / "out", reference)
        warm = runner.run(wl.smoke_ops()[0])
        records.append(warm)
        times.append(elapsed + seconds + warm.seconds)
    return times, records, runner


@dataclass
class Pass:
    traced: bool
    records: List[OpRecord]

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.records)

    @property
    def steps(self) -> int:
        return sum(r.outcome.steps for r in self.records if r.outcome is not None)

    @property
    def ref(self) -> float:
        """Mean reference kernel time during the pass."""
        return statistics.fmean(r.ref for r in self.records)

    @property
    def op_refs(self) -> List[float]:
        """Each op's time in units of the kernel times taken just before and after it."""
        out, before = [], None
        for r in self.records:
            unit = r.ref if before is None else 0.5 * (before + r.ref)
            out.append(r.seconds / unit)
            before = r.ref
        return out

    @property
    def wall_ref(self) -> float:
        return sum(self.op_refs)


def run_passes(runner: Runner, ops, deadline: float, tracer=None) -> List[Pass]:
    """Repeat the op list until ``deadline`` (a perf_counter value), at least once.

    With a tracer, passes alternate untraced and traced, and at least one
    of each is run.
    """
    from tracing import OP_SPAN, Instrumented

    passes: List[Pass] = []
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        records = []
        main = tracer.span(OP_SPAN, runner.main) if traced else None
        with Instrumented(PACKAGE, tracer) if traced else nullcontext():
            for op in ops:
                if traced:
                    tracer.op_id += 1
                records.append(runner.run(op, main))
        passes.append(Pass(traced, records))
        if perf_counter() >= deadline and (tracer is None or len(passes) >= 2):
            return passes


# ---------------------------------------------------------------------------
# stamp and metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_stamp(args, version: str) -> Dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "engine_version": version,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": _blas_threads(), "platform": platform.platform(),
    }


def end_to_end(setup_s: float, passes: List[Pass], records: List[OpRecord]) -> Dict[str, tuple]:
    timed = [r for p in passes for r in p.records]
    ok = [r.outcome for r in timed if r.outcome is not None]
    failed = sum(r.outcome is None for r in records)
    op_times = [r.seconds for r in timed]
    op_refs = [x for p in passes for x in p.op_refs]
    n_passes = f"median of {len(passes)} passes of {len(passes[0].records)} ops"
    return {
        "setup_s": (setup_s, "s", "median import + median set-up"),
        "wall_ref": (statistics.median(p.wall_ref for p in passes), "ref", n_passes),
        "steps_per_ref": (statistics.median(p.steps / p.wall_ref for p in passes), "1/ref",
                          "accepted steps, first and second kind"),
        "op_ref_p50": (statistics.median(op_refs), "ref", f"median of {len(op_refs)} ops"),
        "wall_s": (statistics.median(p.wall for p in passes), "s", n_passes),
        "steps_per_s": (statistics.median(p.steps / p.wall for p in passes), "1/s",
                        "accepted steps, first and second kind"),
        "op_s_p50": (statistics.median(op_times), "s", f"median of {len(op_times)} ops"),
        "ref_ms": (statistics.median(p.ref for p in passes) * 1e3, "ms",
                   "reference kernel time, the unit ref; median over passes"),
        "ops_ok_ratio": ((len(records) - failed) / len(records), "ratio",
                         f"{len(records) - failed} of {len(records)} ops passed"),
        "max_constraint_drift": (max((o.drift for o in ok), default=0.0), "residual",
                                 "max g_norm, phi_norm over recorded samples"),
        "worst_check_ratio": (max((o.worst_ratio for o in ok), default=0.0), "ratio",
                              "max value/threshold of <= checks and the drift bound"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "process peak resident set"),
    }


def run_workload(args) -> int:
    t0 = perf_counter()
    cli, scenarios, version = load_engine()
    import_s = perf_counter() - t0
    # after the timed import, since these load numpy themselves
    from reference import reference_seconds
    from tracing import Tracer, layer_metrics

    definition = load_definition()
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{wl.name}"
    shutil.rmtree(work, ignore_errors=True)

    reps = 1 if args.smoke else SETUP_REPS
    setup_times, records, runner = setup(cli, scenarios, wl, args.seed, work, reps,
                                         reference_seconds)
    ops = wl.smoke_ops() if args.smoke else wl.ops
    tracer = Tracer() if args.trace else None
    # the import is timed in fresh interpreters between thirds of the loop,
    # so that its median spans the run as the pass medians do
    seconds = 0.0 if args.smoke else args.seconds
    chunks = 1 if args.smoke else IMPORT_SAMPLES - 1
    passes, import_times, t_start = [], [import_s], perf_counter()
    for k in range(1, chunks + 1):
        passes += run_passes(runner, ops, t_start + seconds * k / chunks, tracer)
        if not args.smoke:
            import_times.append(import_seconds())
    setup_s = statistics.median(import_times) + statistics.median(setup_times)
    records += [r for p in passes for r in p.records]
    failed = [r for r in records if r.outcome is None]

    untraced = [p for p in passes if not p.traced]
    metrics = end_to_end(setup_s, untraced, records)
    if tracer is not None:
        traced = [p for p in passes if p.traced]
        metrics.update(layer_metrics(tracer, len(traced)))
        metrics["trace.overhead_ratio"] = (
            statistics.median(p.wall_ref for p in traced)
            / statistics.median(p.wall_ref for p in untraced),
            "ratio", "traced wall_ref / untraced wall_ref")
    wanted = definition["per_layer" if args.trace else "end_to_end"]
    for name, unit in wanted.items():
        if name not in metrics or metrics[name][1] != unit:
            raise BenchError(f"metric {name} [{unit}] is not produced as BENCHMARK.json names it")

    OUT.mkdir(exist_ok=True)
    result = {
        "stamp": machine_stamp(args, version),
        "attempted": len(records), "failed": len(failed),
        "failures": [f"{r.label}: {r.error}" for r in failed],
        "setup": {"import_s": import_times, "repetitions_s": setup_times},
        "passes": [{"traced": p.traced, "wall_s": p.wall, "ref_s": p.ref} for p in passes],
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"{wl.name}-spans.tsv")

    print(f"# {wl.name}: seed {args.seed}, {len(untraced)} untraced"
          f"{f' and {len(passes) - len(untraced)} traced' if tracer else ''} passes"
          f" of {len(ops)} ops; results in {OUT.name}/{tag}.json")
    for name, (value, unit, note) in sorted(metrics.items()):
        mark = "*" if name in wanted else " "
        print(f"{mark} {name:40s} {value:>14.6g} {unit:9s} {note}")
    for r in failed:
        print(f"FAILED {r.label}: {r.error}")
    print(json.dumps({
        "correct": not failed, "attempted": len(records), "failed": len(failed),
        "metrics": {k: {"value": metrics[k][0], "unit": u} for k, u in wanted.items()},
    }))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Every workload in a process of its own, so set-up and peak memory are per workload."""
    combined, attempted, failed, rc = {}, 0, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        rc = max(rc, proc.returncode)
        combined.update({f"{name}/{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return rc


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="cdyn benchmark")
    ap.add_argument("--workload", choices=["all", *WORKLOADS], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short horizons, one set-up and one pass: a fast self-test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"cdynbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
