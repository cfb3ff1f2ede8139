"""Command-line driver: simulate | reactions | check-invariants | compare-embeddings.

The scenario argument is either a built-in catalog name or a path to a
JSON scenario document.  Exit code is 0 iff every requested check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checks import DEFAULT_THRESHOLDS, check_scenario, compare_embeddings_report
from .integrate import METHODS, PROJECTIONS, integrate_first_kind
from .reactions import reaction
from .scenarios import Scenario, ScenarioError, catalog_scenario, parse_scenario
from .smooth import State


def _load_scenario(token: str) -> Scenario:
    if Path(token).exists():
        return parse_scenario(token)
    return catalog_scenario(token)


def _apply_flags(sc: Scenario, args) -> Scenario:
    """``sc`` with the integrator settings given on the command line."""
    flags = {k: getattr(args, k) for k in ("dt", "method", "projection")}
    given = {k: v for k, v in flags.items() if v is not None}
    return replace(sc, integrator=replace(sc.integrator, **given))


def _tol(pair: str):
    """(name, value) of one ``--tol NAME=VALUE``; argparse exits 2 on its error."""
    name, eq, text = pair.partition("=")
    if not eq or name not in DEFAULT_THRESHOLDS:
        known = ", ".join(sorted(DEFAULT_THRESHOLDS))
        raise argparse.ArgumentTypeError(f"expects NAME=VALUE, NAME one of {known}; got {pair!r}")
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"{name} must be a finite number >= 0, got {text!r}")
    return name, value


def _outdir(args) -> Path:
    out = Path(args.out) if args.out else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    sc = _apply_flags(_load_scenario(args.scenario), args)
    traj = integrate_first_kind(
        sc.system, sc.constraints, sc.initial, args.t_end, sc.integrator
    )
    out = _outdir(args)
    csv_path = out / f"{sc.name}_trajectory.csv"
    csv_path.write_text(traj.to_csv(), encoding="utf-8", newline="")
    print(f"wrote {csv_path} ({len(traj)} samples)")
    print(f"max |phi| = {traj.max_diag('phi_norm'):.3e}")
    if sc.constraints is not None and sc.constraints.is_holonomic:
        print(f"max |g|   = {traj.max_diag('g_norm'):.3e}")
    return 0


def cmd_reactions(args) -> int:
    sc = _load_scenario(args.scenario)
    if args.state is not None:
        vals = [float(z) for z in args.state.split(",")]
        m = sc.dim
        if len(vals) != 2 * m:
            raise ValueError(
                f"--state expects {2 * m} comma-separated values (x then v), got {len(vals)}"
            )
        s = State(t=args.t, x=np.array(vals[:m]), v=np.array(vals[m:]))
    else:
        s = sc.initial
    res = reaction(sc.system, sc.constraints, s)
    dump = {
        "t": s.t,
        "x": s.x.tolist(),
        "v": s.v.tolist(),
        "Lambda": res.Lambda.tolist(),
        "N": res.N.tolist(),
        "gram": res.gram.tolist(),
    }
    print(json.dumps(dump, indent=2))
    return 0


def _emit_report(report, args) -> int:
    out = _outdir(args)
    text = report.to_text()
    (out / f"{report.scenario}_report.txt").write_text(text, encoding="utf-8", newline="")
    (out / f"{report.scenario}_report.json").write_text(
        json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8", newline=""
    )
    print(text, end="")
    return 0 if report.passed else 1


def cmd_check_invariants(args) -> int:
    sc = _apply_flags(_load_scenario(args.scenario), args)
    report = check_scenario(sc, t_end=args.t_end, thresholds=dict(args.tol or ()))
    return _emit_report(report, args)


def cmd_compare_embeddings(args) -> int:
    sc = _apply_flags(_load_scenario(args.scenario), args)
    if sc.embedding is None:
        kind = "unconstrained system" if sc.unconstrained else "nonholonomic"
        print(f"scenario {sc.name!r} declares no embedding ({kind}); nothing to compare")
        return 1
    report = compare_embeddings_report(sc, t_end=args.t_end, thresholds=dict(args.tol or ()))
    return _emit_report(report, args)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cdyn", description="constrained-dynamics simulation and verification"
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, t_end_default=10.0):
        sp.add_argument("scenario", help="catalog name or scenario JSON path")
        sp.add_argument("--t-end", type=float, default=t_end_default)
        sp.add_argument("--dt", type=float, default=None)
        sp.add_argument("--method", choices=METHODS, default=None)
        sp.add_argument("--projection", choices=PROJECTIONS, default=None)
        sp.add_argument("--tol", action="append", type=_tol, metavar="NAME=VALUE",
                        help="override a check threshold")
        sp.add_argument("--out", default=None, help="output directory")

    sp = sub.add_parser("simulate", help="first-kind trajectory to CSV")
    common(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("reactions", help="reaction result at one state")
    sp.add_argument("scenario")
    sp.add_argument("--state", default=None, help="comma-separated x then v")
    sp.add_argument("--t", type=float, default=0.0)
    sp.set_defaults(fn=cmd_reactions)

    sp = sub.add_parser("check-invariants", help="full property suite for a scenario")
    common(sp)
    sp.set_defaults(fn=cmd_check_invariants)

    sp = sub.add_parser("compare-embeddings", help="first/second-kind match report")
    common(sp)
    sp.set_defaults(fn=cmd_compare_embeddings)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print("scenario error:", file=sys.stderr)
        for prob in exc.problems:
            print(f"  - {prob}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface with context, nonzero exit
        print(f"error ({args.command} {getattr(args, 'scenario', '')}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
