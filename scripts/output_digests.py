#!/usr/bin/env python3
"""Print the sha256 of every output of the `cdyn` ops on each scenario.

For each scenario (the catalog by default, or the catalog names and JSON
scenario paths given) the ops run in-process through
`constrained_dynamics.cli.main`, each with a fresh output directory:

- `simulate` under rk4-fixed and rk45-adaptive, in every projection mode
  the scenario allows (all three on holonomic constraints, `off` otherwise);
- `check-invariants`;
- `compare-embeddings`;
- `reactions` at the scenario's initial state.

`--dt DT` passes the step to every op that takes one (all but
`reactions`); without it each op keeps the scenario's own step.

One line is printed per written file and one per op's standard output,
in which the output directory reads `<out>`, and one more per op that
writes to standard error, such as an op that ends in an error:

    <sha256>  <scenario> <op argv>  <file name | stdout (exit <code>) | stderr>

Two runs of one commit print the same lines, so `diff` of the output of
two commits names every output that moved.  The bits also depend on the
platform: Python, numpy, its BLAS and the C library's libm.  The tier-1
golden file `tests/data/output_digests.txt` holds the lines of

    scripts/output_digests.py --t-end 1 --dt 1e-2

under one `#` line that names the platform they were written on.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path
from typing import Optional

from constrained_dynamics.cli import main as cdyn
from constrained_dynamics.integrate import METHODS, PROJECTIONS
from constrained_dynamics.scenarios import CATALOG_NAMES, catalog_scenario, parse_scenario


def _ops(token: str, t_end: float, dt: Optional[float] = None):
    """(argv without --out, whether the op takes --out) of every op run on
    ``token``."""
    sc = parse_scenario(token) if Path(token).exists() else catalog_scenario(token)
    holonomic = sc.constraints is not None and sc.constraints.is_holonomic
    horizon = ["--t-end", repr(t_end)] + ([] if dt is None else ["--dt", repr(dt)])
    for method in METHODS:
        for projection in PROJECTIONS if holonomic else PROJECTIONS[:1]:
            flags = ["--method", method, "--projection", projection]
            yield ["simulate", token, *horizon, *flags], True
    yield ["check-invariants", token, *horizon], True
    yield ["compare-embeddings", token, *horizon], True
    yield ["reactions", token], False


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(token: str, t_end: float, dt: Optional[float] = None):
    """(sha256, label) of each output of the ops on ``token``."""
    name = Path(token).name
    for argv, writes in _ops(token, t_end, dt):
        label = " ".join([name, *argv[:1], *argv[2:]])
        with tempfile.TemporaryDirectory() as tmp:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cdyn(argv + ["--out", tmp] if writes else argv)
            text = stdout.getvalue().replace(tmp, "<out>")
            yield _sha(text.encode("utf-8")), f"{label}  stdout (exit {code})"
            errors = stderr.getvalue().replace(tmp, "<out>")
            if errors:
                yield _sha(errors.encode("utf-8")), f"{label}  stderr"
            for path in sorted(Path(tmp).iterdir()):
                yield _sha(path.read_bytes()), f"{label}  {path.name}"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("scenarios", nargs="*", default=list(CATALOG_NAMES),
                    help="catalog names or scenario JSON paths (default: the catalog)")
    ap.add_argument("--t-end", type=float, default=1.0, help="horizon of every op but reactions")
    ap.add_argument("--dt", type=float, default=None,
                    help="step of every op but reactions (default: the scenario's)")
    args = ap.parse_args()
    for token in args.scenarios:
        for digest, label in digests(token, args.t_end, args.dt):
            print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
