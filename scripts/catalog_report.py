#!/usr/bin/env python3
"""Run the full invariant suite plus the chart-equivalence comparison for
every catalog scenario and print the combined reports.

Exit code is nonzero if any check fails, so this doubles as a smoke test
after changes to the engine.
"""

import argparse
import sys

from constrained_dynamics.checks import check_scenario, compare_embeddings_report
from constrained_dynamics.scenarios import CATALOG_NAMES, catalog_scenario


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-end", type=float, default=10.0)
    args = ap.parse_args()

    all_ok = True
    for name in sorted(CATALOG_NAMES):
        sc = catalog_scenario(name)
        report = check_scenario(sc, t_end=args.t_end)
        print(report.to_text())
        all_ok &= report.passed
        if sc.embedding is not None:
            cmp = compare_embeddings_report(sc, t_end=args.t_end)
            print(cmp.to_text())
            all_ok &= cmp.passed
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
