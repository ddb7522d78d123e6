#!/usr/bin/env python3
"""Print the sharp-constant scoreboard: estimated norms vs closed-form targets.

The maps and their targets come from the fixture catalog (fixtures.json):
each row is a `run_fixture` row whose metric is a norm, on the requested
grid, with its `ok` against the catalog tolerance.  Exits 1 when any row is
not ok.
"""
import argparse
import sys
import time

from logharm import GridSpec, fixture_names, load_fixture, run_fixture

NORM_METRICS = frozenset({
    "pre_schwarzian_norm",
    "product_pre_schwarzian_norm",
    "member_pre_schwarzian_norm",
    "bloch_log_g",
    "schwarzian_norm",
})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radial-levels", type=int, default=200)
    ap.add_argument("--angular", type=int, default=512)
    ap.add_argument("--refine", type=int, default=3)
    args = ap.parse_args()
    grid = GridSpec(
        radial_levels=args.radial_levels,
        angular_count=args.angular,
        refine_rounds=args.refine,
    )

    t0 = time.perf_counter()
    rows = []
    for name in fixture_names():
        if NORM_METRICS.isdisjoint(c["metric"] for c in load_fixture(name).checks):
            continue
        for row in run_fixture(name, grid).rows:
            if row.metric in NORM_METRICS:
                rows.append((f"{name} {row.metric}", row.computed, row.expected, row.ok))
    elapsed = time.perf_counter() - t0

    width = max(len(r[0]) for r in rows)
    print(f"{'case':<{width}}  {'estimate':>16}  {'target':>12}  {'deviation':>10}  ok")
    for label, got, target, ok in rows:
        print(
            f"{label:<{width}}  {got:>16.10f}  {target:>12.8f}  {abs(got - target):>10.2e}"
            f"  {'yes' if ok else 'NO'}"
        )
    failed = sum(not ok for *_, ok in rows)
    print(f"\n{len(rows)} norms on a {grid.radial_levels}x{grid.angular_count} grid in {elapsed:.1f}s"
          f", {failed} outside tolerance")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
