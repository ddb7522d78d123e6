#!/usr/bin/env python3
"""Print the sharp-constant scoreboard: estimated norms vs closed-form targets.

The maps and their targets come from the fixture catalog (fixtures.json);
each row is one norm row of `run_fixture` on the requested grid, with its
`ok` against the catalog tolerance.  Exits 1 when any row is not ok.
"""
import argparse
import sys
import time

from logharm import GridSpec, run_fixture

# (fixture, norm metric, scoreboard label), in print order
SCOREBOARD = (
    ("gap-one-sharp", "pre_schwarzian_norm", "gap-one  |P_f|"),
    ("gap-one-sharp", "product_pre_schwarzian_norm", "gap-one  |P_hg|"),
    ("gap-five-sharp", "pre_schwarzian_norm", "gap-five |P_f|"),
    ("gap-five-sharp", "member_pre_schwarzian_norm", "gap-five member"),
    ("gap-five-sharp", "bloch_log_g", "gap-five Bloch(log g)"),
    ("mobius-gap-a60", "pre_schwarzian_norm", "mobius-a60 |P_f|"),
    ("mobius-gap-a90", "pre_schwarzian_norm", "mobius-a90 |P_f|"),
    ("mobius-gap-a99", "pre_schwarzian_norm", "mobius-a99 |P_f|"),
    ("koebe", "pre_schwarzian_norm", "koebe |P|"),
    ("koebe", "schwarzian_norm", "koebe |S|"),
)


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
    results = {}
    rows = []
    for fixture, metric, label in SCOREBOARD:
        if fixture not in results:
            results[fixture] = {r.metric: r for r in run_fixture(fixture, grid).rows}
        row = results[fixture][metric]
        rows.append((label, row.computed, row.expected, row.ok))
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
