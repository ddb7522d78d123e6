#!/usr/bin/env python3
"""Render a small gallery of disk images (PPM rasters plus one CSV cloud)."""
import argparse
import sys
from pathlib import Path

from logharm import RenderJob, load_fixture, parse, render_image


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="renders")
    ap.add_argument("--radial-levels", type=int, default=96)
    ap.add_argument("--angular", type=int, default=512)
    ap.add_argument("--r-max", type=float, default=0.995, dest="r_max")
    args = ap.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    res = (args.radial_levels, args.angular)

    jobs = [
        ("dilatation-self-map.ppm", parse("(2-3*z)/(3-2*z)"), "ppm", False),
        ("koebe.ppm", parse("z/(1-z)^2"), "ppm", False),
        ("vanishing-field.ppm", load_fixture("starlike-vanishing").map, "ppm", True),
        ("halfplane-cloud.csv", load_fixture("logharmonic-halfplane").map, "csv", False),
    ]
    for name, target, fmt, colored in jobs:
        job = RenderJob(
            target=target,
            path=out / name,
            resolution=res,
            fmt=fmt,
            r_max=args.r_max,
            color_by_weighted_field=colored,
        )
        s = render_image(job)
        print(
            f"{name}: {s.rows} points ({s.skipped} skipped), max|w| {s.max_abs:.4g}, "
            f"bounds [{s.bounds[0]:.3g}, {s.bounds[1]:.3g}] x [{s.bounds[2]:.3g}, {s.bounds[3]:.3g}]"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
