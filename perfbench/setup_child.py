"""One fresh-interpreter set-up: import logharm, load the catalog from
fixtures.json, build the named fixture maps and parse the extra expressions.

Usage: python3 perfbench/setup_child.py [--expr TEXT ...] FIXTURE ...
Prints {"import_s": ..., "build_s": ...} on stdout.
"""
import argparse
import json
import sys
import time
from pathlib import Path

ap = argparse.ArgumentParser()
ap.add_argument("--expr", action="append", default=[])
ap.add_argument("fixtures", nargs="*")
args = ap.parse_args()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import logharm  # noqa: E402

t1 = time.perf_counter()
built = [logharm.load_fixture(n).map for n in args.fixtures]
parsed = [logharm.parse(e) for e in args.expr]
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
