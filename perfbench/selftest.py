#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced, emits exactly the
   metrics of BENCHMARK.json with their units, and verifies clean.
2. A wrong target injected into the sharp-norms targets makes failed_ops
   positive and the run incorrect.
3. Two seeds give the same err_ratio.max.
4. Without the package source the benchmark exits non-zero and prints no
   result.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def _run_cli(workload: str, trace: int, cwd: Path = ROOT, script: Path = RUN):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=cwd)


def test_smoke_emits_every_metric() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[group]}
        for workload in ("sharp-norms", "catalog-checks", "render-disk"):
            proc = _run_cli(workload, trace)
            expect(proc.returncode == 0, f"{workload} trace={trace}: {proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace}: {proc.stdout}")
            got = result["metrics"]
            expect(set(got) == set(declared),
                   f"{workload} trace={trace}: metric names differ: "
                   f"{sorted(set(got) ^ set(declared))}")
            for name, unit in declared.items():
                value = got[name]["value"]
                expect(got[name]["unit"] == unit, f"{name}: unit {got[name]['unit']}")
                expect(isinstance(value, (int, float)) and math.isfinite(value),
                       f"{name}: value {value!r}")
            print(f"ok  smoke {workload} trace={trace}: {len(got)} metrics")


def test_wrong_target_fails() -> None:
    import workloads

    targets = workloads.catalog_targets()
    targets[("gap-one-sharp", "pre_schwarzian_norm")] = (4.0, 0.01, False)
    result = run.run("sharp-norms", 1, 0, False, workloads.TINY, targets)
    expect(not result["correct"] and result["failed"] > 0, "wrong target went unnoticed")
    expect(result["metrics"]["failed_ops"] > 0, "failed_ops stayed 0")
    print(f"ok  wrong target: failed_ops = {result['metrics']['failed_ops']:.3f}")


def test_seeds_agree_on_err_ratio() -> None:
    import workloads

    a, b = (run.run("catalog-checks", seed, 0, False, workloads.TINY) for seed in (1, 2))
    expect(a["correct"] and b["correct"], "tiny catalog run failed verification")
    ea, eb = a["metrics"]["err_ratio.max"], b["metrics"]["err_ratio.max"]
    expect(ea == eb, f"err_ratio.max differs across seeds: {ea!r} vs {eb!r}")
    print(f"ok  seeds 1 and 2 agree: err_ratio.max = {ea!r}")


def test_bare_directory_fails() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run_cli("sharp-norms", 0, cwd=bare, script=bare / HERE.name / RUN.name)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0, "bare directory run exited 0")
    expect(not proc.stdout.strip(), f"bare directory run printed {proc.stdout!r}")
    print("ok  bare directory: exit", proc.returncode)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    import run

    run._import_package()
    test_bare_directory_fails()
    test_wrong_target_fails()
    test_seeds_agree_on_err_ratio()
    test_smoke_emits_every_metric()
    print("all self-tests passed")
