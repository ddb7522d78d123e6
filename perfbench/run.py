#!/usr/bin/env python3
"""Benchmark of the logharm package, driven through its public functions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is sharp-norms, catalog-checks or render-disk; ``all`` runs the three
one after another, each in its own process.  A run sets up the workload
several times in fresh interpreters, makes one untimed warm-up pass, then
makes passes over the workload's operations until S seconds have gone.
Every result is verified.  With --trace 0 the run reports the end-to-end
metrics of BENCHMARK.json; with --trace 1 it alternates untraced and
traced passes and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  METRICS.md says what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WARMUP = "one full pass before timing, traced to count field points; not timed"


def _import_package():
    if not (SRC / "logharm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'logharm'}")
    sys.path.insert(0, str(SRC))
    import logharm

    if Path(logharm.__file__).resolve().parent != (SRC / "logharm").resolve():
        sys.exit(f"perfbench: logharm imported from {logharm.__file__}, not from {SRC}")


class Ledger:
    """Verifies each result; keeps the counts, the largest error ratio and
    the first problems found."""

    def __init__(self):
        self.reference: dict[tuple[str, str], str] = {}
        self.attempted = 0
        self.failed = 0
        self.err_max = 0.0
        self.problems: list[str] = []

    def record(self, op, result, error, span) -> None:
        self.attempted += 1
        if error is not None:
            self._fail(f"{op.kind} {op.key} raised {type(error).__name__}: {error}")
            return
        try:
            v = op.check(result)
        except Exception as exc:  # a result that cannot be checked is a failure
            self._fail(f"{op.kind} {op.key}: check raised {type(exc).__name__}: {exc}")
            return
        if span is not None:
            span.attrs.update(v.attrs)
        if v.err is not None:
            self.err_max = max(self.err_max, v.err)
        ref = self.reference.setdefault((op.kind, op.key), v.fingerprint)
        if not v.ok:
            self._fail(v.detail)
        elif ref != v.fingerprint:
            self._fail(f"{op.kind} {op.key}: result differs from the warm-up pass")

    def _fail(self, detail: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(detail)


def run_pass(ops, order: random.Random, ledger: Ledger, tracer=None,
             op_seconds: list | None = None) -> float:
    """One pass in seeded order; returns the summed op time in seconds.

    Results are verified after the pass, with the tracer removed, so that
    verification adds no spans; each op writes its own output files.
    """
    ops = list(ops)
    order.shuffle(ops)
    done = []
    total = 0
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            span = tracer.open("op", kind=op.kind, key=op.key) if tracer else None
            t0 = perf_counter_ns()
            try:
                result, error = op.run(), None
            except Exception as exc:  # counted as a failed operation
                result, error = None, exc
            dt = perf_counter_ns() - t0
            if span is not None:
                tracer.close(span)
            total += dt
            if op_seconds is not None:
                op_seconds.append(dt / 1e9)
            done.append((op, result, error, span))
    finally:
        if tracer is not None:
            tracer.uninstall()
    for op, result, error, span in done:
        ledger.record(op, result, error, span)
    return total / 1e9


def setup_launches(wl, count: int) -> list[dict]:
    """Fresh-interpreter set-ups; each entry has wall_s, import_s, build_s."""
    cmd = [sys.executable, str(HERE / "setup_child.py"), *wl.fixture_names]
    for e in wl.exprs:
        cmd += ["--expr", e]
    out = []
    for _ in range(count):
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        wall = perf_counter() - t0
        out.append({"wall_s": wall, **json.loads(proc.stdout.splitlines()[-1])})
    return out


def _points(spans) -> int:
    fields = sum(s.attrs["points"] for s in spans if s.name == "maps.field")
    meshes = sum(s.attrs.get("mesh_points", 0) for s in spans if s.name == "op")
    return fields + meshes


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run(workload: str, seed: int, seconds: float, trace: bool, cfg, targets=None) -> dict:
    """One benchmark run; returns the result object and its provenance."""
    import numpy as np

    import logharm
    import micro
    import workloads
    from spans import Tracer, layer_metrics

    OUT.mkdir(exist_ok=True)
    targets = targets if targets is not None else workloads.catalog_targets()
    rng = np.random.default_rng(seed)
    order = random.Random(seed)
    wl = workloads.build(workload, cfg, rng, OUT, targets)
    launches = setup_launches(wl, cfg.setup_launches)
    ledger = Ledger()

    warm = Tracer()
    run_pass(wl.ops, order, ledger, warm)
    points = _points(warm.spans)

    metrics: dict[str, float] = {}
    traced_runs = [("warm-up", warm)]
    op_seconds: list[float] = []
    walls, traced_walls, per_pass = [], [], []
    start = perf_counter()
    while True:
        walls.append(run_pass(wl.ops, order, ledger, op_seconds=op_seconds))
        if trace:
            tracer = Tracer()
            traced_walls.append(run_pass(wl.ops, order, ledger, tracer))
            per_pass.append(layer_metrics(tracer.spans))
            traced_runs.append((f"pass-{len(per_pass)}", tracer))
        if perf_counter() - start >= seconds:
            break

    if not trace:
        wall = statistics.median(walls)
        metrics.update({
            "setup_s": statistics.median(x["wall_s"] for x in launches),
            "wall_s": wall,
            "op_s.p50": statistics.median(op_seconds),
            "op_s.p90": _p90(op_seconds),
            "samples_per_s": points / wall,
            "err_ratio.max": ledger.err_max,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
    else:
        for key in per_pass[0]:
            metrics[key] = statistics.median(p[key] for p in per_pass)
        missing = frozenset({"norms", "criteria", "fixtures", "cli", "render"}) - wl.layers
        probe = Tracer()
        run_pass(workloads.probe_ops(missing, cfg, rng, OUT, targets), order, ledger, probe)
        traced_runs.append(("probe", probe))
        for key, value in layer_metrics(probe.spans).items():
            if key.split(".")[0] in missing:
                metrics[key] = value
        entries = [e for e in workloads.catalog() if e["name"] in wl.fixture_names]
        metrics.update(micro.measure(entries, wl.exprs, cfg.micro_reps, rng))
        metrics["setup.import_s"] = statistics.median(x["import_s"] for x in launches)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
        )

    norms = logharm.norms
    prov = {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "logharm": logharm.__version__,
        "nproc": os.cpu_count(),
        "sweep_workers": getattr(norms, "_worker_count", lambda: None)(),
        "LOGHARM_THREADS": os.environ.get("LOGHARM_THREADS"),
        "git_commit": _git_commit(),
        "warmup": WARMUP,
        "samples": {
            "setup_s": len(launches),
            "wall_s": len(walls),
            "op_s": len(op_seconds),
            "op_s.p90_beyond": sum(1 for t in op_seconds if t > _p90(op_seconds))
            if len(op_seconds) >= 2 else 0,
            "field_points_per_pass": points,
        },
        "problems": ledger.problems,
    }
    if trace:
        with open(OUT / f"trace-{workload}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"provenance": prov}) + "\n")
            for label, tracer in traced_runs:
                tracer.write(fh, label)
    for stale in list(OUT.glob("render-*")) + list(OUT.glob("check-*")):
        stale.unlink()
    metrics["failed_ops"] = ledger.failed / ledger.attempted
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
        "provenance": prov,
    }


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def report(result: dict, trace: int) -> str:
    """Human-readable lines, then the one-line JSON result."""
    declared = _declared()[trace]
    got = result["metrics"]
    missing = sorted(set(declared) - set(got))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    lines = [f"perfbench {result['provenance']['workload']} "
             f"seed={result['provenance']['seed']} trace={trace}"]
    shown = dict(declared)
    if trace == 0:
        # failed / attempted is the result line's own pair; shown here too
        shown["failed_ops"] = "fraction"
    for name, unit in shown.items():
        lines.append(f"  {name:<40} {got[name]:.6g} {unit}")
    for p in result["provenance"]["problems"]:
        lines.append(f"  problem: {p}")
    lines.append("provenance " + json.dumps(result["provenance"]))
    lines.append(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": got[k], "unit": u} for k, u in declared.items()},
    }))
    return "\n".join(lines)


def _run_all(args) -> int:
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"][name] = res["metrics"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="logharm benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest renders and fewest repetitions, for the self-test")
    args = ap.parse_args(argv)
    _import_package()
    import workloads

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in workloads.NAMES:
        ap.error(f"--workload must be one of {', '.join(workloads.NAMES)} or all")
    cfg = workloads.TINY if args.tiny else workloads.Config()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), cfg)
    print(report(result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
