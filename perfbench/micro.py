"""Fixed-size timings of the expression, jet and map layers.

Each figure is the median over repetitions of the mean time of one call,
in microseconds, taken on the workload's own maps and factors: parse and
build are what set-up pays, the 512-point ("level") calls are what one
sweep level pays, and the 1-point calls are what one refine step or one
scalar operator pays.
"""
from __future__ import annotations

import math
import statistics
from time import perf_counter_ns

import numpy as np

from logharm import expr, jets, maps

LEVEL_POINTS = 512
_MIN_REP_NS = 5_000_000


def _us_per_call(fn, calls_per_fn: int, reps: int) -> float:
    t0 = perf_counter_ns()
    fn()
    once = max(perf_counter_ns() - t0, 1)
    inner = max(1, math.ceil(_MIN_REP_NS / once))
    times = []
    for _ in range(reps):
        t0 = perf_counter_ns()
        for _ in range(inner):
            fn()
        times.append((perf_counter_ns() - t0) / (inner * calls_per_fn))
    return statistics.median(times) / 1e3


def _random_jet(rng: np.random.Generator, lead: np.ndarray) -> jets.Jet:
    tail = [rng.normal(size=LEVEL_POINTS) + 1j * rng.normal(size=LEVEL_POINTS)
            for _ in range(3)]
    return jets.Jet([lead, *tail])


def measure(entries: list[dict], extra_exprs: tuple[str, ...], reps: int,
            rng: np.random.Generator) -> dict:
    """`entries` are the workload's raw fixtures.json items."""
    texts = [e[k] for e in entries for k in ("h", "g", "omega") if k in e]
    texts += list(extra_exprs)
    specs = [(e["m"], complex(*e["beta"]), e["h"], e["g"]) for e in entries]
    built = [maps.LogHarmonicMap.from_strings(*s) for s in specs]
    factors = [expr.parse(t) for t in texts]
    r = rng.uniform(0.05, 0.95)
    ring = r * np.exp(1j * np.arange(LEVEL_POINTS) * (2 * math.pi / LEVEL_POINTS))
    z0 = complex(ring[int(rng.integers(LEVEL_POINTS))])
    point = np.array([z0])

    m = {}
    m["expr.parse_us"] = _us_per_call(lambda: [expr.parse(t) for t in texts],
                                      len(texts), reps)
    m["maps.build_us"] = _us_per_call(
        lambda: [maps.LogHarmonicMap.from_strings(*s) for s in specs], len(specs), reps)
    m["expr.eval_jet_level_us"] = _us_per_call(
        lambda: [expr.eval_jet(e, ring, 3) for e in factors], len(factors), reps)
    m["expr.eval_jet_point_us.array"] = _us_per_call(
        lambda: [expr.eval_jet(e, point, 3) for e in factors], len(factors), reps)
    m["expr.eval_jet_point_us.scalar"] = _us_per_call(
        lambda: [expr.eval_jet(e, z0, 3) for e in factors], len(factors), reps)

    a = _random_jet(rng, ring)
    b = _random_jet(rng, 1.5 + ring)  # leading coefficient bounded away from 0
    small = jets.Jet([0.5 * ring, *a.coeffs[1:]])
    m["jets.mul_level_us"] = _us_per_call(lambda: a * b, 1, reps)
    m["jets.div_level_us"] = _us_per_call(lambda: a / b, 1, reps)
    m["jets.exp_level_us"] = _us_per_call(small.exp, 1, reps)
    m["jets.log_level_us"] = _us_per_call(b.log, 1, reps)

    for op in ("pre_schwarzian", "schwarzian", "dilatation", "map_value"):
        fn = getattr(maps, op)
        m[f"maps.scalar_op_us.{op}"] = _us_per_call(
            lambda fn=fn: [fn(f, z0) for f in built], len(built), reps)
    for label, ctor in (("pre", maps.pre_schwarzian_field),
                        ("schwarzian", maps.schwarzian_field)):
        fields = [ctor(f) for f in built]
        m[f"maps.field_level_us.{label}"] = _us_per_call(
            lambda fields=fields: [fd(ring) for fd in fields], len(fields), reps)
        m[f"maps.field_point_us.{label}"] = _us_per_call(
            lambda fields=fields: [fd(point) for fd in fields], len(fields), reps)
    return m
