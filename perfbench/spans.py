"""In-memory spans recorded around the package's public callables.

While a `Tracer` is installed, every reference to a traced public function
in the loaded ``logharm`` modules is swapped for a wrapper that records a
span (name, start, end, parent, thread) around the call.  Field
constructors are wrapped so that the field callables they return record
one ``maps.field`` span per call, with its number of points; those calls
run on the sweep's worker threads.  `uninstall` puts the original objects
back, so untraced passes run the package unmodified.

`layer_metrics` turns the spans of one pass into the per-layer figures.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

# public field constructors: each returns a callable z-array -> field array
FIELD_CONSTRUCTORS = (
    ("logharm.maps", "pre_schwarzian_field"),
    ("logharm.maps", "schwarzian_field"),
    ("logharm.maps", "analytic_pre_schwarzian_field"),
    ("logharm.maps", "analytic_schwarzian_field"),
    ("logharm.maps", "hg_epsilon_field"),
    ("logharm.norms", "logderiv_field"),
)

# public calls wrapped in spans; results of norms and criteria are kept
CALLS = (
    ("logharm.norms", "weighted_sup"),
    ("logharm.norms", "pre_schwarzian_norm"),
    ("logharm.norms", "schwarzian_norm"),
    ("logharm.norms", "bloch_norm_log"),
    ("logharm.criteria", "becker_check"),
    ("logharm.criteria", "nehari_check"),
    ("logharm.criteria", "schwarz_pick_check"),
    ("logharm.criteria", "hg_epsilon_univalence_check"),
    ("logharm.criteria", "norm_gap_check"),
    ("logharm.criteria", "epsilon_norm_gap_check"),
    ("logharm.criteria", "pre_schwarzian_bound_check"),
    ("logharm.criteria", "starlike_check"),
    ("logharm.criteria", "associated_starlike"),
    ("logharm.fixtures", "run_fixture"),
    ("logharm.render", "render_image"),
    ("logharm.render", "mesh_points"),
    ("logharm.render", "eval_target"),
    ("logharm.cli", "main"),
)
_KEEP_RESULT = ("logharm.norms", "logharm.criteria")


@dataclass
class Span:
    sid: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """Records spans; thread-safe for the sweep's worker threads.

    A span opened on a worker thread with nothing open on that thread takes
    as parent the innermost span open on the installing thread, which is
    the call that handed the work to the pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_top: int | None = None
        self._swapped: list[tuple[object, str, object]] = []

    def open(self, name: str, **attrs) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        me = threading.get_ident()
        if stack:
            parent = stack[-1]
        else:
            parent = None if me == self._main else self._main_top
        span = Span(next(self._ids), name, 0, 0, parent, me, attrs)
        stack.append(span.sid)
        if me == self._main:
            self._main_top = span.sid
        span.start = perf_counter_ns()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        stack = self._local.stack
        stack.pop()
        if span.thread == self._main:
            self._main_top = stack[-1] if stack else None
        self.spans.append(span)

    def _wrap_call(self, name: str, fn, keep: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
                if keep:
                    span.attrs["result"] = out
                return out
            finally:
                self.close(span)

        return traced

    def wrap_field(self, fn):
        def traced(z):
            span = self.open("maps.field", points=int(np.size(z)))
            try:
                return fn(z)
            finally:
                self.close(span)

        return traced

    def _wrap_constructor(self, ctor):
        @functools.wraps(ctor)
        def wrapped(*args, **kwargs):
            return self.wrap_field(ctor(*args, **kwargs))

        return wrapped

    def install(self) -> None:
        """Swap every loaded reference to a traced callable for its wrapper."""
        wrappers = {}
        for module, name in FIELD_CONSTRUCTORS + CALLS:
            original = getattr(importlib.import_module(module), name)
            layer = module.split(".")[1]
            if (module, name) in FIELD_CONSTRUCTORS:
                wrappers[id(original)] = (original, self._wrap_constructor(original))
            else:
                keep = module in _KEEP_RESULT
                wrappers[id(original)] = (
                    original,
                    self._wrap_call(f"{layer}.{name}", original, keep),
                )
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "logharm" or modname.startswith("logharm.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._swapped.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._swapped):
            setattr(mod, attr, value)
        self._swapped.clear()

    def write(self, fh, label: str) -> None:
        """One JSON line per span, in start order, tagged with `label`."""
        for s in sorted(self.spans, key=lambda s: s.start):
            row = {
                "pass": label,
                "id": s.sid,
                "name": s.name,
                "start_ns": s.start,
                "end_ns": s.end,
                "parent": s.parent,
                "thread": s.thread,
            }
            for k, v in s.attrs.items():
                if isinstance(v, (int, float, str)):
                    row[k] = v
            fh.write(json.dumps(row) + "\n")


def _union_seconds(intervals) -> float:
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total / 1e9


def _report(result):
    # associated_starlike returns (companion, report)
    return result[1] if isinstance(result, tuple) else result


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures of one traced pass.

    The benchmark opens one ``op`` span per operation, with attrs ``kind``
    and ``key``; render ops also carry ``bytes``, check ops ``report_bytes``
    and fixture ops ``rows``/``rows_failed``.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def descendants(span):
        out, todo = [], list(children[span.sid])
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(children[s.sid])
        return out

    m: dict[str, float] = {}
    fields = [s for s in spans if s.name == "maps.field"]
    m["maps.field_calls"] = len(fields)
    m["maps.field_points"] = sum(s.attrs["points"] for s in fields)
    m["maps.field_busy_s"] = sum(s.seconds for s in fields)

    by_id = {s.sid: s for s in spans}

    def under(span, prefix):
        p = span.parent
        while p is not None:
            if by_id[p].name.startswith(prefix):
                return True
            p = by_id[p].parent
        return False

    sweep = refine = self_s = 0.0
    refine_calls = samples = failed = 0
    gain, raised, rounds = 0.0, 0, 0
    for n in spans:
        if not n.name.startswith("norms.") or under(n, "norms."):
            continue
        fs = [s for s in descendants(n) if s.name == "maps.field"]
        multi_end = max((s.end for s in fs if s.attrs["points"] > 1), default=n.start)
        sweep += (multi_end - n.start) / 1e9
        refine += (n.end - multi_end) / 1e9
        refine_calls += sum(1 for s in fs if s.attrs["points"] == 1)
        self_s += n.seconds - _union_seconds((s.start, s.end) for s in fs)
        est = n.attrs.get("result")
        if est is not None:
            samples += est.samples
            failed += est.failed_samples
            rv = est.refine_values
            if len(rv) >= 2:
                gain += rv[-1] - rv[0]
                rounds += len(rv) - 1
                raised += sum(1 for a, b in zip(rv, rv[1:]) if b > a)
    m["norms.sweep_s"] = sweep
    m["norms.refine_s"] = refine
    m["norms.refine_calls"] = refine_calls
    m["norms.self_s"] = self_s
    m["norms.samples"] = samples
    m["norms.failed_samples"] = failed
    m["norms.refine_gain"] = gain
    m["norms.refine_useful_ratio"] = raised / rounds if rounds else 0.0

    ops = [s for s in spans if s.name == "op"]
    check_samples = 0
    cli_overhead = 0.0
    for op in ops:
        if op.attrs["kind"] != "check":
            continue
        check_s = 0.0
        for c in children[op.sid]:
            if c.name != "cli.main":
                continue
            lib = [s for s in children[c.sid] if s.name.startswith("criteria.")]
            check_s += sum(s.seconds for s in lib)
            check_samples += sum(_report(s.attrs["result"]).samples for s in lib)
            cli_overhead += c.seconds - sum(s.seconds for s in lib)
        m[f"criteria.check_s.{op.attrs['key']}"] = m.get(
            f"criteria.check_s.{op.attrs['key']}", 0.0
        ) + check_s
    m["criteria.samples"] = check_samples
    m["cli.overhead_s"] = cli_overhead
    m["cli.report_bytes"] = sum(op.attrs.get("report_bytes", 0) for op in ops)

    rows = rows_failed = 0
    for op in ops:
        if op.attrs["kind"] == "fixture":
            key = f"fixtures.run_s.{op.attrs['key']}"
            m[key] = m.get(key, 0.0) + op.seconds
            rows += op.attrs.get("rows", 0)
            rows_failed += op.attrs.get("rows_failed", 0)
    m["fixtures.rows"] = rows
    m["fixtures.rows_failed"] = rows_failed

    renders = {op.attrs["key"]: op for op in ops if op.attrs["kind"] == "render"}
    if renders:
        mesh = sum(s.seconds for s in spans if s.name == "render.mesh_points")
        ev = sum(s.seconds for s in spans if s.name == "render.eval_target")
        color = renders["ppm-color"].seconds - renders["ppm"].seconds
        write = sum(op.seconds for op in renders.values()) - mesh - ev - color
        nbytes = sum(op.attrs.get("bytes", 0) for op in renders.values())
        m["render.mesh_s"] = mesh
        m["render.eval_s"] = ev
        m["render.color_s"] = color
        m["render.write_s"] = write
        m["render.bytes"] = nbytes
        m["render.write_mb_per_s"] = nbytes / 1e6 / write if write > 0 else 0.0
    return m
