"""Spans and counters around calls into boxspin, installed from outside.

The package is not edited: a hook replaces a function attribute in every
loaded ``boxspin`` module that binds it (or in one named module), so the
call sites see the wrapper.  Spans are kept in memory and summarized at
the end of a run.  A hooked name that no longer exists is recorded as
absent and otherwise ignored.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

import numpy as np

from points import SWEEP_JOBS

# (defining module, attribute, span or counter name, only in this module).
# ``bell.optimize`` is split by its include_y keyword below.
SPAN_HOOKS = (
    ("boxspin.quadrature", "integrate_lattice_signed", "quadrature.lattice", None),
    ("boxspin.quadrature", "integrate_line_signed", "quadrature.line", None),
    ("boxspin.correlators", "_lattice_piece", "correlators.piece", None),
    ("boxspin.correlators", "correlator", "correlators.correlator", None),
    ("boxspin.correlators", "single_site", "correlators.single_site", None),
    ("boxspin.correlators", "correlator_set", "correlators.set", None),
    ("boxspin.correlators", "czz_sampled", "correlators.sampled", None),
    ("boxspin.bell", "optimize_settings", "bell.optimize", None),
    ("boxspin.bell", "chsh_from_correlators", "bell.expr", None),
    ("boxspin.bell", "bit_bell_from_correlators", "bell.expr", None),
    ("boxspin.boxops", "build_spin_operator", "boxops.build", None),
    ("boxspin.boxops", "expectation", "boxops.expectation", None),
    ("boxspin.cli", "main", "cli.main", "boxspin.cli"),
    # Installed after the correlators hooks, so these wrap the wrappers:
    # the sweep's per-point busy time as the cli module sees it.
    ("boxspin.cli", "correlator", "cli.point", "boxspin.cli"),
    ("boxspin.cli", "correlator_set", "cli.point", "boxspin.cli"),
)
COUNT_HOOKS = (
    ("boxspin.correlators", "rotated_correlator", "bell.rotated_evals", "boxspin.bell"),
)
# Integrand evaluations are counted by wrapping the integrand these take.
EVAL_COUNTED = ("quadrature.lattice", "quadrature.line")


class Tracer:
    """Spans (id, name, start, end, parent, op, thread) and named counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, name: str, n: int) -> None:
        """Count n under name; work outside a measured op is not counted."""
        if self.op is None:
            return
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def install(self) -> None:
        for module, attr, name, only in SPAN_HOOKS:
            self._hook(module, attr, only, lambda f, name=name: self._span_wrapper(f, name))
        for module, attr, name, only in COUNT_HOOKS:
            self._hook(module, attr, only, lambda f, name=name: self._count_wrapper(f, name))

    def _hook(self, module: str, attr: str, only: str | None, make) -> None:
        try:
            target = getattr(importlib.import_module(only or module), attr, None)
        except ImportError:
            target = None
        if target is None:
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = make(target)
        names = [only] if only else [m for m in list(sys.modules) if m.split(".")[0] == "boxspin"]
        for mod_name in names:
            mod = sys.modules.get(mod_name)
            if mod is not None and getattr(mod, attr, None) is target:
                setattr(mod, attr, wrapper)

    def _span_wrapper(self, f, name):
        counted = name in EVAL_COUNTED

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "bell.optimize" and kwargs.get("include_y"):
                span_name = "bell.optimize_y"
            if counted and args:
                args = (self._counting_integrand(args[0]),) + args[1:]
            with _Span(self, span_name):
                return f(*args, **kwargs)

        return wrapper

    def _count_wrapper(self, f, name):
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            self.add(name, 1)
            return f(*args, **kwargs)

        return wrapper

    def _counting_integrand(self, f):
        def counted(*xs):
            out = f(*xs)
            self.add("quadrature.evals", int(np.broadcast(*xs).size) if len(xs) > 1 else int(np.size(xs[0])))
            return out

        return counted

    # -- summaries -------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        child = {}
        for sid, _name, start, end, parent, _op, _thread in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        return {s[0]: (s[3] - s[2]) - child.get(s[0], 0.0) for s in self.spans}

    def by_name(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[1] == name]

    def total(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.by_name(name))

    def to_json(self) -> dict:
        return {
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4],
                 "op": s[5], "thread": s[6]}
                for s in self.spans
            ],
            "counts": dict(self.counts),
            "absent": list(self.absent),
        }

    def merge(self, data: dict, offset: int) -> None:
        """Add spans and counts recorded by another process (reach worker)."""
        for s in data["spans"]:
            parent = None if s["parent"] is None else s["parent"] + offset
            self.spans.append((s["id"] + offset, s["name"], s["start"], s["end"], parent,
                               self.op, s["thread"]))
        for k, v in data["counts"].items():
            self.add(k, v)
        for name in data["absent"]:
            if name not in self.absent:
                self.absent.append(name)


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        local = self.tracer._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        self.parent = stack[-1] if stack else None
        self.sid = next(self.tracer._ids)
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._local.stack.pop()
        self.tracer.spans.append(
            (self.sid, self.name, self.start, end, self.parent, self.tracer.op, threading.get_ident())
        )
        return False


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counts of a traced run."""
    t = tracer
    self_t = t.self_times()
    spans_by_id = {s[0]: s for s in t.spans}
    lattice = t.by_name("quadrature.lattice")
    line = t.by_name("quadrature.line")
    lattice_s = t.total("quadrature.lattice")
    line_s = t.total("quadrature.line")
    evals = t.counts.get("quadrature.evals", 0)
    pieces = t.by_name("correlators.piece")
    misses = sum(1 for s in lattice if s[4] is not None and spans_by_id[s[4]][1] == "correlators.piece")
    corr_names = ("correlators.piece", "correlators.correlator", "correlators.single_site", "correlators.set")
    optimize = t.by_name("bell.optimize")
    optimize_y = t.by_name("bell.optimize_y")

    # cli: per cli.main span, the point phase runs from the first point
    # span's start to the last one's end, on SWEEP_JOBS threads.
    point_s = phase_s = wall_s = 0.0
    points = t.by_name("cli.point")
    for main in t.by_name("cli.main"):
        inside = [p for p in points if main[2] <= p[2] and p[3] <= main[3]]
        wall_s += main[3] - main[2]
        if inside:
            point_s += sum(p[3] - p[2] for p in inside)
            phase_s += max(p[3] for p in inside) - min(p[2] for p in inside)
    return {
        "quadrature.lattice_calls": len(lattice),
        "quadrature.lattice_s": lattice_s,
        "quadrature.line_calls": len(line),
        "quadrature.line_s": line_s,
        "quadrature.evals": evals,
        "quadrature.evals_per_s": evals / (lattice_s + line_s) if lattice_s + line_s > 0 else 0.0,
        "correlators.set_calls": len(t.by_name("correlators.set")),
        "correlators.correlator_calls": len(t.by_name("correlators.correlator")),
        "correlators.self_s": sum(self_t[s[0]] for s in t.spans if s[1] in corr_names),
        "correlators.sampled_s": t.total("correlators.sampled"),
        "correlators.piece_lookups": len(pieces),
        "correlators.piece_hit_share": 1.0 - misses / len(pieces) if pieces else 0.0,
        "bell.optimize_calls": len(optimize) + len(optimize_y),
        "bell.optimize_s": t.total("bell.optimize"),
        "bell.optimize_y_s": t.total("bell.optimize_y"),
        "bell.expr_s": t.total("bell.expr"),
        "bell.rotated_evals": t.counts.get("bell.rotated_evals", 0),
        "cli.wall_s": wall_s,
        "cli.point_s": point_s,
        "cli.parallel_eff": point_s / (SWEEP_JOBS * phase_s) if phase_s > 0 else 0.0,
        "cli.overhead_s": wall_s - phase_s if phase_s > 0 else 0.0,
        "boxops.build_calls": len(t.by_name("boxops.build")),
        "boxops.build_s": t.total("boxops.build"),
        "boxops.expectation_s": t.total("boxops.expectation"),
        "trace.absent_hooks": len(t.absent),
    }
