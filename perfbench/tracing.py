"""Spans around the program's public functions, kept in memory.

``Tracer.patched()`` replaces each function in TARGETS by a wrapper that
records a span (name, start, end, parent, operation id, thread) and the
counts its return value carries.  The wrapper is installed under every name
that refers to the function in any of those modules, because callers
look names up where they live: ``cli`` calls ``dump_profile`` through its own
``from .grid import`` binding, and ``solver.solve`` through the ``solver``
module.  Every patch is undone on exit.  The program itself is unchanged.

Spans opened in a thread that has no open span of its own (the sweep's pool
threads) attach to the innermost open span of the thread that created the
tracer, which is the enclosing ``beta_sweep``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

TARGETS = {
    "cli": ("main", "emit"),
    "grid": ("dump_profile",),
    "analytic": ("minimize_plateau_objective", "sigma_bracket"),
    "solver": ("solve", "initial_pair", "alternating_refine", "discrete_energy",
               "discrete_gradient", "el_residual", "equipartition_residual"),
    "asymptotics": ("beta_sweep", "large_beta_report", "small_beta_report"),
    "gp_validation": ("gamma_table", "solve_ground_state", "minimize_weighted_pair",
                      "weighted_pair_energy"),
    "tf_geometry": ("symmetry_breaking_report", "concavity_report"),
}


def _dump_bytes(result, args, kwargs):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"bytes": os.path.getsize(path)}


# Counts read at the same boundary as the span, from the call's return value.
COUNTERS = {
    "solver.solve": lambda r, a, k: {"iterations": r.iterations, "nodes": r.grid.n_points},
    "solver.alternating_refine": lambda r, a, k: {"half_steps": r[1]},
    "gp_validation.solve_ground_state": lambda r, a, k: {"iterations": r.iterations},
    "grid.dump_profile": _dump_bytes,
    "asymptotics.beta_sweep": lambda r, a, k: {"rows": len(r)},
}
KEEP_RESULT = {"solver.solve"}  # converged pairs feed the kernel probe


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None  # index into Tracer.spans
    op: int
    thread: int
    counts: dict = field(default_factory=dict)
    result: object = field(default=None, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._owner = threading.current_thread()
        self._owner_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        keep = name in KEEP_RESULT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._owner_stack[-1] if self._owner_stack else None
            span = Span(name, time.perf_counter(), None, parent, self.op, threading.get_ident())
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(result, args, kwargs)
            if keep:
                span.result = result
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers in every module of TARGETS; restore on exit."""
        modules = {layer: importlib.import_module(f"bectension.{layer}") for layer in TARGETS}
        wrappers = {}
        for layer, names in TARGETS.items():
            module = modules[layer]
            for name in names:
                original = getattr(module, name)
                wrappers[id(original)] = (original, self.wrap(f"{layer}.{name}", original))
        undo = []
        try:
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers and wrappers[id(value)][0] is value:
                        undo.append((module, attr, value))
                        setattr(module, attr, wrappers[id(value)][1])
            yield self
        finally:
            for module, attr, value in undo:
                setattr(module, attr, value)

    def records(self) -> list[dict]:
        """Spans as plain dicts, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {"name": s.name, "start": s.start - t0, "end": s.end - t0, "parent": s.parent,
             "op": s.op, "thread": s.thread, "counts": s.counts}
            for s in self.spans
        ]


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children of one span overlap when they run on pool threads, so the union
    is subtracted, not the sum.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(s.start, s.end, children[i]) for i, s in enumerate(spans)]


DIAGNOSTICS = ("solver.discrete_energy", "solver.discrete_gradient",
               "solver.el_residual", "solver.equipartition_residual")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one traced pass.  A layer that did not run reads 0."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def total(name):
        return sum(spans[i].duration for i in by_name[name])

    def self_total(name):
        return sum(selfs[i] for i in by_name[name])

    def calls(name):
        return len(by_name[name])

    def count(name, key):
        return sum(spans[i].counts.get(key, 0) for i in by_name[name])

    def under(name, parent_name):
        return [i for i in by_name[name]
                if spans[i].parent is not None and spans[spans[i].parent].name == parent_name]

    m = {}
    half_steps = count("solver.alternating_refine", "half_steps")
    refine_s = total("solver.alternating_refine")
    m["solver.solve.calls"] = calls("solver.solve")
    m["solver.solve.s"] = total("solver.solve")
    m["solver.solve.self_s"] = self_total("solver.solve")
    m["solver.descent_steps"] = count("solver.solve", "iterations") - half_steps
    m["solver.alternating_refine.s"] = refine_s
    m["solver.newton_half_steps"] = half_steps
    m["solver.newton_half_step_s"] = refine_s / half_steps if half_steps else 0.0
    m["solver.initial_pair.s"] = total("solver.initial_pair")
    m["solver.diagnostics_s"] = sum(spans[i].duration for name in DIAGNOSTICS
                                    for i in under(name, "solver.solve"))
    m["solver.grid_nodes"] = count("solver.solve", "nodes")

    dump_s = total("grid.dump_profile")
    dump_bytes = count("grid.dump_profile", "bytes")
    m["grid.dump_profile.s"] = dump_s
    m["grid.dump_profile.bytes"] = dump_bytes
    m["grid.dump_profile.MBps"] = dump_bytes / dump_s / 1e6 if dump_s else 0.0

    for name in ("minimize_plateau_objective", "sigma_bracket"):
        m[f"analytic.{name}.calls"] = calls(f"analytic.{name}")
        m[f"analytic.{name}.s"] = total(f"analytic.{name}")

    sweep_s = total("asymptotics.beta_sweep")
    pool_solves = under("solver.solve", "asymptotics.beta_sweep")
    workers = len({spans[i].thread for i in pool_solves})
    busy = sum(spans[i].duration for i in pool_solves)
    m["asymptotics.beta_sweep.s"] = sweep_s
    m["asymptotics.sweep_workers"] = workers
    m["asymptotics.sweep_solve_busy_s"] = busy
    m["asymptotics.sweep_parallel_efficiency"] = busy / (sweep_s * workers) if workers else 0.0
    m["asymptotics.reports_s"] = (total("asymptotics.large_beta_report")
                                  + total("asymptotics.small_beta_report"))

    m["gp_validation.solve_ground_state.s"] = total("gp_validation.solve_ground_state")
    m["gp_validation.solve_ground_state.iterations"] = count(
        "gp_validation.solve_ground_state", "iterations")
    m["gp_validation.minimize_weighted_pair.s"] = total("gp_validation.minimize_weighted_pair")
    m["gp_validation.minimize_weighted_pair.self_s"] = self_total(
        "gp_validation.minimize_weighted_pair")
    m["gp_validation.weighted_pair_energy.calls"] = calls("gp_validation.weighted_pair_energy")
    m["gp_validation.gamma_table.self_s"] = self_total("gp_validation.gamma_table")
    m["gp_validation.sigma_solve_s"] = sum(
        spans[i].duration for i in under("solver.solve", "gp_validation.gamma_table"))

    m["tf_geometry.symmetry_breaking_report.s"] = total("tf_geometry.symmetry_breaking_report")
    m["tf_geometry.concavity_report.s"] = total("tf_geometry.concavity_report")

    m["cli.main.self_s"] = self_total("cli.main")
    m["cli.emit.s"] = total("cli.emit")
    return m
