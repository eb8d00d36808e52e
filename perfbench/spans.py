"""Per-layer spans recorded from outside the program.

:class:`Tracer` keeps spans in memory: name, start, end, parent and pass id.
:func:`install` rebinds each layer's public entry points (module functions
and class methods of the ``repro`` package) to pass-through shims that open
a span around the original call and tally the layer's counts; the returned
callable restores every original.  No file of the program changes.

Layers (named by module):

``batchplan.phases``
    ``compute_query_phases`` -- traversal, refinement and NN search.
``batchplan.lines``
    ``CacheGeometry.lines_and_counts`` -- line expansion of access traces.
``cache.replay``
    ``BatchedLRU.add_stream`` and ``BatchedLRU.run`` -- D-cache LRU replay.
``cache.readback``
    ``BatchedLRU.hits_of`` and ``BatchedLRU.final_sets``.
``colplan.price``
    ``plan_and_price_columnar``, ``compile_slots`` and ``price_compiled``:
    slot compilation and grid pricing (self time, children excluded).
``api.run``
    ``Session.run`` self time: ``RunTable`` assembly, fingerprinting.
``serve.loop``
    ``QueryService.serve`` self time: admission, batching, outcomes.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = (
    "batchplan.phases",
    "batchplan.lines",
    "cache.replay",
    "cache.readback",
    "colplan.price",
    "api.run",
    "serve.loop",
)

#: Name of the root span around one whole pass.
PASS = "pass"

# Span record fields, as list positions.
NAME, START, END, PARENT, PASS_ID = range(5)


class Tracer:
    """In-memory span recorder plus per-pass counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.pass_id = -1
        self._stack: List[int] = []
        self._seen_phases: List[object] = []
        self._seen_ids: set = set()

    def begin_pass(self, pass_id: int) -> None:
        """Start a new pass: fresh counters, fresh phase bookkeeping."""
        self.pass_id = pass_id
        self.counts = defaultdict(float)
        self._seen_phases = []
        self._seen_ids = set()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.pass_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a ``with`` block."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def fresh_phases(self, phases) -> list:
        """The phase objects not returned before in this pass.

        Each pass uses a fresh engine and therefore a fresh phase cache, so
        the first time a phase object is seen is when it was computed.
        """
        fresh = []
        for qp in phases:
            if id(qp) not in self._seen_ids:
                self._seen_ids.add(id(qp))
                self._seen_phases.append(qp)  # keeps ids from being reused
                fresh.append(qp)
        return fresh


def _shim(tracer: Tracer, layer: str, fn: Callable, count=None) -> Callable:
    """``fn`` inside a ``layer`` span; ``count(tracer, args, kwargs, result)``
    tallies the layer's counts before the span closes."""

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        idx = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result
        finally:
            tracer.close(idx)

    return shim


# ----------------------------------------------------------------------
# Counters taken at the layer boundaries
# ----------------------------------------------------------------------
def _count_phases(tracer: Tracer, args, kwargs, phases) -> None:
    c = tracer.counts
    c["batchplan.phases.lookups"] += len(phases)
    for qp in tracer.fresh_phases(phases):
        c["batchplan.phases.queries"] += 1
        if qp.is_nn:
            ops = qp.nn_trace.counter
            refined = ops.candidates_refined
        else:
            ops = qp.filter_trace.counter
            refined = qp.refine_trace.counter.candidates_refined
        c["batchplan.phases.nodes_visited"] += ops.nodes_visited
        c["batchplan.phases.mbr_tests"] += ops.mbr_tests
        c["batchplan.phases.refined"] += refined
        c["batchplan.phases.answers"] += qp.answer_ids.size


def _count_add_stream(tracer: Tracer, args, kwargs, handle) -> None:
    lines = args[1] if len(args) > 1 else kwargs["lines"]
    tracer.counts["cache.replay.accesses"] += lines.size
    tracer.counts["cache.replay.streams"] += 1


def _count_columnar(tracer: Tracer, args, kwargs, grids) -> None:
    _, queries, configs, policies = args[:4]
    tracer.counts["colplan.price.cells"] += len(queries) * len(configs) * len(policies)


def _count_price_compiled(tracer: Tracer, args, kwargs, grid) -> None:
    compiled, policies = args[0], args[1]
    tracer.counts["colplan.price.cells"] += len(compiled) * len(policies)


def _count_serve(tracer: Tracer, args, kwargs, report) -> None:
    tracer.counts["serve.loop.batches"] += report.n_batches


def targets() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, layer, count)`` of every entry point shimmed."""
    import repro.api as api
    import repro.core.batchplan as batchplan
    import repro.core.colplan as colplan
    import repro.serve as serve
    from repro.sim.cache import BatchedLRU

    for module in (colplan, serve):
        if module.compute_query_phases is not batchplan.compute_query_phases:
            raise RuntimeError(
                f"{module.__name__}.compute_query_phases is not batchplan's"
            )
    return [
        # compute_query_phases was imported by name into colplan and serve,
        # so each module's binding is rebound.
        (batchplan, "compute_query_phases", "batchplan.phases", _count_phases),
        (colplan, "compute_query_phases", "batchplan.phases", _count_phases),
        (serve, "compute_query_phases", "batchplan.phases", _count_phases),
        (batchplan.CacheGeometry, "lines_and_counts", "batchplan.lines", None),
        (BatchedLRU, "add_stream", "cache.replay", _count_add_stream),
        (BatchedLRU, "run", "cache.replay", None),
        (BatchedLRU, "hits_of", "cache.readback", None),
        (BatchedLRU, "final_sets", "cache.readback", None),
        (colplan, "plan_and_price_columnar", "colplan.price", _count_columnar),
        (colplan, "compile_slots", "colplan.price", None),
        (colplan, "price_compiled", "colplan.price", _count_price_compiled),
        (api.Session, "run", "api.run", None),
        (serve.QueryService, "serve", "serve.loop", _count_serve),
    ]


def install(tracer: Tracer) -> Callable[[], None]:
    """Rebind every entry point of :func:`targets` to a shim; returns the undo."""
    saved = []
    for owner, attr, layer, count in targets():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _shim(tracer, layer, original, count))

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: List[list], base: int = 0) -> List[float]:
    """Each span's duration minus its direct children's durations.

    ``spans`` is a slice of a tracer's spans starting at index ``base``
    (parent indices are absolute).  Spans of one thread nest properly, so
    a span's children never overlap and their durations sum to the part of
    its interval they cover.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= base:
            own[s[PARENT] - base] -= s[END] - s[START]
    return own


def pass_profile(tracer: Tracer, first: int) -> dict:
    """Per-layer self time, calls and counts of the pass whose spans start
    at index ``first`` (its root span)."""
    spans = tracer.spans[first:]
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for s, t in zip(spans, self_times(spans, first)):
        self_s[s[NAME]] += t
        calls[s[NAME]] += 1
    root = spans[0]
    return {
        "pass_s": root[END] - root[START],
        "self_s": dict(self_s),
        "calls": dict(calls),
        "counts": dict(tracer.counts),
    }


def check_spans(spans: List[list]) -> List[str]:
    """Well-formedness problems: negative self time, child outside parent."""
    problems = []
    for i, s in enumerate(spans):
        if s[END] < s[START]:
            problems.append(f"span {i} {s[NAME]} ends before it starts")
        p = s[PARENT]
        if p >= 0:
            parent = spans[p]
            if s[START] < parent[START] or s[END] > parent[END]:
                problems.append(f"span {i} {s[NAME]} lies outside parent {p}")
            if s[PASS_ID] != parent[PASS_ID]:
                problems.append(f"span {i} {s[NAME]} changes pass id")
    for i, t in enumerate(self_times(spans)):
        if t < 0:
            problems.append(f"span {i} {spans[i][NAME]} self time {t:.3e} < 0")
    return problems


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(profiles, ledgers, untraced_pass_s, n_queries, repeat_share) -> dict:
    """Every per-layer metric, as ``{name: {"value", "unit"}}``.

    ``profiles`` are :func:`pass_profile` results of the traced passes,
    ``ledgers`` the records of the ledger each traced pass was given, and
    ``untraced_pass_s`` the untraced pass times of the same run.  Layers a
    workload does not run report zeros.
    """
    pass_p50 = median([p["pass_s"] for p in profiles])

    def med(get):
        return median([get(p) for p in profiles])

    def count(name):
        return med(lambda p: p["counts"].get(name, 0.0))

    out = {}
    for layer in LAYERS:
        self_s = med(lambda p: p["self_s"].get(layer, 0.0))
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.share"] = (self_s / pass_p50, "ratio")
        out[f"{layer}.calls"] = (med(lambda p: p["calls"].get(layer, 0)), "count")

    def dedup_rate(p):
        lookups = p["counts"].get("batchplan.phases.lookups")
        computed = p["counts"].get("batchplan.phases.queries", 0.0)
        return 1.0 - computed / lookups if lookups else 0.0

    def refine_yield(p):
        refined = p["counts"].get("batchplan.phases.refined")
        return p["counts"]["batchplan.phases.answers"] / refined if refined else 0.0

    out["batchplan.phases.queries"] = (count("batchplan.phases.queries"), "count")
    out["batchplan.phases.dedup_rate"] = (med(dedup_rate), "ratio")
    out["batchplan.phases.nodes_visited"] = (count("batchplan.phases.nodes_visited"), "count")
    out["batchplan.phases.mbr_tests"] = (count("batchplan.phases.mbr_tests"), "count")
    out["batchplan.phases.refine_yield"] = (med(refine_yield), "ratio")
    accesses = count("cache.replay.accesses")
    out["cache.replay.accesses"] = (accesses, "count")
    out["cache.replay.streams"] = (count("cache.replay.streams"), "count")
    out["cache.replay.ns_per_access"] = (
        1e9 * out["cache.replay.self_s"][0] / accesses if accesses else 0.0,
        "ns",
    )
    out["colplan.price.cells"] = (count("colplan.price.cells"), "count")
    out["serve.loop.batches"] = (count("serve.loop.batches"), "count")
    sizes, gaps_ms = [], []
    for records in ledgers:
        stamps = [r for r in records if r["event"] == "serve_batch"]
        sizes += [r["n"] for r in stamps]
        gaps_ms += [1e3 * (b["t"] - a["t"]) for a, b in zip(stamps, stamps[1:])]
    out["serve.loop.batch_size_mean"] = (statistics.fmean(sizes) if sizes else 0.0, "count")
    if len(gaps_ms) >= 2:
        q = statistics.quantiles(gaps_ms, n=100)
        out["serve.batch_ms_p50"] = (median(gaps_ms), "ms")
        out["serve.batch_ms_p99"] = (q[98], "ms")
    else:
        out["serve.batch_ms_p50"] = (0.0, "ms")
        out["serve.batch_ms_p99"] = (0.0, "ms")
    out["pass.unattributed_share"] = (med(lambda p: p["self_s"][PASS]) / pass_p50, "ratio")
    out["trace.overhead"] = (pass_p50 / median(untraced_pass_s) - 1.0, "ratio")
    out["inputs.queries"] = (float(n_queries), "count")
    out["inputs.repeat_share"] = (repeat_share, "ratio")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in out.items()}
