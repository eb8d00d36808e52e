"""Shared server-side semantic cache under the multi-tenant service.

The cache's serve-layer claim: because every cache decision is a function
of window geometry and arrival order only, micro-batch boundaries are
invisible — serving a stream one query at a time and serving it 64 at a
time produce the same verdict for every request, the same answers, and
the same final cache state.  The serial and the micro-batched columnar
service planners must agree likewise, and outcomes must surface the semantic
verdict (``QueryOutcome.semcache``, ``to_record()``).
"""

from __future__ import annotations

import pytest

from repro.api import Engine
from repro.core.gridrun import RunLedger
from repro.core.semcache import SEMCACHE_VERDICTS, SemanticCache
from repro.data.workloads import client_fleet, fleet_query_stream
from repro.serve import QueryService

REL = 1e-9


def _stream(pa_small, *, seed=7, n=6, duration=3.0):
    fleet = client_fleet(n, seed=11)
    reqs = fleet_query_stream(
        pa_small, fleet, duration_s=duration, seed=seed, hot_fraction=0.5
    )
    return fleet, reqs


def _semantic_outcomes(report):
    return [o for o in report.outcomes if o.served and o.semcache]


def _compare_semantics(a, b):
    assert len(a) == len(b)
    for x, y in zip(a.outcomes, b.outcomes):
        assert x.client_id == y.client_id
        assert x.verdict == y.verdict
        assert x.semcache == y.semcache
        if not x.served:
            continue
        assert x.answer_ids == y.answer_ids
        assert x.n_results == y.n_results


class TestBatchBoundaryIndependence:
    def test_batch_of_one_equals_batch_of_sixtyfour(self, env_small, pa_small):
        fleet, reqs = _stream(pa_small)
        one = QueryService(
            env_small, max_batch=1, batch_window_s=0.0, max_queue=512,
            semantic_cache=SemanticCache(64),
        )
        many = QueryService(
            env_small, max_batch=64, batch_window_s=1.0, max_queue=512,
            semantic_cache=SemanticCache(64),
        )
        ra = one.serve(reqs, fleet, planner="columnar")
        rb = many.serve(reqs, fleet, planner="columnar")
        # The big-batch run must actually coalesce, or this proves nothing.
        sizes = {}
        for o in rb.outcomes:
            if o.served:
                sizes.setdefault(o.batch, []).append(o)
        assert any(len(v) > 1 for v in sizes.values())
        _compare_semantics(ra, rb)
        # The cache must have genuinely served something.
        assert any(
            o.semcache in ("hit", "refine") for o in _semantic_outcomes(rb)
        )
        sa = one.engine.semantic_cache.stats_dict()
        sb = many.engine.semantic_cache.stats_dict()
        for key in ("hits", "refines", "misses", "entries", "insertions",
                    "evictions"):
            assert sa[key] == sb[key]

    def test_verdicts_are_legal(self, env_small, pa_small):
        fleet, reqs = _stream(pa_small, seed=29)
        svc = QueryService(
            env_small, batch_window_s=0.5, semantic_cache=SemanticCache(64)
        )
        report = svc.serve(reqs, fleet, planner="columnar")
        for o in report.outcomes:
            if o.served:
                assert o.semcache in SEMCACHE_VERDICTS or o.semcache == ""


class TestPlannerEquivalence:
    def test_serial_equals_batched(self, env_small, pa_small):
        fleet, reqs = _stream(pa_small, seed=17)
        batched = QueryService(
            env_small, batch_window_s=0.5, semantic_cache=SemanticCache(64)
        ).serve(reqs, fleet, planner="columnar")
        serial = QueryService(
            env_small, batch_window_s=0.5, semantic_cache=SemanticCache(64)
        ).serve(reqs, fleet, planner="serial")
        _compare_semantics(batched, serial)
        for b, s in zip(batched.outcomes, serial.outcomes):
            if b.served:
                assert b.result.energy.total() == pytest.approx(
                    s.result.energy.total(), rel=REL
                )


class TestSurfacing:
    def test_outcome_record_has_semcache_field(self, env_small, pa_small):
        fleet, reqs = _stream(pa_small, seed=23)
        svc = QueryService(
            env_small, batch_window_s=0.5, semantic_cache=SemanticCache(64)
        )
        report = svc.serve(reqs, fleet, planner="columnar")
        tagged = _semantic_outcomes(report)
        assert tagged
        for o in tagged:
            assert o.to_record()["semcache"] == o.semcache

    def test_no_cache_means_no_semcache_field(self, env_small, pa_small):
        fleet, reqs = _stream(pa_small, seed=23)
        report = QueryService(env_small, batch_window_s=0.5).serve(
            reqs, fleet, planner="columnar"
        )
        for o in report.outcomes:
            assert o.semcache == ""
            if o.served:
                assert "semcache" not in o.to_record()

    def test_ledger_semcache_event(self, env_small, pa_small):
        fleet, reqs = _stream(pa_small, seed=27)
        ledger = RunLedger()
        svc = QueryService(
            env_small, ledger=ledger, batch_window_s=0.5,
            semantic_cache=SemanticCache(64),
        )
        svc.serve(reqs, fleet, planner="columnar")
        events = [r for r in ledger.records if r["event"] == "semcache"]
        assert events
        stats = svc.engine.semantic_cache.stats_dict()
        assert events[-1]["hits"] == stats["hits"]
        assert events[-1]["entries"] == stats["entries"]

    def test_shared_engine_rejects_semantic_cache(self, env_small):
        core = Engine(env_small, semantic_cache=SemanticCache(8))
        with pytest.raises(TypeError, match="shared Engine"):
            QueryService(core, semantic_cache=SemanticCache(8))
        # The shared Engine's own cache is picked up as-is.
        assert QueryService(core).engine.semantic_cache is core.semantic_cache
