"""Differential suite: micro-batched serving == serial per-client serving.

The service's one correctness claim is that cross-client coalescing is
invisible: the micro-batched columnar path must produce, request for
request, the same admission verdicts, the same answers, the same server
occupancy, and energies equal to the grid pricer's 1e-9 agreement
tolerance as replaying the identical dispatch sequence one query at a time
through the scalar planner/pricer.  Client cache state is pinned
transitively — each query's replayed compute cost depends on the cache
state its predecessors left, so any divergence would surface in a later
query's cycles.
"""

from __future__ import annotations

import pytest

from repro.constants import MBPS
from repro.core.executor import Policy
from repro.core.schemes import Scheme, SchemeConfig
from repro.data.workloads import (
    ClientProfile,
    QueryRequest,
    client_fleet,
    fleet_query_stream,
    range_queries,
)
from repro.serve import QueryService

REL = 1e-9


def _compare(batched, serial):
    assert len(batched) == len(serial)
    for b, s in zip(batched.outcomes, serial.outcomes):
        assert b.client_id == s.client_id
        assert b.verdict == s.verdict
        assert b.arrival_s == s.arrival_s
        if not b.served:
            continue
        assert b.batch == s.batch
        assert b.answer_ids == s.answer_ids
        assert b.n_results == s.n_results
        assert b.server_s == s.server_s
        assert b.queue_wait_s == s.queue_wait_s
        assert b.result.energy.total() == pytest.approx(
            s.result.energy.total(), rel=REL
        )
        assert b.result.cycles.total() == pytest.approx(
            s.result.cycles.total(), rel=REL
        )
        assert b.energy_j == pytest.approx(s.energy_j, rel=REL)
        assert b.latency_s == pytest.approx(s.latency_s, rel=REL)


class TestBatchedMatchesSerial:
    def test_heterogeneous_fleet(self, env_small, pa_small):
        fleet = client_fleet(6, seed=11)
        reqs = fleet_query_stream(
            pa_small, fleet, duration_s=3.0, seed=7, hot_fraction=0.5
        )
        assert len(reqs) >= 6
        service = QueryService(env_small, max_batch=8, batch_window_s=0.5)
        batched = service.serve(reqs, fleet, planner="columnar")
        serial = service.serve(reqs, fleet, planner="serial")
        # The stream must genuinely coalesce across clients, or the test
        # proves nothing.
        sizes = {}
        for o in batched.outcomes:
            if o.served:
                sizes.setdefault(o.batch, set()).add(o.client_id)
        assert any(len(cids) > 1 for cids in sizes.values())
        _compare(batched, serial)

    def test_with_battery_rejections(self, env_small, pa_small):
        # Finite budgets make admission state-dependent; both planners must
        # still drain batteries identically.
        fleet = client_fleet(
            5, seed=13, battery_j=0.02, low_battery_fraction=1.0
        )
        reqs = fleet_query_stream(pa_small, fleet, duration_s=4.0, seed=17)
        service = QueryService(env_small, max_batch=8, batch_window_s=0.5)
        batched = service.serve(reqs, fleet, planner="columnar")
        serial = service.serve(reqs, fleet, planner="serial")
        assert batched.n_rejected_battery == serial.n_rejected_battery > 0
        _compare(batched, serial)

    def test_with_queue_rejections(self, env_small, pa_small):
        qs = range_queries(pa_small, 10, seed=19)
        policy = Policy().with_bandwidth(2 * MBPS)
        fs = SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True)
        fleet = [
            ClientProfile(client_id=c, policy=policy, scheme=fs)
            for c in range(2)
        ]
        reqs = [
            QueryRequest(client_id=k % 2, query=q, arrival_s=0.0)
            for k, q in enumerate(qs)
        ]
        service = QueryService(
            env_small, max_queue=3, max_batch=2, batch_window_s=0.0
        )
        batched = service.serve(reqs, fleet, planner="columnar")
        serial = service.serve(reqs, fleet, planner="serial")
        assert batched.n_rejected_queue == serial.n_rejected_queue > 0
        _compare(batched, serial)

    def test_repeat_queries_share_phases(self, env_small, pa_small):
        # Hot queries repeat across clients; phase-cache dedup must not
        # change any client's answer or energy.
        fleet = client_fleet(4, seed=21)
        reqs = fleet_query_stream(
            pa_small, fleet, duration_s=3.0, seed=23,
            hot_fraction=1.0, hot_pool=2,
        )
        keys = {(type(r.query).__name__, repr(r.query)) for r in reqs}
        assert len(keys) < len(reqs)  # the stream really repeats queries
        service = QueryService(env_small, max_batch=16, batch_window_s=1.0)
        _compare(
            service.serve(reqs, fleet, planner="columnar"),
            service.serve(reqs, fleet, planner="serial"),
        )
