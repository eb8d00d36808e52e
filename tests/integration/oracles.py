"""Reusable differential-oracle layer for (planner, pricer) pairings.

The repo's correctness story is *differential*: every fast path is pinned
to the scalar per-query twin (``plan_query`` + ``price_plan``), and the
fused columnar engine additionally to the batched object path **bit for
bit**.  This module packages those comparisons so any suite — the
dedicated columnar tests, the batchplan differential suite, hypothesis
property tests — asserts the same contract through the same helpers:

``assert_grids_identical``
    Every array of two :class:`~repro.core.gridrun.GridResult`\\ s equal
    via ``np.array_equal`` (bit-for-bit), plus the compiled shims' answer
    ids / op tallies / message shapes.
``assert_tables_identical`` / ``assert_tables_close``
    :class:`~repro.api.RunTable` equality — exact for engine twins that
    share summation order, 1e-9 relative for the scalar oracle (its
    documented agreement bound), discrete fields exact either way.
``assert_columnar_differential``
    The full three-way pin: columnar ≡ batched exactly, both ≈ scalar,
    and the environment's simulated cache state (hits, misses, LRU set
    contents on both sides) left identical by all three paths.
``run_ledger_shape``
    A ledger event stream reduced to its deterministic fields, so suites
    can require the fused path to emit the same observability records
    without comparing wall-clock timings.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from repro.api import RunTable, Session
from repro.bench.e2ebench import tables_match
from repro.core.batchplan import plan_workload_batched
from repro.core.colplan import plan_and_price_columnar
from repro.core.executor import Environment, Policy, plan_query, price_plan
from repro.core.gridrun import GridResult, price_grid
from repro.core.queries import Query
from repro.core.schemes import SchemeConfig

__all__ = [
    "SCALAR_REL_TOL",
    "assert_columnar_differential",
    "assert_grids_identical",
    "assert_shard_differential",
    "assert_tables_close",
    "assert_tables_identical",
    "cache_state",
    "run_ledger_shape",
    "run_table",
]

#: The engines' documented agreement bound vs the scalar pricer (summation
#: order differs; everything else is exact).
SCALAR_REL_TOL = 1e-9

#: Every numeric plane of a GridResult (all compared bit-for-bit).
_GRID_ARRAYS = (
    "energy_processor", "energy_tx", "energy_rx", "energy_idle",
    "energy_sleep", "cycles_processor", "cycles_tx", "cycles_rx",
    "cycles_wait", "wall_s", "dwell_tx_s", "dwell_rx_s", "dwell_idle_s",
    "dwell_sleep_s", "sleep_exits", "retx_tx_frames", "retx_rx_frames",
    "backoff_s",
)


def cache_state(env: Environment):
    """Everything planning mutates in the environment's simulators."""
    client = env.client_cpu.dcache
    server = env.server_cpu.l1
    return (
        client.hits, client.misses, [list(s) for s in client._sets],
        server.hits, server.misses, [list(s) for s in server._sets],
    )


def assert_grids_identical(grid: GridResult, oracle: GridResult) -> None:
    """Both grids bit-for-bit: every plane, and every compiled shim."""
    assert grid.shape == oracle.shape
    for name in _GRID_ARRAYS:
        a, b = getattr(grid, name), getattr(oracle, name)
        assert np.array_equal(a, b), f"GridResult.{name} differs"
    assert len(grid.compiled) == len(oracle.compiled)
    for c, o in zip(grid.compiled, oracle.compiled):
        assert np.array_equal(c.answer_ids, o.answer_ids)
        assert c.n_candidates == o.n_candidates
        assert c.n_results == o.n_results
        assert tuple(c.messages) == tuple(o.messages)


def assert_tables_identical(table: RunTable, oracle: RunTable) -> None:
    """Row-for-row bit-identity, including the NIC dwell records."""
    ok, worst = tables_match(table, oracle, rel_tol=0.0)
    assert ok, f"RunTables differ (worst rel err {worst:.3e})"
    for a, b in zip(table.rows, oracle.rows):
        assert (a.dwell is None) == (b.dwell is None)


def assert_tables_close(
    table: RunTable, oracle: RunTable, *, rel_tol: float = SCALAR_REL_TOL
) -> None:
    """Numerics to ``rel_tol``; answer ids, tallies and messages exact."""
    ok, worst = tables_match(table, oracle, rel_tol=rel_tol)
    assert ok, f"RunTables disagree beyond {rel_tol} (worst {worst:.3e})"


def run_table(
    env: Environment,
    queries: Sequence[Query],
    configs: Sequence[SchemeConfig],
    policies: Sequence[Policy],
    *,
    planner: str = "batched",
    engine: str = "batched",
    ledger=None,
):
    """One fresh-session run; returns ``(table, cache_state_after)``."""
    session = Session(env, ledger=ledger)
    table = session.run(
        list(queries),
        schemes=list(configs),
        policies=list(policies),
        engine=engine,
        planner=planner,
    )
    return table, cache_state(env)


def run_ledger_shape(records: Sequence[dict]) -> List[dict]:
    """Ledger events minus their non-deterministic fields.

    Drops wall-clock timings (``t``, ``seconds``) and cache-statistics
    fields that depend on how often an engine consults the plan cache;
    keeps everything that must be identical across planner twins —
    event types, schemes, planner/engine labels, workload sizes, and the
    ``run`` events' full numeric payload.
    """
    volatile = {"t", "seconds", "cache_hit", "cache_hits", "cache_misses",
                "cache_hit_rate", "planner", "engine"}
    return [
        {k: v for k, v in rec.items() if k not in volatile}
        for rec in records
    ]


def assert_columnar_differential(
    env: Environment,
    queries: Sequence[Query],
    configs: Sequence[SchemeConfig],
    policies: Optional[Sequence[Policy]] = None,
) -> None:
    """The full three-way pin on one workload, from cold caches.

    1. Scalar twin: per-query plans priced per cell, cache state captured.
    2. Batched object path: one traversal into plans, one grid pricing per
       scheme; plans priced with :func:`price_grid`.
    3. Fused columnar pass: must equal the batched grids **bit for bit**
       (:func:`assert_grids_identical`) and the scalar cells to
       :data:`SCALAR_REL_TOL`; all three leave identical cache state.
    """
    queries = list(queries)
    configs = list(configs)
    policies = list(policies) if policies is not None else [Policy()]

    scalar_cells = []
    for cfg in configs:
        env.reset_caches()
        plans = [plan_query(q, cfg, env) for q in queries]
        scalar_cells.append(
            [[price_plan(p, env, pol) for pol in policies] for p in plans]
        )
    scalar_state = cache_state(env)

    batched_plans = plan_workload_batched(env, queries, configs)
    batched_state = cache_state(env)
    batched_grids = [price_grid(plans, policies, env) for plans in batched_plans]

    columnar_grids = plan_and_price_columnar(env, queries, configs, policies)
    columnar_state = cache_state(env)

    assert batched_state == scalar_state
    assert columnar_state == scalar_state
    assert len(columnar_grids) == len(batched_grids) == len(configs)
    for col, obj, cells in zip(columnar_grids, batched_grids, scalar_cells):
        assert_grids_identical(col, obj)
        for i, per_policy in enumerate(cells):
            for j, want in enumerate(per_policy):
                got = col.result(i, j)
                assert got.energy.total() == _approx(want.energy.total())
                for f in dataclasses.fields(want.energy):
                    assert getattr(got.energy, f.name) == _approx(
                        getattr(want.energy, f.name)
                    )
                for f in dataclasses.fields(want.cycles):
                    assert getattr(got.cycles, f.name) == _approx(
                        getattr(want.cycles, f.name)
                    )
                assert got.wall_seconds == _approx(want.wall_seconds)
                assert got.n_candidates == want.n_candidates
                assert got.n_results == want.n_results
                assert tuple(got.messages) == tuple(want.messages)
                assert np.array_equal(
                    np.asarray(got.answer_ids), np.asarray(want.answer_ids)
                )


def _approx(value: float):
    import pytest

    return pytest.approx(value, rel=SCALAR_REL_TOL, abs=0.0)


def assert_shard_differential(
    env: Environment,
    queries: Sequence[Query],
    configs: Sequence[SchemeConfig],
    policies: Optional[Sequence[Policy]] = None,
    *,
    sharding=None,
) -> dict:
    """Pin sharded planning to the unsharded engines on one workload.

    Builds fresh sharded environments over ``env``'s own dataset and tree
    (so the packed entry order is shared) and requires, from cold caches:

    1. **Batched twin** — ``plan_workload_batched`` through the shard
       store produces plans bit-identical to the unsharded batched planner
       (``plans_equal``: steps, op tallies, answer ids, messages) and
       leaves identical simulated cache state.
    2. **Priced grids** — ``price_grid`` over the sharded plans equals the
       unsharded grids bit for bit on every numeric plane.
    3. **Columnar twin** — ``plan_and_price_columnar`` with the store
       attached equals the unsharded grids bit for bit, with identical
       cache state (the sharded columnar path runs serially by design).
    4. **Scalar energies** — each sharded cell agrees with the scalar
       per-query pricer within :data:`SCALAR_REL_TOL`.

    ``sharding`` is the :class:`~repro.core.shardstore.ShardConfig` to pin
    (default 8 shards, unbounded residency — pass a budgeted config to
    exercise LRU spills).  Returns the batched store's lifetime stats so
    callers can additionally assert pruning/eviction behavior.
    """
    from repro.core.batchplan import plans_equal
    from repro.core.shardstore import ShardConfig, ShardStore

    queries = list(queries)
    configs = list(configs)
    policies = list(policies) if policies is not None else [Policy()]
    if sharding is None:
        sharding = ShardConfig(n_shards=8)

    env.reset_caches()
    base_plans = plan_workload_batched(env, queries, configs)
    base_state = cache_state(env)
    base_grids = [price_grid(plans, policies, env) for plans in base_plans]

    def sharded_env() -> Environment:
        e = Environment.create(env.dataset, tree=env.tree)
        e.shard_store = ShardStore.from_tree(env.tree, sharding)
        return e

    env_sh = sharded_env()
    sh_plans = plan_workload_batched(env_sh, queries, configs)
    assert cache_state(env_sh) == base_state
    for got_cfg, want_cfg in zip(sh_plans, base_plans):
        assert plans_equal(got_cfg, want_cfg)
    sh_grids = [price_grid(plans, policies, env_sh) for plans in sh_plans]
    for got, want in zip(sh_grids, base_grids):
        assert_grids_identical(got, want)

    env_col = sharded_env()
    col_grids = plan_and_price_columnar(env_col, queries, configs, policies)
    assert cache_state(env_col) == base_state
    for col, want in zip(col_grids, base_grids):
        assert_grids_identical(col, want)

    for cfg_i, cfg in enumerate(configs):
        env.reset_caches()
        for i, q in enumerate(queries):
            want = price_plan(plan_query(q, cfg, env), env, policies[0])
            got = sh_grids[cfg_i].result(i, 0)
            assert got.energy.total() == _approx(want.energy.total())
            assert got.cycles.total() == _approx(want.cycles.total())

    stats = env_sh.shard_store.stats_dict()
    assert stats["shards_touched"] >= 1
    return stats
