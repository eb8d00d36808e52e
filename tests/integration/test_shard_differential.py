"""Differential suite: sharded planning vs the unsharded engines.

Every test routes one workload through
:func:`tests.integration.oracles.assert_shard_differential`, which pins
the shard store's batched and columnar paths to the monolithic planners —
plans (steps, tallies, answer ids), priced grids bit for bit, scalar
energies to 1e-9, and simulator cache state — from cold caches.

Covers the fig4/5/6/7 workload shapes, mixed query kinds, the locality
browse workload pruning is built for, budget-limited residency over a
dataset larger than the budget (LRU spills mid-workload), composition
with the query service, and the ledger's shard fields.
"""

from __future__ import annotations

import pytest

from repro.api import Engine, Session
from repro.core.executor import Environment, Policy
from repro.core.gridrun import RunLedger, read_ledger
from repro.core.queries import RangeQuery
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, Scheme, SchemeConfig
from repro.core.shardstore import ShardConfig, ShardResidencyError, ShardStore
from repro.data import tiger
from repro.data.workloads import (
    client_fleet,
    fleet_query_stream,
    knn_queries,
    locality_workload,
    nn_queries,
    oversized_dataset,
    point_queries,
    range_queries,
)
from repro.serve import QueryService
from repro.spatial.mbr import MBR
from tests.integration.oracles import assert_shard_differential

NN_CONFIGS = (
    SchemeConfig(Scheme.FULLY_CLIENT),
    SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True),
)

POLICIES = (Policy(), tuple(Policy.sweep(loss_rates=(0.05,)))[0])


@pytest.fixture(scope="module")
def env() -> Environment:
    return Environment.create(tiger.pa_dataset(scale=0.05))


@pytest.fixture(scope="module")
def nyc_env() -> Environment:
    return Environment.create(tiger.nyc_dataset(scale=0.05))


# ----------------------------------------------------------------------
# The paper workload shapes
# ----------------------------------------------------------------------
def test_fig4_point_workload(env):
    from repro.bench.figures import POINT_NN_CONFIGS

    assert_shard_differential(
        env, point_queries(env.dataset, 12, seed=4), POINT_NN_CONFIGS,
        POLICIES,
    )


def test_fig5_range_workload(env):
    assert_shard_differential(
        env, range_queries(env.dataset, 12, seed=5),
        ADEQUATE_MEMORY_CONFIGS, POLICIES,
    )


def test_fig6_nn_workload(env):
    assert_shard_differential(
        env, nn_queries(env.dataset, 12, seed=6), NN_CONFIGS, POLICIES
    )


def test_fig7_nyc_range_workload(nyc_env):
    assert_shard_differential(
        nyc_env, range_queries(nyc_env.dataset, 12, seed=7),
        ADEQUATE_MEMORY_CONFIGS, POLICIES,
    )


def test_knn_workload(env):
    assert_shard_differential(
        env, knn_queries(env.dataset, 10, seed=8), NN_CONFIGS, POLICIES
    )


def test_mixed_kinds_one_workload(env):
    work = (
        point_queries(env.dataset, 4, seed=1)
        + range_queries(env.dataset, 4, seed=2)
        + nn_queries(env.dataset, 3, seed=3)
        + knn_queries(env.dataset, 3, seed=4)
    )
    assert_shard_differential(env, work, ADEQUATE_MEMORY_CONFIGS[:2])


# ----------------------------------------------------------------------
# Locality: the workload pruning exists for
# ----------------------------------------------------------------------
def test_locality_workload_prunes_shards(env):
    stats = assert_shard_differential(
        env,
        locality_workload(env.dataset, 8, 2, seed=31),
        ADEQUATE_MEMORY_CONFIGS[:1],
        sharding=ShardConfig(n_shards=16),
    )
    assert stats["shards_pruned"] >= 1


def test_shard_count_sweep(env):
    work = range_queries(env.dataset, 8, seed=9)
    for n in (1, 3, 16):
        assert_shard_differential(
            env, work, ADEQUATE_MEMORY_CONFIGS[:1],
            sharding=ShardConfig(n_shards=n),
        )


# ----------------------------------------------------------------------
# Out-of-core: dataset larger than the residency budget
# ----------------------------------------------------------------------
def test_budget_limited_oversized_dataset():
    ds = oversized_dataset(10_000, seed=13)
    env = Environment.create(ds)
    probe = ShardStore.from_tree(env.tree, ShardConfig(n_shards=12))
    budget = int(probe._shard_nbytes.max()) * 2
    assert budget < int(probe._shard_nbytes.sum())
    work = (
        range_queries(ds, 10, seed=14)
        + nn_queries(ds, 4, seed=15)
        + point_queries(ds, 4, seed=16)
    )
    stats = assert_shard_differential(
        env, work, ADEQUATE_MEMORY_CONFIGS[:2],
        sharding=ShardConfig(
            n_shards=12, budget_bytes=budget, on_overflow="spill"
        ),
    )
    assert stats["shard_evictions"] > 0
    assert stats["resident_bytes"] <= budget


# ----------------------------------------------------------------------
# Composition with the API surface
# ----------------------------------------------------------------------
def test_session_sharding_matches_unsharded(env):
    work = range_queries(env.dataset, 10, seed=21)
    base = Session(Environment.create(env.dataset, tree=env.tree)).run(
        work, schemes=ADEQUATE_MEMORY_CONFIGS[:2]
    )
    sharded = Session(
        Environment.create(env.dataset, tree=env.tree),
        sharding=ShardConfig(n_shards=8),
    ).run(work, schemes=ADEQUATE_MEMORY_CONFIGS[:2])
    from repro.bench.e2ebench import tables_match

    ok, worst = tables_match(sharded, base, rel_tol=0.0)
    assert ok, f"sharded RunTable differs (worst rel err {worst:.3e})"


def test_session_rejects_sharding_on_engine_source(env):
    engine = Engine(Environment.create(env.dataset, tree=env.tree))
    with pytest.raises(TypeError, match="sharding"):
        Session(engine, sharding=ShardConfig(n_shards=4))


def test_ledger_records_shard_fields(env):
    ledger = RunLedger()
    session = Session(
        Environment.create(env.dataset, tree=env.tree),
        sharding=ShardConfig(n_shards=8), ledger=ledger,
    )
    session.run(
        range_queries(env.dataset, 6, seed=51),
        schemes=ADEQUATE_MEMORY_CONFIGS[:1],
    )
    plans = [r for r in ledger.records if r.get("event") == "plan"]
    assert plans
    rec = plans[-1]
    assert rec["shards_total"] == 8
    assert 0 <= rec["shards_pruned"] < rec["shards_total"]
    assert rec["shards_pruned"] + rec["shards_touched"] == rec["shards_total"]
    from repro.bench.report import summarize_ledger

    text = summarize_ledger(ledger.records)
    assert "shards" in text and "pruned at plan time" in text


# ----------------------------------------------------------------------
# The per-call stats window
# ----------------------------------------------------------------------
def _window(session: Session, queries, planner: str) -> tuple:
    """``(shards_touched, shards_pruned)`` of one planning call's events."""
    ledger = session.ledger
    start = len(ledger.records)
    session.run(
        queries, schemes=SchemeConfig(Scheme.FULLY_CLIENT), policies=Policy(),
        planner=planner,
    )
    plans = [r for r in ledger.records[start:] if r["event"] == "plan"]
    assert plans
    return plans[-1]["shards_touched"], plans[-1]["shards_pruned"]


@pytest.fixture(scope="module")
def env_tenth() -> Environment:
    return Environment.create(tiger.pa_dataset(scale=0.1))


@pytest.mark.parametrize("planner", ["batched", "columnar"])
def test_failed_call_does_not_leak_into_next_plan_event(
    env_tenth, planner, tmp_path
):
    """A call that loads shards and then overflows residency leaves its
    counters behind; the next call's ``plan`` event must not report them."""
    ds = env_tenth.dataset
    probe = ShardStore.from_tree(env_tenth.tree, ShardConfig(n_shards=8))
    sharding = ShardConfig(
        n_shards=8, budget_bytes=int(probe._shard_nbytes.max())
    )
    ext = ds.extent
    failing = nn_queries(ds, 6, seed=71) + [
        RangeQuery(MBR(ext.xmin, ext.ymin, ext.xmax, ext.ymax))
    ]
    one = point_queries(ds, 1, seed=72)
    path = tmp_path / "run.jsonl"
    with RunLedger(str(path)) as ledger:
        session = Session(
            Environment.create(ds, tree=env_tenth.tree),
            sharding=sharding, ledger=ledger,
        )
        with pytest.raises(ShardResidencyError):
            _window(session, failing, planner)
        got = _window(session, one, planner)
    fresh = Session(
        Environment.create(ds, tree=env_tenth.tree),
        sharding=sharding, ledger=RunLedger(),
    )
    assert got == _window(fresh, one, planner)
    # The failed call left the file whole: every line still parses.
    records = read_ledger(str(path))
    assert len(records) == len(path.read_text().splitlines())
    assert [r["event"] for r in records].count("plan") == 1


def test_serve_does_not_leak_into_next_plan_event(env_tenth):
    """A service run on a shared engine, then a session on that engine."""
    ds = env_tenth.dataset
    sharding = ShardConfig(n_shards=8)
    fleet = client_fleet(4, seed=73)
    requests = fleet_query_stream(ds, fleet, duration_s=2.0, seed=74)
    one = range_queries(ds, 1, seed=72)
    engine = Engine(
        Environment.create(ds, tree=env_tenth.tree),
        sharding=sharding, ledger=RunLedger(),
    )
    QueryService(engine).serve(requests, fleet)
    fresh = Session(
        Environment.create(ds, tree=env_tenth.tree),
        sharding=sharding, ledger=RunLedger(),
    )
    assert _window(Session(engine), one, "columnar") == _window(
        fresh, one, "columnar"
    )
