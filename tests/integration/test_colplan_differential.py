"""Differential suite: the fused columnar engine vs its two oracles.

:func:`repro.core.colplan.plan_and_price_columnar` promises GridResults
**bit-identical** to pricing the batched planner's object plans through
:func:`repro.core.gridrun.price_grid`, and therefore within the engines'
1e-9 agreement bound of the scalar ``plan_query`` + ``price_plan`` twin.
Every test here runs all three paths on one workload through the shared
oracle layer (:mod:`tests.integration.oracles`) and demands exactly that —
including the simulated cache state all three leave behind.

Covers the fig4/5/6/7 workload shapes, all four query kinds, the
locality browse workload and hand-built repeated/nested windows, lossy-link
policy grids, warm-seeded caches, degenerate and empty windows, k past the
dataset size, the Session/ledger surface, and
hypothesis-random workloads over random datasets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import repro.sim.cache as cache_mod
from repro.core.batchplan import plan_workload_batched
from repro.core.colplan import plan_and_price_columnar
from repro.core.executor import Environment, Policy, plan_query
from repro.core.gridrun import RunLedger, price_grid
from repro.core.queries import KNNQuery, PointQuery, RangeQuery
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, Scheme, SchemeConfig
from repro.data import tiger
from repro.data.model import SegmentDataset
from repro.data.workloads import (
    knn_queries,
    locality_workload,
    nn_queries,
    point_queries,
    range_queries,
)
from repro.spatial.mbr import MBR
from tests.integration.oracles import (
    assert_columnar_differential,
    assert_grids_identical,
    assert_tables_identical,
    cache_state,
    run_ledger_shape,
    run_table,
)
from tests.integration.test_batchplan_differential import (
    nn_workloads,
    small_envs,
    window_workloads,
)

NN_CONFIGS = (
    SchemeConfig(Scheme.FULLY_CLIENT),
    SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True),
)

#: Ideal-channel bandwidth sweep plus a lossy tail — both framings, so the
#: per-framing pricing loop and the retransmission columns are exercised.
LOSSY_POLICIES = tuple(Policy.sweep()) + tuple(
    Policy.sweep(loss_rates=(0.05,))
)


@pytest.fixture(scope="module")
def env() -> Environment:
    return Environment.create(tiger.pa_dataset(scale=0.05))


@pytest.fixture(scope="module")
def nyc_env() -> Environment:
    return Environment.create(tiger.nyc_dataset(scale=0.05))


# ----------------------------------------------------------------------
# The paper workload shapes, under lossy policy grids
# ----------------------------------------------------------------------
def test_fig4_point_workload(env):
    from repro.bench.figures import POINT_NN_CONFIGS

    assert_columnar_differential(
        env, point_queries(env.dataset, 12, seed=4), POINT_NN_CONFIGS,
        LOSSY_POLICIES,
    )


def test_fig5_range_workload(env):
    assert_columnar_differential(
        env, range_queries(env.dataset, 12, seed=5), ADEQUATE_MEMORY_CONFIGS,
        LOSSY_POLICIES,
    )


def test_fig5_range_workload_sharded_replay(env, monkeypatch):
    """Same workload with every D-cache replay stream as its own shard."""
    monkeypatch.setattr(cache_mod, "_PARALLEL_MIN_ACCESSES", 1)
    assert_columnar_differential(
        env, range_queries(env.dataset, 12, seed=5), ADEQUATE_MEMORY_CONFIGS,
        LOSSY_POLICIES,
    )


def test_fig6_nn_workload(env):
    assert_columnar_differential(
        env, nn_queries(env.dataset, 12, seed=6), NN_CONFIGS, LOSSY_POLICIES
    )


def test_fig7_nyc_range_workload(nyc_env):
    assert_columnar_differential(
        nyc_env, range_queries(nyc_env.dataset, 12, seed=7),
        ADEQUATE_MEMORY_CONFIGS, LOSSY_POLICIES,
    )


def test_knn_workload(env):
    assert_columnar_differential(
        env, knn_queries(env.dataset, 12, seed=8), NN_CONFIGS, LOSSY_POLICIES
    )


def test_mixed_query_kinds_one_workload(env):
    ds = env.dataset
    mixed = (
        point_queries(ds, 4, seed=21)
        + range_queries(ds, 4, seed=22)
        + nn_queries(ds, 4, seed=23)
        + knn_queries(ds, 4, seed=25)
    )
    assert_columnar_differential(env, mixed, NN_CONFIGS, LOSSY_POLICIES)


def test_locality_workload(env):
    """Drifting hot windows, strictly nested zooms and back navigation."""
    assert_columnar_differential(
        env, locality_workload(env.dataset, 8, 2, seed=31),
        ADEQUATE_MEMORY_CONFIGS, LOSSY_POLICIES,
    )


def test_repeat_nest_and_cover_windows(env):
    """Exact repeats, nested zooms, a point inside a window, and a window
    covered by two overlapping slabs, in one sequence."""
    ext = env.dataset.extent
    w = ext.width / 8
    h = ext.height / 8
    x0 = ext.xmin + 2 * w
    y0 = ext.ymin + 2 * h
    outer = MBR(x0, y0, x0 + 2 * w, y0 + 2 * h)
    inner = MBR(x0 + w / 2, y0 + h / 2, x0 + w, y0 + h)
    left = MBR(x0, y0, x0 + w, y0 + 2 * h)
    right = MBR(x0 + w * 0.8, y0, x0 + 2 * w, y0 + 2 * h)
    spanning = MBR(x0 + w / 4, y0 + h / 4, x0 + 1.5 * w, y0 + 1.5 * h)
    queries = [
        RangeQuery(outer),
        RangeQuery(outer),            # exact repeat
        RangeQuery(inner),            # nested in the previous window
        PointQuery(inner.xmin, inner.ymin),  # degenerate window in outer
        RangeQuery(left),
        RangeQuery(right),
        RangeQuery(spanning),         # covered by left | right, by neither alone
        RangeQuery(inner),            # repeat after other windows
    ]
    assert_columnar_differential(
        env, queries, ADEQUATE_MEMORY_CONFIGS, LOSSY_POLICIES
    )


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
def test_empty_and_degenerate_windows(env):
    ext = env.dataset.extent
    off = ext.width + ext.height
    cx = (ext.xmin + ext.xmax) / 2.0
    cy = (ext.ymin + ext.ymax) / 2.0
    queries = [
        # Far outside the extent: zero candidates, zero answers.
        RangeQuery(MBR(ext.xmax + off, ext.ymax + off,
                       ext.xmax + 2 * off, ext.ymax + 2 * off)),
        PointQuery(ext.xmax + off, ext.ymax + off),
        RangeQuery(MBR(cx, cy, cx, cy)),  # zero-area point window
        RangeQuery(MBR(ext.xmin, cy, ext.xmax, cy)),  # zero-height slab
        RangeQuery(MBR(ext.xmin, ext.ymin, ext.xmax, ext.ymax)),  # everything
    ]
    assert_columnar_differential(env, queries, ADEQUATE_MEMORY_CONFIGS)


def test_knn_k_exceeds_dataset():
    rng = np.random.default_rng(41)
    cx = rng.uniform(0, 100, 12)
    cy = rng.uniform(0, 100, 12)
    ds = SegmentDataset("tiny", cx, cy, cx + 3.0, cy + 3.0)
    small = Environment.create(ds)
    queries = [
        KNNQuery(10.0, 10.0, k=12),
        KNNQuery(50.0, 50.0, k=25),
        KNNQuery(90.0, 5.0, k=100),
    ]
    assert_columnar_differential(small, queries, NN_CONFIGS, LOSSY_POLICIES)


def test_single_query_workload(env):
    assert_columnar_differential(
        env, range_queries(env.dataset, 1, seed=9), ADEQUATE_MEMORY_CONFIGS
    )


def test_warm_cache_parity(env):
    """reset_caches=False continues the live cache state bit-for-bit.

    Two identically warmed twin environments: the batched object path runs
    warm on one, the columnar pass warm on the other; grids and final
    cache states must coincide exactly.
    """
    ds = env.dataset
    warmup = range_queries(ds, 5, seed=31)
    work = range_queries(ds, 10, seed=32) + knn_queries(ds, 5, seed=33)
    cfg = NN_CONFIGS[0]
    policies = list(Policy.sweep())

    def warmed() -> Environment:
        twin = Environment.create(ds)
        twin.reset_caches()
        for q in warmup:
            plan_query(q, cfg, twin)
        return twin

    env_obj, env_col = warmed(), warmed()
    [plans] = plan_workload_batched(env_obj, work, [cfg], reset_caches=False)
    grid_obj = price_grid(plans, policies, env_obj)
    [grid_col] = plan_and_price_columnar(
        env_col, work, [cfg], policies, reset_caches=False
    )
    assert_grids_identical(grid_col, grid_obj)
    assert cache_state(env_col) == cache_state(env_obj)


# ----------------------------------------------------------------------
# The Session / ledger surface
# ----------------------------------------------------------------------
def test_session_runtable_and_ledger_parity(env):
    queries = range_queries(env.dataset, 10, seed=61)
    policies = list(Policy.sweep())
    led_b, led_c = RunLedger(), RunLedger()
    table_b, state_b = run_table(
        env, queries, ADEQUATE_MEMORY_CONFIGS, policies, ledger=led_b
    )
    table_c, state_c = run_table(
        env, queries, ADEQUATE_MEMORY_CONFIGS, policies,
        planner="columnar", ledger=led_c,
    )
    assert_tables_identical(table_c, table_b)
    assert state_c == state_b
    assert run_ledger_shape(led_c.records) == run_ledger_shape(led_b.records)
    assert any(
        r["event"] == "price" and r["engine"] == "columnar"
        for r in led_c.records
    )


# ----------------------------------------------------------------------
# Hypothesis: random workloads over random datasets
# ----------------------------------------------------------------------
@given(small_envs(), window_workloads())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hypothesis_random_windows(hyp_env, queries):
    assert_columnar_differential(hyp_env, queries, ADEQUATE_MEMORY_CONFIGS)


@given(small_envs(), nn_workloads())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hypothesis_random_nn_batches(hyp_env, queries):
    assert_columnar_differential(hyp_env, queries, NN_CONFIGS)
