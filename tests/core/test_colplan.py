"""Unit tests for the fused columnar plan→price engine (colplan)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Engine, Session
from repro.core.batchplan import compute_query_phases, plan_workload_batched
from repro.core.colplan import (
    compile_slots,
    plan_and_price_columnar,
    price_compiled,
)
from repro.core.executor import (
    ClientComputeStep,
    Policy,
    ServerComputeStep,
    plan_query,
)
from repro.core.gridrun import RunLedger, compile_plan, price_grid
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, Scheme, SchemeConfig
from repro.data.workloads import knn_queries, nn_queries, range_queries

FC = SchemeConfig(Scheme.FULLY_CLIENT)
FS_PRESENT = SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True)
NN_CONFIGS = (FC, FS_PRESENT)


def _slot_costs_of(plan):
    """A plan's compute costs in slot order ([pre?, server, post?])."""
    out = []
    for step in plan.steps:
        if isinstance(step, ClientComputeStep):
            out.append(step.cost)
        elif isinstance(step, ServerComputeStep):
            out.append(step)  # compile_slots reads only .cycles
    return out


class TestValidation:
    def test_empty_queries_raise(self, env_small):
        with pytest.raises(ValueError, match="at least one query"):
            plan_and_price_columnar(env_small, [], [FC], [Policy()])

    def test_empty_policies_raise(self, env_small, pa_small):
        qs = range_queries(pa_small, 2)
        with pytest.raises(ValueError, match="at least one policy"):
            plan_and_price_columnar(env_small, qs, [FC], [])

    def test_empty_configs_return_empty(self, env_small, pa_small):
        qs = range_queries(pa_small, 2)
        assert plan_and_price_columnar(env_small, qs, [], [Policy()]) == []

    def test_invalid_scheme_for_query_raises(self, env_small, pa_small):
        qs = nn_queries(pa_small, 2)
        bad = SchemeConfig(Scheme.FILTER_CLIENT_REFINE_SERVER,
                           data_at_client=True)
        with pytest.raises(ValueError):
            plan_and_price_columnar(env_small, qs, [bad], [Policy()])

    def test_plan_grid_rejects_columnar(self, env_small, pa_small):
        qs = range_queries(pa_small, 2)
        with pytest.raises(ValueError, match="never materializes plans"):
            Engine(env_small).plan_grid(qs, [FC], planner="columnar")

    def test_session_scalar_engine_rejects_columnar(self, env_small, pa_small):
        qs = range_queries(pa_small, 2)
        with pytest.raises(ValueError, match="engine='scalar'"):
            Session(env_small).run(
                qs, schemes=[FC], planner="columnar", engine="scalar"
            )


class TestPriceCompiled:
    def _compiled(self, env, n=2):
        qs = range_queries(env.dataset, n)
        [plans] = plan_workload_batched(env, qs, [FS_PRESENT])
        phases = compute_query_phases(env, qs)
        net = Policy().network
        return [
            compile_slots(qp, FS_PRESENT, _slot_costs_of(plan), env, net)
            for qp, plan in zip(phases, plans)
        ]

    def test_empty_inputs_raise(self, env_small):
        compiled = self._compiled(env_small)
        with pytest.raises(ValueError, match="compiled plan"):
            price_compiled([], [Policy()], env_small, Policy().network)
        with pytest.raises(ValueError, match="policy"):
            price_compiled(compiled, [], env_small, Policy().network)

    def test_framing_mismatch_raises(self, env_small):
        import dataclasses

        compiled = self._compiled(env_small)
        base = Policy()
        other = dataclasses.replace(
            base,
            network=dataclasses.replace(base.network, mtu_bytes=576),
        )
        assert other.network.mtu_bytes != Policy().network.mtu_bytes
        with pytest.raises(ValueError, match="framing"):
            price_compiled(
                compiled, [other], env_small, Policy().network
            )

    def test_matches_price_grid(self, env_small):
        qs = range_queries(env_small.dataset, 3)
        [plans] = plan_workload_batched(env_small, qs, [FS_PRESENT])
        policies = [Policy(), Policy().with_bandwidth(2e6)]
        want = price_grid(plans, policies, env_small)
        compiled = self._compiled(env_small, n=3)
        got = price_compiled(compiled, policies, env_small, Policy().network)
        assert np.array_equal(got.energy_processor, want.energy_processor)
        assert np.array_equal(got.wall_s, want.wall_s)
        assert np.array_equal(got.cycles_wait, want.cycles_wait)


class TestCompileSlots:
    @pytest.mark.parametrize("config", list(ADEQUATE_MEMORY_CONFIGS))
    def test_equals_compile_plan_every_scheme(self, env_small, config):
        qs = range_queries(env_small.dataset, 3, seed=44)
        net = Policy().network
        env_small.reset_caches()
        for q in qs:
            plan = plan_query(q, config, env_small)
            want = compile_plan(plan, env_small, net)
            phases = compute_query_phases(env_small, [q])[0]
            got = compile_slots(
                phases, config, _slot_costs_of(plan), env_small, net
            )
            for field in (
                "proc_cycles", "proc_energy_j", "quiet_s", "idle_wait_s",
                "sleep_wait_s", "tx_bits", "rx_bits", "tx_frames",
                "rx_frames", "n_exits_sleep", "n_tx_wake_sleep",
                "n_exits_nosleep", "n_tx_wake_nosleep", "messages",
                "n_candidates", "n_results",
            ):
                assert getattr(got, field) == getattr(want, field), field
            assert np.array_equal(got.answer_ids, want.answer_ids)


class TestShardedPhases:
    def test_engine_run_columnar(self, env_small, pa_small):
        """Engine.run_columnar returns per-scheme grids + plan ledger events."""
        qs = knn_queries(pa_small, 4)
        ledger = RunLedger()
        engine = Engine(env_small, ledger=ledger)
        grids = engine.run_columnar(qs, NN_CONFIGS, [Policy()])
        assert len(grids) == len(NN_CONFIGS)
        assert all(g.shape == (len(qs), 1) for g in grids)
        plan_events = [r for r in ledger.records if r["event"] == "plan"]
        assert len(plan_events) == len(NN_CONFIGS)
        assert all(r["planner"] == "columnar" for r in plan_events)
