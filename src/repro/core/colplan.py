"""Fused columnar plan→price engine.

The batched planner (:mod:`repro.core.batchplan`) already traverses whole
workloads with flat NumPy traces and replays cache streams in bulk — but it
then materializes one :class:`~repro.core.executor.QueryPlan` per (query,
scheme) pair, only for :mod:`repro.core.gridrun` to immediately re-aggregate
those objects back into arrays.  This module removes that object churn: the
trace columns flow straight into :class:`~repro.core.gridrun.PlanAggregates`
and are priced by the same :func:`~repro.core.gridrun._price_framing_into`
broadcast the object path uses, so the two engines are arithmetically
identical by construction.

The fusion works column by column:

1. **Phases** — :func:`~repro.core.batchplan.compute_query_phases`
   produces per-query phase data in one batched traversal (deduplicated
   through the phase cache).
2. **Replay** — :func:`~repro.core.batchplan._replay_workload` simulates
   every configuration's cache streams in one :class:`BatchedLRU` run;
   per-phase hit/miss counts come back as one cumulative-sum gather per
   compute slot instead of a Python call per phase.
3. **Pricing** — op tallies are gathered into one ``(n_counters, 9)``
   matrix and the CPU/server cost formulas are applied as array
   expressions (exact mirrors of :meth:`ClientCPU.compute_replayed`,
   :meth:`ClientCPU.protocol` and :meth:`ServerCPU.compute_replayed`,
   term for term and in the same order, so results are bit-identical to
   the object path).  Per-scheme step templates (the same templates
   :func:`~repro.core.batchplan._assemble_plan` encodes as step objects)
   combine the slot columns into plan aggregates; NIC sleep-exit counts
   are scheme constants because every template wakes the radio the same
   way for every query.

The scalar path (``plan_query`` + ``price_plan``) and the object-based
batched path remain untouched as differential oracles; the integration
suite pins all three against each other.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.constants import NetworkConfig
from repro.core.batchplan import (
    PhaseDataCache,
    QueryPhases,
    _query_phase_slots,
    _replay_workload,
    _writeback_sims,
    compute_query_phases,
)
from repro.core.executor import Environment, Policy
from repro.core.gridrun import (
    CompiledPlan,
    GridResult,
    PlanAggregates,
    _empty_grid,
    _PolicyColumns,
    _price_framing_into,
    framing_key,
)
from repro.core.queries import Query
from repro.core.schemes import Scheme, SchemeConfig
from repro.sim.protocol import packetize
from repro.sim.server import _L1_MISS_PENALTY

__all__ = [
    "plan_and_price_columnar",
    "compile_slots",
    "price_compiled",
]


# ----------------------------------------------------------------------
# Op-counter columns
# ----------------------------------------------------------------------
#: Column order of the counter matrix (mirrors OpCounter._COUNT_FIELDS).
_FIELDS = (
    "nodes_visited",
    "mbr_tests",
    "entries_scanned",
    "candidates_refined",
    "point_refine_tests",
    "range_refine_tests",
    "distance_evals",
    "heap_ops",
    "results_produced",
)
_NODES, _MBR, _ENTRIES, _REFINED, _POINT_T, _RANGE_T, _DIST, _HEAP, _RESULTS = range(9)


class _CounterTable:
    """Deduplicated op-counter rows, materialized as one (n, 9) matrix.

    Counters are keyed by identity (phase data is shared across repeated
    queries and configurations) and pinned so ids stay unique for the
    table's lifetime.
    """

    def __init__(self) -> None:
        self._rows: Dict[int, int] = {}
        self._keep: List[object] = []
        self._vals: List[List[float]] = []

    def row(self, counter) -> int:
        r = self._rows.get(id(counter))
        if r is None:
            r = len(self._vals)
            self._rows[id(counter)] = r
            self._keep.append(counter)
            self._vals.append([getattr(counter, f) for f in _FIELDS])
        return r

    def matrix(self) -> np.ndarray:
        if not self._vals:
            return np.zeros((0, 9), dtype=np.float64)
        return np.asarray(self._vals, dtype=np.float64)


# ----------------------------------------------------------------------
# Vectorized CPU cost formulas (exact mirrors of sim.cpu / sim.server)
# ----------------------------------------------------------------------
def _client_price(client, instructions, accesses, misses):
    """Array mirror of :meth:`ClientCPU._price` → (cycles, energy_j)."""
    c = client.costs
    cycles = instructions + misses * client.config.memory_latency_cycles
    energy = (
        cycles * c.energy_per_cycle_j
        + instructions * c.energy_per_icache_access_j
        + accesses * c.energy_per_dcache_access_j
        + misses * c.energy_per_memory_access_j
    )
    v_ratio = (client.config.supply_voltage / 3.3) ** 2
    return cycles, energy * v_ratio


def _client_instructions(client, C):
    """Array mirror of ``instruction_counts`` + FP emulation expansion."""
    c = client.costs
    int_instr = (
        C[:, _NODES] * c.instr_per_node_visit
        + C[:, _MBR] * c.instr_per_mbr_test
        + C[:, _ENTRIES] * c.instr_per_entry_scan
        + C[:, _REFINED] * c.instr_per_refine_setup
        + C[:, _HEAP] * c.instr_per_heap_op
        + C[:, _RESULTS] * c.instr_per_result
    )
    fp_ops = (
        C[:, _MBR] * c.fp_per_mbr_test
        + C[:, _POINT_T] * c.fp_per_point_refine
        + C[:, _RANGE_T] * c.fp_per_range_refine
        + C[:, _DIST] * c.fp_per_distance
    )
    return int_instr + fp_ops * c.client_fp_emulation_cycles


def _client_fallback_hm(client, C):
    """Mirror of :meth:`ClientCPU.compute`'s no-trace estimate branch."""
    c = client.costs
    touched = C[:, _NODES] * (
        c.index_node_header_bytes + c.index_entry_bytes * 12
    ) + C[:, _REFINED] * c.segment_record_bytes
    accesses = np.floor_divide(
        touched, client.config.cache_line_bytes
    ).astype(np.int64) + 1
    misses = (accesses * client.fallback_miss_rate).astype(np.int64)
    return accesses, misses


def _server_cycles(server, C, misses):
    """Array mirror of :meth:`ServerCPU.compute_replayed` (cycles only)."""
    c = server.costs
    int_instr = (
        C[:, _NODES] * c.instr_per_node_visit
        + C[:, _MBR] * c.instr_per_mbr_test
        + C[:, _ENTRIES] * c.instr_per_entry_scan
        + C[:, _REFINED] * c.instr_per_refine_setup
        + C[:, _HEAP] * c.instr_per_heap_op
        + C[:, _RESULTS] * c.instr_per_result
    )
    fp_ops = (
        C[:, _MBR] * c.fp_per_mbr_test
        + C[:, _POINT_T] * c.fp_per_point_refine
        + C[:, _RANGE_T] * c.fp_per_range_refine
        + C[:, _DIST] * c.fp_per_distance
    )
    instructions = int_instr + fp_ops * c.server_fp_cycles
    return instructions / server.config.effective_ipc + misses * _L1_MISS_PENALTY


def _server_fallback_misses(server, C):
    """Mirror of :meth:`ServerCPU.compute`'s no-trace estimate branch."""
    c = server.costs
    touched = C[:, _NODES] * 256 + C[:, _REFINED] * c.segment_record_bytes
    accesses = np.floor_divide(touched, 64).astype(np.int64) + 1
    return (accesses * server.fallback_miss_rate).astype(np.int64)


def _proto_costs(client, payload, net: NetworkConfig):
    """Vectorized ``client.protocol(packetize(payload, net))``.

    ``np.ceil`` of the same float division reproduces ``math.ceil``
    bit-for-bit, so frame counts match the scalar packetizer exactly.
    Returns ``(cycles, energy_j, wire_bits, n_frames)`` arrays.
    """
    cap = net.mtu_bytes - net.tcp_header_bytes - net.ip_header_bytes
    if cap <= 0:
        raise ValueError(
            f"MTU {net.mtu_bytes} too small for TCP/IP headers "
            f"({net.tcp_header_bytes}+{net.ip_header_bytes})"
        )
    p = payload.astype(np.float64)
    nf = np.maximum(1.0, np.ceil(p / cap))
    overhead = net.tcp_header_bytes + net.ip_header_bytes + net.link_header_bytes
    wire_bits = (p + nf * overhead) * 8.0
    cn = client.network
    instructions = (
        cn.per_message_instructions
        + nf * cn.per_frame_instructions
        + p * cn.per_byte_instructions
    )
    accesses = payload // client.config.cache_line_bytes + nf
    cycles, energy = _client_price(client, instructions, accesses, accesses)
    return cycles, energy, wire_bits, nf


# ----------------------------------------------------------------------
# Slot collection: per-config trace columns out of the phase data
# ----------------------------------------------------------------------
class _SlotData:
    """One compute slot's columns across the workload."""

    __slots__ = ("side", "rows", "h", "m")


def _collect_slots(
    phases: Sequence[QueryPhases],
    config: SchemeConfig,
    entry: Dict[str, tuple],
    costs,
    table: _CounterTable,
) -> List[_SlotData]:
    """Transpose the per-query slot walk into per-slot workload columns.

    A validated workload has a uniform slot-side layout per configuration
    (``validate_for`` rejects the NN/scheme combinations that would differ),
    which is what makes the slot dimension a clean axis to vectorize over.
    """
    slot_sides: List[str] = []
    slot_rows: List[List[int]] = []
    for qp in phases:
        slots = _query_phase_slots(qp, config, costs)
        if not slot_sides:
            slot_sides = [side for side, _ in slots]
            slot_rows = [[] for _ in slots]
        elif [side for side, _ in slots] != slot_sides:  # pragma: no cover
            raise ValueError(
                f"non-uniform slot layout under {config.scheme!r}; "
                "workload mixes phase shapes the columnar engine cannot batch"
            )
        for t, (_side, trace) in enumerate(slots):
            slot_rows[t].append(table.row(trace.counter))
    nq = len(phases)
    k_side = {
        "client": slot_sides.count("client"),
        "server": slot_sides.count("server"),
    }
    out: List[_SlotData] = []
    seen = {"client": 0, "server": 0}
    for t, side in enumerate(slot_sides):
        sd = _SlotData()
        sd.side = side
        sd.rows = np.asarray(slot_rows[t], dtype=np.int64)
        stream_base = entry.get(side)
        if stream_base is not None:
            stream, base = stream_base
            # The config's stream lays phases out query-major: query i's
            # j-th slot on this side sits at base + i*k + j.
            pos = base + np.arange(nq, dtype=np.int64) * k_side[side] + seen[side]
            s = stream.starts[pos]
            e = stream.ends[pos]
            h = stream.cum[e] - stream.cum[s]
            sd.h = h
            sd.m = (e - s) - h
        else:
            # No cache simulation on this side: priced via the scalar
            # path's fallback estimate (computed later from the counts).
            sd.h = None
            sd.m = None
        seen[side] += 1
        out.append(sd)
    return out


def _slot_cost_arrays(env: Environment, slots: List[_SlotData], M: np.ndarray):
    """Price every slot column → (client cycles/energies, server cycles).

    Client slots come back in slot order as two parallel lists; the single
    server slot (when present) as one cycles array.
    """
    client = env.client_cpu
    server = env.server_cpu
    ccyc: List[np.ndarray] = []
    cen: List[np.ndarray] = []
    scyc: Optional[np.ndarray] = None
    for sd in slots:
        C = M[sd.rows]
        if sd.side == "client":
            if sd.h is None:
                acc, mis = _client_fallback_hm(client, C)
            else:
                # compute_replayed charges accesses = hits on the client.
                acc, mis = sd.h, sd.m
            cy, en = _client_price(client, _client_instructions(client, C), acc, mis)
            ccyc.append(cy)
            cen.append(en)
        else:
            mis = _server_fallback_misses(server, C) if sd.m is None else sd.m
            scyc = _server_cycles(server, C, mis)
    return ccyc, cen, scyc


# ----------------------------------------------------------------------
# Scheme templates → plan aggregates
# ----------------------------------------------------------------------
def _payload_arrays(config: SchemeConfig, n_cand, n_res, costs):
    """Per-query (send, recv) payload bytes; (None, None) for FULLY_CLIENT.

    Exact mirrors of the message constructors ``_assemble_plan`` uses.
    """
    scheme = config.scheme
    if scheme is Scheme.FULLY_CLIENT:
        return None, None
    if scheme is Scheme.FILTER_CLIENT_REFINE_SERVER:
        send = costs.request_bytes + n_cand * costs.object_id_bytes
    else:
        send = np.full(n_res.size, costs.request_bytes, dtype=np.int64)
    if scheme is Scheme.FILTER_SERVER_REFINE_CLIENT:
        recv = n_cand * costs.object_id_bytes
    elif config.data_at_client:
        recv = n_res * costs.object_id_bytes
    else:
        recv = n_res * costs.segment_record_bytes
    return send, recv


def _aggregates_for(
    env: Environment,
    config: SchemeConfig,
    ccyc: List[np.ndarray],
    cen: List[np.ndarray],
    scyc: Optional[np.ndarray],
    send,
    recv,
    net: NetworkConfig,
) -> PlanAggregates:
    """One scheme's plan aggregates under one wire framing.

    Term order matches :func:`~repro.core.gridrun.compile_plan`'s walk over
    the steps ``_assemble_plan`` would emit, so every sum is bit-identical
    to compiling the object plans.  The NIC exit counters are scheme
    constants: FULLY_CLIENT never wakes the radio (one no-sleep exit on
    the first quiet period); every message-passing template wakes it once
    out of SLEEP inside ``transmit()`` under the sleeping discipline.
    """
    client = env.client_cpu
    server = env.server_cpu
    clock = client.config.clock_hz
    nq = ccyc[0].shape[0] if ccyc else scyc.shape[0]
    zero = np.zeros(nq, dtype=np.float64)
    if config.scheme is Scheme.FULLY_CLIENT:
        return PlanAggregates(
            proc_cycles=ccyc[0],
            proc_energy_j=cen[0],
            quiet_s=ccyc[0] / clock,
            idle_wait_s=zero,
            sleep_wait_s=zero,
            tx_bits=zero,
            rx_bits=zero,
            tx_frames=zero,
            rx_frames=zero,
            exits2=np.tile(np.array([0.0, 1.0]), (nq, 1)),
            txwake2=np.zeros((nq, 2), dtype=np.float64),
        )

    s_cyc, s_en, s_bits, s_frames = _proto_costs(client, send, net)
    r_cyc, r_en, r_bits, r_frames = _proto_costs(client, recv, net)
    if config.scheme is Scheme.FILTER_CLIENT_REFINE_SERVER:
        pre, post = [0], [1]  # filter at client, then display
    else:
        pre, post = [], [0]  # display (FS) / refine (FSRC) after the reply
    terms_c = [ccyc[i] for i in pre] + [s_cyc, r_cyc] + [ccyc[i] for i in post]
    terms_e = [cen[i] for i in pre] + [s_en, r_en] + [cen[i] for i in post]
    proc_cycles = terms_c[0]
    for t in terms_c[1:]:
        proc_cycles = proc_cycles + t
    proc_energy = terms_e[0]
    for t in terms_e[1:]:
        proc_energy = proc_energy + t
    quiet = terms_c[0] / clock
    for t in terms_c[1:]:
        quiet = quiet + t / clock
    return PlanAggregates(
        proc_cycles=proc_cycles,
        proc_energy_j=proc_energy,
        quiet_s=quiet,
        idle_wait_s=scyc / server.config.clock_hz,
        sleep_wait_s=zero,
        tx_bits=s_bits,
        rx_bits=r_bits,
        tx_frames=s_frames,
        rx_frames=r_frames,
        exits2=np.tile(np.array([1.0, 1.0]), (nq, 1)),
        txwake2=np.tile(np.array([1.0, 0.0]), (nq, 1)),
    )


class _ColCompiled:
    """The slice of :class:`CompiledPlan` that GridResult consumers read.

    ``result()``/``combine_policy()`` need per-query answer ids, counts and
    the message log; the pricing aggregates stay columnar and never exist
    per query.
    """

    __slots__ = ("answer_ids", "n_candidates", "n_results", "messages")

    def __init__(self, answer_ids, n_candidates, n_results, messages) -> None:
        self.answer_ids = answer_ids
        self.n_candidates = n_candidates
        self.n_results = n_results
        self.messages = messages


def _shims_for(
    phases: Sequence[QueryPhases], n_cand: np.ndarray, send, recv
) -> List[_ColCompiled]:
    if send is None:
        return [
            _ColCompiled(qp.answer_ids, int(nc), int(qp.answer_ids.size), ())
            for qp, nc in zip(phases, n_cand)
        ]
    return [
        _ColCompiled(
            qp.answer_ids,
            int(nc),
            int(qp.answer_ids.size),
            (("tx", int(s)), ("rx", int(r))),
        )
        for qp, nc, s, r in zip(phases, n_cand, send, recv)
    ]


# ----------------------------------------------------------------------
# The fused engine
# ----------------------------------------------------------------------
def plan_and_price_columnar(
    env: Environment,
    queries: Sequence[Query],
    configs: Sequence[SchemeConfig],
    policies: Sequence[Policy],
    *,
    reset_caches: bool = True,
    phase_cache: Optional[PhaseDataCache] = None,
) -> List[GridResult]:
    """Plan and price the whole grid in one columnar pass.

    Returns one :class:`GridResult` per configuration, aligned with
    ``configs`` — each cell-for-cell bit-identical to pricing the batched
    planner's object plans through :func:`price_grid`, and therefore within
    the documented float tolerance of the scalar ``plan_query`` +
    ``price_plan`` walk.  The environment's caches finish in exactly the
    state the scalar loop leaves them.
    """
    queries = list(queries)
    configs = list(configs)
    policies = list(policies)
    # Scalar planning validates config-major, query-minor; keep the first
    # error identical (but raise before doing any work).
    for config in configs:
        for q in queries:
            config.validate_for(q)
    if not configs:
        return []
    if not queries:
        raise ValueError("plan_and_price_columnar() requires at least one query")
    if not policies:
        raise ValueError("plan_and_price_columnar() requires at least one policy")
    costs = env.dataset.costs
    phases = compute_query_phases(env, queries, phase_cache)
    batch, per_config, sims = _replay_workload(
        env, phases, configs, costs, reset_caches=reset_caches
    )

    nq = len(queries)
    n_res = np.fromiter(
        (qp.answer_ids.size for qp in phases), dtype=np.int64, count=nq
    )
    n_cand = np.fromiter(
        (0 if qp.is_nn else qp.cand_ids.size for qp in phases),
        dtype=np.int64,
        count=nq,
    )

    table = _CounterTable()
    per_config_slots = [
        _collect_slots(phases, config, per_config[ci], costs, table)
        for ci, config in enumerate(configs)
    ]
    M = table.matrix()

    clock = env.client_cpu.clock_hz
    retx_unit = env.client_cpu.retx_protocol(1.0)
    cols = _PolicyColumns.build(policies, env)
    by_framing: Dict[tuple, List[int]] = {}
    for j, p in enumerate(policies):
        by_framing.setdefault(framing_key(p.network), []).append(j)

    grids: List[GridResult] = []
    for ci, config in enumerate(configs):
        ccyc, cen, scyc = _slot_cost_arrays(env, per_config_slots[ci], M)
        send, recv = _payload_arrays(config, n_cand, n_res, costs)
        shims = _shims_for(phases, n_cand, send, recv)
        grid = _empty_grid([], policies, shims, nq, len(policies))
        for fkey, cols_j in by_framing.items():
            net = policies[cols_j[0]].network
            agg = _aggregates_for(env, config, ccyc, cen, scyc, send, recv, net)
            _price_framing_into(grid, agg, cols, cols_j, clock, retx_unit)
        grids.append(grid)

    _writeback_sims(batch, per_config, sims, env, reset_caches=reset_caches)
    return grids


# ----------------------------------------------------------------------
# Scalar compile from slot costs (the serve micro-batch path)
# ----------------------------------------------------------------------
def compile_slots(
    phases: QueryPhases,
    config: SchemeConfig,
    slot_costs: list,
    env: Environment,
    network: NetworkConfig,
) -> CompiledPlan:
    """One query's :class:`CompiledPlan` straight from its slot costs.

    Walks the same per-scheme step template ``_assemble_plan`` encodes as
    step objects, accumulating in :func:`compile_plan`'s order — the result
    is bit-identical to ``compile_plan(_assemble_plan(...), env, network)``
    without constructing the plan.
    """
    client = env.client_cpu
    costs = env.dataset.costs
    scheme = config.scheme
    answer_ids = phases.answer_ids
    n_res = int(answer_ids.size)
    n_cand = 0 if phases.is_nn else int(phases.cand_ids.size)
    clock = client.config.clock_hz

    if scheme is Scheme.FULLY_CLIENT:
        cost = slot_costs[0]
        return CompiledPlan(
            proc_cycles=0.0 + cost.cycles,
            proc_energy_j=0.0 + cost.energy_j,
            quiet_s=0.0 + cost.cycles / clock,
            idle_wait_s=0.0,
            sleep_wait_s=0.0,
            tx_bits=0.0,
            rx_bits=0.0,
            tx_frames=0.0,
            rx_frames=0.0,
            n_exits_sleep=0,
            n_tx_wake_sleep=0,
            n_exits_nosleep=1,
            n_tx_wake_nosleep=0,
            messages=(),
            answer_ids=answer_ids,
            n_candidates=n_cand,
            n_results=n_res,
        )

    if scheme is Scheme.FILTER_CLIENT_REFINE_SERVER:
        pre, server_cost, post = slot_costs[0], slot_costs[1], slot_costs[2]
        send_nbytes = costs.request_bytes + n_cand * costs.object_id_bytes
    else:  # FULLY_SERVER (incl. NN at server) / FILTER_SERVER_REFINE_CLIENT
        pre, server_cost, post = None, slot_costs[0], slot_costs[1]
        send_nbytes = costs.request_bytes
    if scheme is Scheme.FILTER_SERVER_REFINE_CLIENT:
        recv_nbytes = n_cand * costs.object_id_bytes
    elif config.data_at_client:
        recv_nbytes = n_res * costs.object_id_bytes
    else:
        recv_nbytes = n_res * costs.segment_record_bytes

    proc_cycles = 0.0
    proc_energy = 0.0
    quiet_s = 0.0
    if pre is not None:
        proc_cycles += pre.cycles
        proc_energy += pre.energy_j
        quiet_s += pre.cycles / clock
    smsg = packetize(send_nbytes, network)
    sproto = client.protocol(smsg)
    proc_cycles += sproto.cycles
    proc_energy += sproto.energy_j
    quiet_s += sproto.cycles / clock
    rmsg = packetize(recv_nbytes, network)
    rproto = client.protocol(rmsg)
    proc_cycles += rproto.cycles
    proc_energy += rproto.energy_j
    quiet_s += rproto.cycles / clock
    proc_cycles += post.cycles
    proc_energy += post.energy_j
    quiet_s += post.cycles / clock
    return CompiledPlan(
        proc_cycles=proc_cycles,
        proc_energy_j=proc_energy,
        quiet_s=quiet_s,
        idle_wait_s=0.0 + env.server_cpu.seconds(server_cost.cycles),
        sleep_wait_s=0.0,
        tx_bits=0.0 + smsg.wire_bits,
        rx_bits=0.0 + rmsg.wire_bits,
        tx_frames=0.0 + smsg.n_frames,
        rx_frames=0.0 + rmsg.n_frames,
        n_exits_sleep=1,
        n_tx_wake_sleep=1,
        n_exits_nosleep=1,
        n_tx_wake_nosleep=0,
        messages=(("tx", send_nbytes), ("rx", recv_nbytes)),
        answer_ids=answer_ids,
        n_candidates=n_cand,
        n_results=n_res,
    )


def price_compiled(
    compiled: Sequence[CompiledPlan],
    policies: Sequence[Policy],
    env: Environment,
    network: NetworkConfig,
) -> GridResult:
    """Price already-compiled aggregates on a policy grid.

    ``compiled`` must have been built under ``network``'s wire framing;
    every policy must share it (micro-batches group by policy, so this
    holds trivially there).
    """
    compiled = list(compiled)
    policies = list(policies)
    if not compiled:
        raise ValueError("price_compiled() requires at least one compiled plan")
    if not policies:
        raise ValueError("price_compiled() requires at least one policy")
    fk = framing_key(network)
    for p in policies:
        if framing_key(p.network) != fk:
            raise ValueError(
                "price_compiled() policies must share the compile framing"
            )
    grid = _empty_grid([], policies, compiled, len(compiled), len(policies))
    cols = _PolicyColumns.build(policies, env)
    agg = PlanAggregates.from_compiled(compiled)
    _price_framing_into(
        grid,
        agg,
        cols,
        list(range(len(policies))),
        env.client_cpu.clock_hz,
        env.client_cpu.retx_protocol(1.0),
    )
    return grid
