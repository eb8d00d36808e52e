"""The benchmark's three workloads: seeded inputs, one pass, the output check.

Each workload is built from the fixed PA dataset and a workload seed, runs
one *pass* (a fresh ``Session`` for the sweeps, a fresh ``QueryService`` for
fleet-serve), digests a pass's output bit for bit, checks the output against
the repository's scalar oracle, and summarises the simulated (model) numbers
the output carries.  Nothing here times anything; ``worker.py`` does.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import RunTable, Session
from repro.bench.e2ebench import tables_match
from repro.core.executor import Environment, Policy
from repro.core.gridrun import RunLedger
from repro.core.queries import Query, query_key
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, Scheme, SchemeConfig
from repro.data import tiger
from repro.data.workloads import (
    client_fleet,
    fleet_query_stream,
    knn_queries,
    nn_queries,
    range_queries,
)
from repro.serve import VERDICTS, QueryService, ServiceReport

#: The dataset never varies with the workload seed.
DATASET_SEED = 1

#: Relative tolerance of the oracle comparison (discrete fields are exact).
ORACLE_REL_TOL = 1e-9

#: Input sizes.  ``full`` is what the benchmark measures; ``small`` is the
#: self-test's scale.  On a 2-core host a full pass takes about 0.5 s
#: (fig5), 0.2 s (nn) and 0.7 s (fleet), so a 45-second run holds 60 or
#: more passes and its tail percentile sits well above the median.
SIZES: Dict[str, Dict[str, float]] = {
    "full": dict(
        scale=1.0, range_sets=2, range_n=100, nn_n=200, knn_n=200,
        clients=120, duration_s=3.0,
    ),
    "small": dict(
        scale=0.05, range_sets=2, range_n=10, nn_n=10, knn_n=10,
        clients=10, duration_s=3.0,
    ),
}

#: fig5 window-area bounds (fractions of the extent; the generator's
#: defaults) and the number of equal log-width bands they are split into.
RANGE_AREA_FRAC = (0.000015, 0.0015)
RANGE_BANDS = 10

#: The nearest-neighbour schemes compared by nn-policy-grid.
NN_SCHEMES = (
    SchemeConfig(Scheme.FULLY_CLIENT, data_at_client=True),
    SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True),
    SchemeConfig(Scheme.FULLY_SERVER, data_at_client=False),
)

#: Bandwidths (Mbps) the simulated record reports per scheme.
SIM_BANDWIDTHS = (2.0, 11.0)

_SEED_NAMES = ("range", "nn", "knn", "fleet", "stream")


def derive_seeds(seed: int) -> Dict[str, int]:
    """Every generator seed of a workload, derived from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(len(_SEED_NAMES))
    return {name: int(s) for name, s in zip(_SEED_NAMES, state)}


def make_dataset(size: str = "full"):
    """The fixed PA dataset at ``size``'s scale."""
    return tiger.pa_dataset(scale=SIZES[size]["scale"], seed=DATASET_SEED)


# ----------------------------------------------------------------------
# Bit-exact digests
# ----------------------------------------------------------------------
@functools.cache
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _walk(obj, out: List[str]) -> None:
    if obj is None or isinstance(obj, (bool, str)):
        out.append(repr(obj))
    elif isinstance(obj, (int, float, np.integer, np.floating)):
        # repr of a Python float round-trips exactly, so equal text is
        # equal bits (the sign of zero included).
        out.append(repr(obj.item() if isinstance(obj, np.generic) else obj))
    elif isinstance(obj, np.ndarray):
        blob = hashlib.blake2b(np.ascontiguousarray(obj).tobytes()).hexdigest()
        out.append(f"A{obj.dtype.str}{obj.shape}{blob}")
    elif isinstance(obj, enum.Enum):
        out.append(f"E{type(obj).__name__}.{obj.name}")
    elif dataclasses.is_dataclass(obj):
        cls = type(obj)
        out.append(f"D{cls.__name__}(")
        for name in _field_names(cls):
            _walk(getattr(obj, name), out)
        out.append(")")
    elif isinstance(obj, (tuple, list)):
        out.append(f"L{len(obj)}(")
        for item in obj:
            _walk(item, out)
        out.append(")")
    elif isinstance(obj, dict):
        out.append(f"M{len(obj)}(")
        for key, value in obj.items():
            _walk(key, out)
            _walk(value, out)
        out.append(")")
    else:
        raise TypeError(f"cannot digest a {type(obj).__name__}")


def digest(obj) -> str:
    """Hex digest of a value tree; equal digests mean bit-equal values."""
    out: List[str] = []
    _walk(obj, out)
    return hashlib.blake2b("\x1f".join(out).encode()).hexdigest()


def repeat_share(queries: Sequence[Query]) -> float:
    """Share of queries whose :func:`query_key` repeats an earlier one."""
    keys = [query_key(q) for q in queries]
    return 1.0 - len(set(keys)) / len(keys)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class SweepWorkload:
    """Scheme x policy sweeps priced into ``RunTable`` s by ``Session.run``.

    ``query_sets`` are independent workloads; one pass runs each of them,
    in order, through one fresh ``Session``.
    """

    def __init__(
        self,
        query_sets: List[List[Query]],
        schemes: Sequence[SchemeConfig],
        policies: List[Policy],
    ) -> None:
        self.query_sets = query_sets
        self.schemes = list(schemes)
        self.policies = policies

    @property
    def inputs(self):
        """Everything generated from the seed (for the seed self-test)."""
        return (self.query_sets, self.schemes, self.policies)

    @property
    def n_queries(self) -> int:
        return sum(len(qs) for qs in self.query_sets)

    @property
    def repeat_share(self) -> float:
        return repeat_share([q for qs in self.query_sets for q in qs])

    def run(
        self, env: Environment, ledger: Optional[RunLedger] = None
    ) -> List[RunTable]:
        """One pass: a fresh ``Session`` plans and prices every grid."""
        session = Session(env)
        return [
            session.run(
                qs, schemes=self.schemes, policies=self.policies, planner="columnar"
            )
            for qs in self.query_sets
        ]

    def output_digest(self, tables: List[RunTable]) -> str:
        return digest([t.rows for t in tables])

    def check(self, env: Environment, tables: List[RunTable]) -> Tuple[bool, str]:
        """Compare with the scalar planner + scalar pricer, rel 1e-9."""
        worst = 0.0
        for qs, table in zip(self.query_sets, tables):
            oracle = Session(env).run(
                qs,
                schemes=self.schemes,
                policies=self.policies,
                planner="scalar",
                engine="scalar",
            )
            ok, err = tables_match(table, oracle, rel_tol=ORACLE_REL_TOL)
            worst = max(worst, err)
            if not ok:
                break
        return worst <= ORACLE_REL_TOL, f"max rel err vs scalar oracle {worst:.3e}"

    def simulated(self, tables: List[RunTable]) -> dict:
        """The model's numbers: table digest; per scheme, energy and cycles
        at 2 and 11 Mbps (first distance and loss rate), summed over sets."""
        first = tables[0].rows[0].policy.network
        per_scheme: Dict[str, dict] = {}
        for row in (row for table in tables for row in table):
            if (
                row.bandwidth_mbps in SIM_BANDWIDTHS
                and row.distance_m == first.distance_m
                and row.loss_rate == first.loss_rate
            ):
                cell = per_scheme.setdefault(row.scheme, {})
                for key, value in (
                    (f"energy_j@{row.bandwidth_mbps:g}Mbps", row.energy_j),
                    (f"cycles@{row.bandwidth_mbps:g}Mbps", row.cycles),
                ):
                    cell[key] = cell.get(key, 0.0) + value
        return {
            "runtable_digest": self.output_digest(tables),
            "rows": sum(len(t) for t in tables),
            "distance_m": first.distance_m,
            "loss_rate": first.loss_rate,
            "schemes": per_scheme,
        }


class FleetWorkload:
    """A client fleet's arrival stream served by a default ``QueryService``."""

    def __init__(self, fleet, requests) -> None:
        self.fleet = fleet
        self.requests = requests

    @property
    def inputs(self):
        return (self.fleet, self.requests)

    @property
    def n_queries(self) -> int:
        return len(self.requests)

    @property
    def repeat_share(self) -> float:
        ordered = sorted(self.requests, key=lambda r: (r.arrival_s, r.client_id))
        return repeat_share([r.query for r in ordered])

    def run(
        self, env: Environment, ledger: Optional[RunLedger] = None
    ) -> ServiceReport:
        """One pass: a fresh service with default knobs serves the stream."""
        service = QueryService(env, ledger=ledger)
        return service.serve(self.requests, self.fleet, planner="columnar")

    def output_digest(self, report: ServiceReport) -> str:
        # wall_seconds is host time; everything else is simulated output.
        return digest(
            (report.outcomes, report.planner, report.n_batches, report.makespan_s)
        )

    def check(self, env: Environment, report: ServiceReport) -> Tuple[bool, str]:
        """Compare with ``planner="serial"``: verdicts and answers exact,
        energy and latency to rel 1e-9."""
        oracle = QueryService(env).serve(self.requests, self.fleet, planner="serial")
        if len(report.outcomes) != len(oracle.outcomes):
            return False, "outcome count differs from the serial oracle"
        worst = 0.0
        for got, ref in zip(report.outcomes, oracle.outcomes):
            if (
                got.client_id != ref.client_id
                or got.verdict != ref.verdict
                or got.answer_ids != ref.answer_ids
                or got.n_results != ref.n_results
            ):
                return False, (
                    f"client {ref.client_id} at {ref.arrival_s:.6f}s: "
                    "verdict or answers differ from the serial oracle"
                )
            for a, b in ((got.energy_j, ref.energy_j), (got.latency_s, ref.latency_s)):
                if a != b:
                    denom = max(abs(a), abs(b))
                    worst = max(worst, abs(a - b) / denom if denom else float("inf"))
        ok = worst <= ORACLE_REL_TOL
        return ok, f"max rel err vs serial oracle {worst:.3e}"

    def simulated(self, report: ServiceReport) -> dict:
        """The model's numbers: qps, latency percentiles, energy, verdicts."""
        return {
            "outcomes_digest": self.output_digest(report),
            "requests": len(report.outcomes),
            "batches": report.n_batches,
            "qps": report.qps,
            "latency_s_p50": report.latency_percentile(50),
            "latency_s_p99": report.latency_percentile(99),
            "total_energy_j": report.total_energy_j,
            "verdicts": {
                v: sum(1 for o in report.outcomes if o.verdict == v) for v in VERDICTS
            },
        }


def _fig5_range_sweep(ds, seed: int, size: str) -> SweepWorkload:
    """``range_sets`` Figure 5 runs of ``range_n`` range queries each.

    Window areas are log-uniform over the generator's default two decades,
    as in :func:`range_queries`, but stratified: each of ``RANGE_BANDS``
    equal log-width bands gets the same number of windows.  A few very large
    windows dominate a run's cost, so unstratified draws make the host time
    swing with the seed far more than the code's speed does.
    """
    sz = SIZES[size]
    n_sets, per_band = int(sz["range_sets"]), int(sz["range_n"]) // RANGE_BANDS
    band_seeds = np.random.SeedSequence(derive_seeds(seed)["range"]).generate_state(
        n_sets * RANGE_BANDS
    )
    edges = np.geomspace(RANGE_AREA_FRAC[0], RANGE_AREA_FRAC[1], RANGE_BANDS + 1)
    sets = []
    for i in range(n_sets):
        queries: List[Query] = []
        for k in range(RANGE_BANDS):
            queries += range_queries(
                ds,
                per_band,
                seed=int(band_seeds[i * RANGE_BANDS + k]),
                min_area_frac=float(edges[k]),
                max_area_frac=float(edges[k + 1]),
            )
        sets.append(queries)
    return SweepWorkload(sets, ADEQUATE_MEMORY_CONFIGS, Policy.sweep())


def _nn_policy_grid(ds, seed: int, size: str) -> SweepWorkload:
    seeds = derive_seeds(seed)
    sz = SIZES[size]
    queries: List[Query] = list(nn_queries(ds, int(sz["nn_n"]), seed=seeds["nn"]))
    queries += knn_queries(ds, int(sz["knn_n"]), seed=seeds["knn"])
    return SweepWorkload(
        [queries],
        NN_SCHEMES,
        Policy.sweep(distances_m=(100.0, 1000.0), loss_rates=(0.0, 0.01, 0.05, 0.1)),
    )


def _fleet_serve(ds, seed: int, size: str) -> FleetWorkload:
    seeds = derive_seeds(seed)
    sz = SIZES[size]
    fleet = client_fleet(int(sz["clients"]), seed=seeds["fleet"])
    requests = fleet_query_stream(
        ds, fleet, duration_s=sz["duration_s"], seed=seeds["stream"], hot_fraction=0.6
    )
    return FleetWorkload(fleet, requests)


#: Workload name -> ``(dataset, seed, size) -> workload``.
WORKLOADS: Dict[str, Callable[..., object]] = {
    "fig5-range-sweep": _fig5_range_sweep,
    "nn-policy-grid": _nn_policy_grid,
    "fleet-serve": _fleet_serve,
}

#: Layers each workload runs (the self-test holds the trace to this).
LAYERS_RUN: Dict[str, Tuple[str, ...]] = {
    "fig5-range-sweep": (
        "batchplan.phases", "batchplan.lines", "cache.replay",
        "cache.readback", "colplan.price", "api.run",
    ),
    "nn-policy-grid": (
        "batchplan.phases", "batchplan.lines", "cache.replay",
        "cache.readback", "colplan.price", "api.run",
    ),
    "fleet-serve": (
        "batchplan.phases", "batchplan.lines", "cache.replay",
        "cache.readback", "colplan.price", "serve.loop",
    ),
}

