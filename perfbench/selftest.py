"""Self-test of the benchmark itself, at small scale (about a minute).

    python3 perfbench/selftest.py

1. Seeds: the same workload seed gives identical inputs, another seed gives
   different inputs.
2. Shims are pass-through: each workload's output is bit-identical traced
   and untraced; the spans are well formed (self time >= 0, children inside
   their parent); every per-layer metric of a layer the workload runs is
   present and non-zero, and a layer it does not run records no calls.
3. The command: ``run.py --size small`` exits 0 for every workload with
   ``--trace 0`` and ``--trace 1``, and its result line names exactly the
   metrics ``BENCHMARK.json`` declares, with their units.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import spans
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer counts that must be non-zero wherever their layer runs.
LAYER_COUNTS = {
    "batchplan.phases": (
        "batchplan.phases.queries",
        "batchplan.phases.nodes_visited",
        "batchplan.phases.mbr_tests",
        "batchplan.phases.refine_yield",
    ),
    "cache.replay": (
        "cache.replay.accesses",
        "cache.replay.streams",
        "cache.replay.ns_per_access",
    ),
    "colplan.price": ("colplan.price.cells",),
    "serve.loop": (
        "serve.loop.batches",
        "serve.loop.batch_size_mean",
        "serve.batch_ms_p50",
        "serve.batch_ms_p99",
    ),
}

class Checks(list):
    """The failed checks so far; :meth:`check` prints every check."""

    def check(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.append(what)


def test_seeds(check, workloads) -> None:
    ds = workloads.make_dataset("small")
    for name, build in workloads.WORKLOADS.items():
        a = workloads.digest(build(ds, 11, "small").inputs)
        b = workloads.digest(build(ds, 11, "small").inputs)
        c = workloads.digest(build(ds, 12, "small").inputs)
        check(a == b, f"{name}: same seed, identical inputs")
        check(a != c, f"{name}: other seed, different inputs")


def test_pass_through(check, workloads, env_of) -> None:
    from repro.core.gridrun import RunLedger

    ds = workloads.make_dataset("small")
    env = env_of(ds)
    for name, build in workloads.WORKLOADS.items():
        wl = build(ds, 5, "small")
        plain = wl.output_digest(wl.run(env))
        bound = [owner.__dict__[attr] for owner, attr, _, _ in spans.targets()]
        tracer = spans.Tracer()
        tracer.begin_pass(0)
        ledger = RunLedger()
        undo = spans.install(tracer)
        try:
            with tracer.span(spans.PASS):
                traced = wl.output_digest(wl.run(env, ledger=ledger))
        finally:
            undo()
        check(traced == plain, f"{name}: traced output equals untraced output")
        restored = [owner.__dict__[attr] for owner, attr, _, _ in spans.targets()]
        check(
            all(a is b for a, b in zip(bound, restored)), f"{name}: shims fully removed"
        )
        problems = spans.check_spans(tracer.spans)
        check(not problems, f"{name}: spans well formed {problems[:3]}")
        profile = spans.pass_profile(tracer, 0)
        metrics = spans.layer_metrics(
            [profile], [ledger.records], [profile["pass_s"]], wl.n_queries, wl.repeat_share
        )
        runs = workloads.LAYERS_RUN[name]
        for layer in spans.LAYERS:
            calls = metrics[f"{layer}.calls"]["value"]
            if layer in runs:
                needed = (f"{layer}.calls", f"{layer}.self_s", f"{layer}.share")
                needed += LAYER_COUNTS.get(layer, ())
                zero = [m for m in needed if not metrics[m]["value"] > 0]
                check(not zero, f"{name}: {layer} runs and reports {zero or 'all'}")
            else:
                check(calls == 0, f"{name}: {layer} does not run")


def test_command(check) -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for wl in (w["name"] for w in declared["workloads"]):
        for trace, names in ((0, e2e), (1, per_layer)):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--size", "small"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            check(
                proc.returncode == 0
                and result.get("correct") is True
                and set(result) == {"correct", "attempted", "failed", "metrics"}
                and {k: m["unit"] for k, m in result["metrics"].items()} == names,
                f"run.py {wl} --trace {trace}: exit 0, correct, declared metrics and units",
            )


def main() -> int:
    worker.import_program()
    import workloads
    from repro.core.executor import Environment

    failures = Checks()
    test_seeds(failures.check, workloads)
    test_pass_through(failures.check, workloads, Environment.create)
    test_command(failures.check)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
