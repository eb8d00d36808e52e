"""The repository's benchmark: host time of three workloads, layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig5-range-sweep --seed 1 --seconds 45 --trace 0

Workloads (see ``workloads.py`` and ``LAYERS.md``; ``BENCHMARK.json`` names
fig5-range-sweep and fleet-serve, whose runs fit the benchmark's time budget):

``fig5-range-sweep``
    two Figure 5 runs, each 100 range queries (window sizes stratified) x
    the six adequate-memory schemes x the five-bandwidth sweep, priced into
    ``RunTable`` s by ``Session.run(planner="columnar")``.
``nn-policy-grid``
    200 NN + 200 k-NN queries x three schemes x 40 policies (bandwidth,
    distance, loss), same path; for layer studies.
``fleet-serve``
    a 120-client fleet's 3-second arrival stream served by a default
    ``QueryService`` with ``planner="columnar"``.

``--trace 0`` reports the end-to-end metrics (setup_s, pass_s_p50,
pass_s_tail, queries_per_s, peak_rss_mb); ``--trace 1`` the per-layer
metrics, from spans recorded around each layer's public entry points.  A
pass's output must match the scalar oracle (checked on the warm-up pass)
and every timed pass must reproduce the warm-up output bit for bit; any
failure counts in ``failed`` and makes the command exit 1.

This script is single-threaded and runs every process in turn: a few
set-up-only processes (for a median set-up time), then one worker that
times the passes.  NumPy thread pools are capped at the CPUs available.
The last line of standard output is the JSON result; a summary with the
simulated (model) numbers is also written under ``.perfbench/``.

Seeds: ``DEFAULT_SEED`` is the one to develop against; ``HELD_OUT_SEED`` is
kept for validating a claimed gain on inputs not used while writing it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
#: Set-up-only processes started before the worker; with the worker's own
#: set-up they give the median ``setup_s``.
SETUP_PROBES = 4
#: Everything a run starts must end within this many seconds.
BUDGET_S = 170.0

#: End-to-end metrics in report order (``failed_frac`` is printed, and is
#: ``failed / attempted`` of the result line).
END_TO_END = ("pass_s_p50", "pass_s_tail", "queries_per_s", "peak_rss_mb", "setup_s")


def _child_env() -> dict:
    env = dict(os.environ)
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = n
    return env


def _worker(argv, deadline: float) -> dict:
    """Run ``worker.py`` to completion; its last stdout line as JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise SystemExit("perfbench: out of time before the worker started")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT,
            env=_child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: worker did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--workload", required=True,
        help="fig5-range-sweep, nn-policy-grid or fleet-serve",
    )
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size", choices=("full", "small"), default="full",
        help="input scale; 'small' is for smoke tests only",
    )
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    base = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--size", args.size,
    ]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(_worker(base + ["--setup-only"], deadline)["setup_s"])
    extra = ["--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans-out", str(OUT_DIR / f"{stem}.spans.json")]
    res = _worker(base + extra, deadline)
    setups.append(res["setup_s"])

    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics = {name: metrics[name] for name in END_TO_END}
    correct = res["failed"] == 0
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failed_frac": res["failed"] / res["attempted"],
        "check": res["check"],
        "host": {"metrics": metrics, "setup_s_samples": setups, "pass_s": res["pass_s"]},
        "simulated": res["simulated"],
    }
    if args.trace:
        summary["host"]["traced_pass_s"] = res["traced_pass_s"]
    else:
        summary["host"]["pass_s_tail_percentile"] = res["pass_s_tail_percentile"]
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    n = len(res["pass_s"])
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  ({n} untraced passes)")
    for name, m in metrics.items():
        note = ""
        if name == "pass_s_tail":
            note = f"  (p{res['pass_s_tail_percentile']:.1f} of {n} passes)"
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':36s} {summary['failed_frac']:14.6g} ratio")
    print(f"  output check: {'ok' if res['check']['ok'] else 'FAILED'} ({res['check']['detail']})")
    print("simulated " + json.dumps(res["simulated"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
