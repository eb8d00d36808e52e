"""One benchmark process: set up, warm up, time passes, check the output.

Started by ``run.py``; prints one JSON line of raw results on stdout.
``--setup-only`` stops once the first pass is ready and reports the set-up
time alone (``run.py`` starts several such processes for a median).

Order of work in a full run:

1. set-up (timed from the first statement of this file): imports, the PA
   dataset, ``Environment.create`` (index build), the seeded inputs;
2. one untimed warm-up pass, whose output digest every timed pass must
   reproduce bit for bit;
3. timed passes until ``--seconds`` have elapsed (and at least
   ``MIN_PASSES``); with ``--trace 1`` traced and untraced passes alternate;
4. ``ru_maxrss`` is read, so the oracle below does not count in it;
5. the warm-up output is checked against the scalar oracle (untimed).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The tail has ten passes above it; with at least 21 passes it sits at or
#: above the median.
MIN_PASSES = 21
#: A traced run needs a few passes of each kind for its medians.
MIN_TRACE_PASSES = 3


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def _tail(times):
    """The highest percentile with at least ten passes above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        # Only after failed passes; the run then reports itself incorrect.
        return (ordered[-1] if ordered else 0.0), 100.0
    i = n - 11
    return ordered[i], 100.0 * i / (n - 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    import_program()
    from repro.core.executor import Environment
    from repro.core.gridrun import RunLedger

    from workloads import WORKLOADS, make_dataset

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    ds = make_dataset(args.size)
    env = Environment.create(ds)
    wl = WORKLOADS[args.workload](ds, args.seed, args.size)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    warm = wl.run(env)
    reference = wl.output_digest(warm)

    untraced, traced, profiles, ledgers = [], [], [], []
    failed = 0
    tracer = spans.Tracer()
    start = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        gc.collect()
        ledger = RunLedger() if trace_this else None
        times = traced if trace_this else untraced
        try:
            if trace_this:
                tracer.begin_pass(len(traced))
                first = len(tracer.spans)
                undo = spans.install(tracer)
                try:
                    t = time.perf_counter()
                    with tracer.span(spans.PASS):
                        out = wl.run(env, ledger=ledger)
                    dt = time.perf_counter() - t
                finally:
                    undo()
                profiles.append(spans.pass_profile(tracer, first))
                ledgers.append(ledger.records)
            else:
                t = time.perf_counter()
                out = wl.run(env)
                dt = time.perf_counter() - t
        except Exception:
            failed += 1
            traceback.print_exc()
            times.append(float("nan"))  # NaN marks a pass that raised
        else:
            times.append(dt)
            if wl.output_digest(out) != reference:
                failed += 1
                print("perfbench: pass output differs from the warm-up pass", file=sys.stderr)
        elapsed = time.perf_counter() - start
        enough = (
            min(len(traced), len(untraced)) >= MIN_TRACE_PASSES
            if args.trace
            else len(untraced) >= MIN_PASSES
        )
        if elapsed >= args.seconds and enough:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_ok, check_detail = wl.check(env, warm)
    attempted = 1 + len(untraced) + len(traced)
    failed += 0 if check_ok else 1
    good = [t for t in untraced if t == t]

    result = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "check": {"ok": check_ok, "detail": check_detail},
        "simulated": wl.simulated(warm),
        "pass_s": untraced,
    }
    if args.trace:
        result["traced_pass_s"] = traced
        result["metrics"] = spans.layer_metrics(
            profiles, ledgers, good, wl.n_queries, wl.repeat_share
        )
        if args.spans_out:
            last = tracer.spans[first:]
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "fields": ["name", "start", "end", "parent", "pass_id"],
                        "spans": [
                            [s[0], s[1], s[2], s[3] - first if s[3] >= 0 else -1, s[4]]
                            for s in last
                        ],
                    },
                    fh,
                )
    else:
        tail, pct = _tail(good)
        result["pass_s_tail_percentile"] = pct
        result["metrics"] = {
            "pass_s_p50": {"value": spans.median(good), "unit": "s"},
            "pass_s_tail": {"value": tail, "unit": "s"},
            "queries_per_s": {
                "value": wl.n_queries * len(good) / sum(good) if good else 0.0,
                "unit": "1/s",
            },
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
