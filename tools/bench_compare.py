#!/usr/bin/env python3
"""CI benchmark-regression gate.

Compares a fresh --quick run of one of the repo benches against the
committed baseline and fails (exit 1) when any wall-time metric regresses
by more than the threshold.

  bench_compare.py --bench table2   BENCH_checkers.json fresh_table2.json
  bench_compare.py --bench service  BENCH_service.json  fresh_service.json
  bench_compare.py --bench micro    BENCH_checkers.json fresh_micro.json

More than one current file may be given; each metric takes its best
(minimum) value across them. CI runs every quick bench three times and
gates on the best-of-3, since single --quick runs are milliseconds and
scheduler noise alone approaches the threshold.

Baseline layout (committed):
  BENCH_checkers.json  "quick" block      -> table2_checkers --quick totals
                       "micro_quick"      -> micro_resolver --quick doc
  BENCH_service.json   "quick" block      -> service_throughput --quick doc

Current layout (fresh run):
  table2_checkers --quick --json FILE     (totals under "arena")
  service_throughput --quick --json FILE  (runs at top level)
  micro_resolver --quick --json FILE      (totals at top level)

Scaling-curve metrics (the service worker_sweep) are only comparable when
the baseline was recorded on a machine with the same hardware thread
count; when the counts differ those metrics are skipped with a warning
instead of gating a scaling curve against, say, a flat 1-core recording.

Refreshing baselines (run on the reference machine, release-ndebug build):
  see docs/OBSERVABILITY.md, "Refreshing the benchmark baselines".

Exit codes: 0 = within threshold, 1 = regression, 2 = nothing comparable
(missing blocks, suite mismatch, or every metric under the noise floor).
"""

import argparse
import json
import os
import sys

# Metrics with a baseline below this are scheduler noise at --quick scale;
# they are reported but never gate.
DEFAULT_MIN_SECONDS = 0.0005

# Same idea for byte metrics (peak-RSS readings): below this the
# measurement is dominated by allocator/page-cache noise in the forked
# child, not by anything the checker did.
DEFAULT_MIN_BYTES = 4 << 20

# One-shot warnings (extract() runs once per current file).
_warned = set()


def warn_once(msg):
    if msg not in _warned:
        _warned.add(msg)
        print(msg, file=sys.stderr)


def load(path):
    with open(path) as f:
        return json.load(f)


def totals_metrics(totals, keys):
    return {k: totals[k] for k in keys if k in totals}


def extract(bench, baseline_doc, current_doc):
    """Returns (baseline_metrics, current_metrics, baseline_suite,
    current_suite); every metric is seconds, lower is better."""
    if bench == "table2":
        base = baseline_doc.get("quick") or baseline_doc.get("arena") or {}
        cur = current_doc.get("arena") or current_doc
        keys = ("df_seconds", "bf_seconds", "hybrid_seconds", "window_seconds")
        base_metrics = totals_metrics(base.get("totals", {}), keys)
        cur_metrics = totals_metrics(cur.get("totals", {}), keys)
        # The LRAT-emission DF sweep gates like any other wall time, so
        # certificate emission cannot silently get slower (older baselines
        # without the block simply don't contribute the metric).
        base_lrat = baseline_doc.get("lrat_overhead_quick") or {}
        cur_lrat = current_doc.get("lrat_overhead") or {}
        if "df_seconds_emitting" in base_lrat and "df_seconds_emitting" in cur_lrat:
            base_metrics["df_seconds_emitting"] = base_lrat["df_seconds_emitting"]
            cur_metrics["df_seconds_emitting"] = cur_lrat["df_seconds_emitting"]
        # Peak-RSS-per-backend (the "memory" block, forked-getrusage
        # readings) gates exactly like wall time: a backend quietly
        # growing its real footprint >threshold% fails the leg. Bytes
        # metrics get their own noise floor (--min-bytes).
        for k, v in (base.get("memory") or {}).items():
            if k.endswith("_bytes") and k in (cur.get("memory") or {}):
                base_metrics[k] = v
                cur_metrics[k] = cur["memory"][k]
        return (base_metrics, cur_metrics, base.get("suite"), cur.get("suite"))
    if bench == "service":
        base = baseline_doc.get("quick") or baseline_doc
        cur = current_doc

        # The worker_sweep is a scaling curve: jobs/s at 1/2/4/hw workers.
        # Its shape depends on the machine's core count, so comparing a
        # fresh sweep against a baseline recorded with a different
        # hardware_threads gates real scaling against (say) a flat 1-core
        # curve. Skip the curve — the client-sweep throughput metrics
        # still gate.
        base_threads = base.get("hardware_threads")
        cur_threads = cur.get("hardware_threads") or os.cpu_count()
        sweep_comparable = (
            base_threads is None
            or cur_threads is None
            or base_threads == cur_threads
        )
        if not sweep_comparable:
            warn_once(
                "bench_compare: WARNING: baseline worker_sweep was recorded "
                "with hardware_threads=%s but this machine has %s; skipping "
                "seconds[workers=N] scaling metrics (refresh the baseline on "
                "matching hardware to re-enable them)"
                % (base_threads, cur_threads)
            )

        def per_run(doc):
            out = {}
            for run in doc.get("runs", []):
                out["seconds[clients=%d]" % run["clients"]] = run["seconds"]
            if sweep_comparable:
                for run in doc.get("worker_sweep", []):
                    out["seconds[workers=%d]" % run["workers"]] = run["seconds"]
            return out

        return per_run(base), per_run(cur), base.get("suite"), cur.get("suite")
    if bench == "micro":
        base = baseline_doc.get("micro_quick") or baseline_doc.get("micro") or {}
        cur = current_doc

        def micro_totals(doc):
            totals = doc.get("totals", {})
            return {
                k: v for k, v in totals.items() if k.endswith("_seconds")
            }

        return (
            micro_totals(base),
            micro_totals(cur),
            base.get("suite"),
            cur.get("suite"),
        )
    raise ValueError("unknown bench %r" % bench)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="committed baseline JSON")
    ap.add_argument(
        "current",
        nargs="+",
        help="fresh --quick --json output(s); metrics take the best across them",
    )
    ap.add_argument(
        "--bench",
        required=True,
        choices=("table2", "service", "micro"),
        help="which bench pair is being compared",
    )
    ap.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        help="max tolerated wall-time regression, percent (default 25)",
    )
    ap.add_argument(
        "--min-seconds",
        type=float,
        default=DEFAULT_MIN_SECONDS,
        help="noise floor: metrics with a smaller baseline never gate",
    )
    ap.add_argument(
        "--min-bytes",
        type=float,
        default=DEFAULT_MIN_BYTES,
        help="noise floor for *_bytes metrics (peak-RSS readings)",
    )
    args = ap.parse_args()

    try:
        baseline_doc = load(args.baseline)
        current_docs = [load(p) for p in args.current]
    except (OSError, json.JSONDecodeError) as e:
        print("bench_compare: cannot load inputs: %s" % e, file=sys.stderr)
        return 2

    base, cur, base_suite, cur_suite = extract(
        args.bench, baseline_doc, current_docs[0]
    )
    for doc in current_docs[1:]:
        _, more, _, more_suite = extract(args.bench, baseline_doc, doc)
        if more_suite != cur_suite:
            print(
                "bench_compare: current runs disagree on suite (%r vs %r)"
                % (cur_suite, more_suite),
                file=sys.stderr,
            )
            return 2
        for name, value in more.items():
            cur[name] = min(cur.get(name, value), value)
    if base_suite and cur_suite and base_suite != cur_suite:
        print(
            "bench_compare: suite mismatch (baseline %r vs current %r); "
            "refresh the committed baseline" % (base_suite, cur_suite),
            file=sys.stderr,
        )
        return 2

    common = sorted(set(base) & set(cur))
    if not common:
        print(
            "bench_compare: no overlapping metrics between %s and %s"
            % (args.baseline, ", ".join(args.current)),
            file=sys.stderr,
        )
        return 2

    gated = 0
    regressions = []
    print(
        "bench_compare [%s]: threshold +%.0f%%, noise floor %gs"
        % (args.bench, args.threshold, args.min_seconds)
    )
    for name in common:
        b, c = base[name], cur[name]
        is_bytes = name.endswith("_bytes")
        floor = args.min_bytes if is_bytes else args.min_seconds
        delta_pct = (c - b) / b * 100.0 if b > 0 else 0.0
        if b < floor:
            verdict = "skip (under noise floor)"
        else:
            gated += 1
            if delta_pct > args.threshold:
                verdict = "REGRESSION"
                regressions.append(name)
            else:
                verdict = "ok"
        if is_bytes:
            print(
                "  %-24s baseline %10.0fB  current %10.0fB  %+7.1f%%  %s"
                % (name, b, c, delta_pct, verdict)
            )
        else:
            print(
                "  %-24s baseline %.6fs  current %.6fs  %+7.1f%%  %s"
                % (name, b, c, delta_pct, verdict)
            )

    if not gated:
        print(
            "bench_compare: every metric is under the noise floor; "
            "nothing was gated",
            file=sys.stderr,
        )
        return 2
    if regressions:
        print(
            "bench_compare: FAIL — %d metric(s) regressed >%.0f%%: %s"
            % (len(regressions), args.threshold, ", ".join(regressions)),
            file=sys.stderr,
        )
        return 1
    print("bench_compare: PASS (%d gated metric(s))" % gated)
    return 0


if __name__ == "__main__":
    sys.exit(main())
