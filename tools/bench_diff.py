#!/usr/bin/env python3
"""Compare two BENCH_*.json snapshots and flag regressions.

Flattens both reports to dotted paths (systems.bitcoin_like.tps_included,
metrics.counters.chain.blocks_mined, ...), prints per-metric deltas, and
exits non-zero when any metric regressed by more than the threshold.

Direction matters: most metrics are "bigger is better" (tps, confirmed,
speedup), but latency/backlog/fork metrics are "smaller is better"; the
classifier below keys off the metric name. Wall-clock noise is excluded by
default: keys under a `profile.` histogram prefix and `wall_seconds`
entries vary run-to-run on a busy machine and are reported informationally
unless --include-profile is given. The deterministic sections (counters,
gauges, trace_summary) must match exactly across identical-seed runs --
use --exact for that stronger check in CI.

Usage:
  tools/bench_diff.py old/BENCH_throughput_chain.json new/BENCH_throughput_chain.json
  tools/bench_diff.py --threshold 10 old.json new.json
  tools/bench_diff.py --exact a/BENCH_x.json b/BENCH_x.json   # byte-level determinism
  tools/bench_diff.py --exact --ignore metrics.gauges.storage.segments a.json b.json
"""

import argparse
import json
import math
import sys

# Substrings marking metrics where an increase is a regression. Safety
# metrics read the same way: a higher attack flip probability or a more
# concentrated inclusion Gini is worse. (honest_tip_share stays under the
# larger-is-better default.)
SMALLER_IS_BETTER = (
    "flip_probability",
    "inclusion_gini",
    "latency",
    "median",
    "p95",
    "p99",
    "pending",
    "unsettled",
    "orphan",
    "reorg",
    "rollback",
    "dropped",
    "rejected",
    "evicted",
    "backpressured",
    "bytes",
    "wall_seconds",
    "_ns",
    "_us",
    "_ms",
    "rounds_to_drain",
)

# Full-path exceptions to the "bytes" rule above: the storage layer's
# pruned_bytes gauge counts bytes *reclaimed* by pruning, so growth there
# is the pruning discipline working harder, not the ledger bloating.
# (storage.log_bytes / storage.state_bytes stay smaller-is-better: a
# larger log or arena is a real on-disk regression.) "admitted" is the
# admission-control success bucket: at fixed offered load, admitting more
# is strictly better, while its evicted/rejected/backpressured siblings
# above read the other way. latency.class.* paths need no entry — they
# contain "latency" and inherit its smaller-is-better direction.
LARGER_IS_BETTER = ("storage.pruned_bytes", "admitted")

# Wall-clock metrics: noisy, excluded from the regression gate by default.
PROFILE_MARKERS = ("profile.", "wall_seconds", "events_per_sec", "_ns", "_us")


def flatten(node, prefix=""):
    """Yield (dotted_path, number) for every numeric leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from flatten(value, f"{prefix}{key}.")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from flatten(value, f"{prefix}{i}.")
    elif isinstance(node, bool):
        yield prefix.rstrip("."), 1.0 if node else 0.0
    elif isinstance(node, (int, float)):
        yield prefix.rstrip("."), float(node)


def is_profile(path):
    return any(marker in path for marker in PROFILE_MARKERS)


def smaller_is_better(path):
    leaf = path.rsplit(".", 1)[-1]
    # A "count" leaf is an observation count, not a latency: fewer
    # confirmed transactions inside latency.submit_to_confirm.count is a
    # regression even though the enclosing path says "latency".
    if leaf == "count":
        return False
    if any(marker in path for marker in LARGER_IS_BETTER):
        return False
    return any(marker in leaf or marker in path for marker in SMALLER_IS_BETTER)


def classify(path, old, new, threshold_pct):
    """Returns (delta_pct, verdict) with verdict in ok/regressed/improved."""
    if old == new:
        return 0.0, "ok"
    if old == 0.0:
        delta = math.inf if new > 0 else -math.inf
    else:
        delta = (new - old) / abs(old) * 100.0
    worse = delta < 0 if not smaller_is_better(path) else delta > 0
    if abs(delta) <= threshold_pct:
        return delta, "ok"
    return delta, "regressed" if worse else "improved"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="baseline BENCH_*.json")
    parser.add_argument("new", help="candidate BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=5.0,
        metavar="PCT",
        help="regression tolerance in percent (default 5)",
    )
    parser.add_argument(
        "--include-profile",
        action="store_true",
        help="gate on wall-clock profile.* metrics too (noisy)",
    )
    parser.add_argument(
        "--exact",
        action="store_true",
        help="require every metric identical (determinism check); any "
        "movement, addition, or removal fails",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="PREFIX",
        help="skip metrics whose dotted path starts with PREFIX "
        "(repeatable; e.g. deliberately run-dependent gauges)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="only print regressions"
    )
    args = parser.parse_args()

    with open(args.old) as f:
        old_report = json.load(f)
    with open(args.new) as f:
        new_report = json.load(f)

    old_metrics = dict(flatten(old_report))
    new_metrics = dict(flatten(new_report))

    regressions = []
    rows = []
    for path in sorted(set(old_metrics) | set(new_metrics)):
        if any(path.startswith(prefix) for prefix in args.ignore):
            rows.append((path, old_metrics.get(path), new_metrics.get(path),
                         None, "ignored"))
            continue
        if path not in old_metrics:
            rows.append((path, None, new_metrics[path], None, "added"))
            if args.exact:
                regressions.append(path)
            continue
        if path not in new_metrics:
            rows.append((path, old_metrics[path], None, None, "removed"))
            if args.exact:
                regressions.append(path)
            continue
        old, new = old_metrics[path], new_metrics[path]
        threshold = 0.0 if args.exact else args.threshold
        delta, verdict = classify(path, old, new, threshold)
        profile = is_profile(path)
        if profile and not args.include_profile:
            if verdict in ("regressed", "improved"):
                verdict = "profile-noise"
        elif verdict == "regressed" or (args.exact and verdict == "improved"):
            regressions.append(path)
        rows.append((path, old, new, delta, verdict))

    def fmt(v):
        if v is None:
            return "-"
        return f"{v:.6g}"

    shown = 0
    for path, old, new, delta, verdict in rows:
        if args.quiet and verdict in ("ok", "profile-noise", "ignored"):
            continue
        if verdict == "ok" and delta == 0.0 and not args.exact:
            continue  # unchanged: keep output focused on movement
        delta_s = "-" if delta is None else f"{delta:+.2f}%"
        print(f"{verdict:>13}  {path}: {fmt(old)} -> {fmt(new)} ({delta_s})")
        shown += 1
    if shown == 0:
        print("no metric movement")

    if regressions:
        print(
            f"\nFAIL: {len(regressions)} metric(s) regressed beyond "
            f"{0.0 if args.exact else args.threshold}%:",
            file=sys.stderr,
        )
        for path in regressions:
            print(f"  {path}", file=sys.stderr)
        return 1
    print("\nOK: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
