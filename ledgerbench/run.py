#!/usr/bin/env python3
"""Runs one ledger workload of the simulator benchmark and prints its result.

    python3 ledgerbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds ledgerbench/ (and the simulator sources in src/) with CMake into
$CARGO_TARGET_DIR/ledgerbench, default .bench_build/ledgerbench, runs the
runner binary once, checks its outputs and prints, as the last line of stdout, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
The line before it is a JSON "info" record with the build, environment,
sample counts and every raw figure the metrics were computed from.

Exits non-zero without a result when the build or the run fails. See
README.md in this directory for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("utxo-backlog", "lattice-votes", "tangle-mcmc", "tangle-flood")
RUN_TIMEOUT_S = 170
# Registry members that hold wall-clock readings; everything else in the
# registry is a sim-time output and must repeat exactly for a seed.
WALL_CLOCK_GAUGES = ("sim.wall_seconds", "sim.events_per_sec")


def fail(msg):
    print(f"ledgerbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_root):
    """Configures and builds the runner; returns the binary's path."""
    build_dir = os.path.join(build_root, "ledgerbench")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "ledgerbench",
              "-j", "4"]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "ledgerbench")


def clean_environment():
    """Drops every DLT_* variable the library could read; returns them."""
    env = dict(os.environ)
    removed = sorted(k for k in env if k.startswith("DLT_"))
    for k in removed:
        del env[k]
    return env, {k: os.environ[k] for k in removed}


def sim_digest(rep):
    """Digest of a rep's sim-time outputs: the registry without profile.*
    histograms and wall-clock gauges, plus the runner's sim-time tallies."""
    reg = json.loads(json.dumps(rep["registry"]))
    for section in reg.values():
        for name in list(section):
            if name.startswith("profile.") or name in WALL_CLOCK_GAUGES:
                del section[name]
    sim = {k: rep[k] for k in ("attempted", "submitted", "refused", "evicted",
                               "backpressured", "confirmed", "in_flight",
                               "sim_seconds", "events", "net_messages",
                               "net_bytes", "chain_blocks", "log_bytes")}
    blob = json.dumps({"registry": reg, "sim": sim}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def failed_ops(rep):
    """Payments refused at submit, evicted, backpressured, or unconfirmed at
    the horizon although submitted before the workload's settle window."""
    overdue = max(0, rep["in_flight"] - rep["not_yet_due"])
    return rep["refused"] + rep["evicted"] + rep["backpressured"] + overdue


def cycles(reps, k):
    """Splits reps into whole cycles of k sub-runs."""
    return [reps[i:i + k] for i in range(0, len(reps), k)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw, untraced):
    k = raw["subruns"]
    first = untraced[:k]  # sim-time outputs are fixed per sub-seed
    return {
        "setup_s": metric(statistics.median(r["setup_s"] for r in untraced),
                          "s"),
        "tx_per_s": metric(statistics.median(
            sum(r["attempted"] for r in c) / sum(r["run_s"] for r in c)
            for c in cycles(untraced, k)), "tx/s"),
        "submit_p99_us": metric(statistics.median(raw["submit_tail_us"]), "us"),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MiB"),
        "sim_tps": metric(sum(r["confirmed"] for r in first) /
                          sum(r["sim_seconds"] for r in first), "tx/sim-s"),
        "sim_confirm_p50_s": metric(raw["confirm_p50_s"], "sim-s"),
        "sim_confirm_p99_s": metric(raw["confirm_p99_s"], "sim-s"),
    }


def layer_share(reps):
    """(submit self + chain connect) time over run wall time."""
    return (sum(r["submit_self_s"] + r["connect_s"] for r in reps) /
            sum(r["run_s"] for r in reps))


def per_layer(raw, untraced, traced):
    """Layer metrics of one traced cycle (all K sub-runs): counts summed
    over the cycle, times averaged over the traced cycles."""
    k = raw["subruns"]
    n_traced = len(traced) // k
    cycle = traced[-k:]
    rp = raw["replay"]
    total = lambda f, reps=cycle: sum(f(r) for r in reps)
    per_cycle = lambda f: total(f, traced) / n_traced
    run_s = per_cycle(lambda r: r["run_s"])
    submit_self = per_cycle(lambda r: r["submit_self_s"])
    attempted = total(lambda r: r["attempted"])
    events = total(lambda r: r["events"])
    messages = total(lambda r: r["net_messages"])
    hits, misses = total(lambda r: r["sig_hits"]), total(lambda r: r["sig_misses"])
    per_call = lambda s, n: s / n * 1e6 if n else 0.0
    untraced_run = sum(r["run_s"] for r in untraced) / (len(untraced) // k)
    # Layer time the spans attribute below the event loop: submit calls
    # (without the profile timers nested in them) plus the program's own
    # profile timers.
    attributed = per_cycle(lambda r: r["submit_self_s"] + r["connect_s"] +
                           r["lattice_work_s"])
    return {
        # Untraced cycles of this run; see README.md on why it is here.
        "submit_p50_us": metric(statistics.median(raw["submit_p50_us"]), "us"),
        "core.submit.calls": metric(attempted, "count"),
        "core.submit.self_s": metric(submit_self, "s"),
        "core.submit.share": metric(submit_self / run_s, "ratio"),
        "core.submit.refused": metric(total(lambda r: r["refused"]), "count"),
        "sim.events": metric(events, "count"),
        "sim.loop.self_s": metric(run_s - submit_self, "s"),
        "sim.events_per_s": metric(events / run_s, "1/s"),
        "sim.heap_peak": metric(max(r["heap_peak"] for r in cycle), "count"),
        "net.messages": metric(messages, "count"),
        "net.bytes": metric(total(lambda r: r["net_bytes"]), "bytes"),
        "net.messages_per_tx": metric(messages / max(1, attempted), "ratio"),
        "chain.connect.calls": metric(total(lambda r: r["connect_calls"]),
                                      "count"),
        "chain.connect.self_s": metric(per_cycle(lambda r: r["connect_s"]),
                                       "s"),
        "chain.blocks": metric(total(lambda r: r["chain_blocks"]), "count"),
        "chain.reorgs": metric(total(lambda r: r["chain_reorgs"]), "count"),
        "crypto.sigcache.hit_ratio": metric(
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "crypto.sig_verifies": metric(misses, "count"),
        "lattice.votes": metric(total(lambda r: r["lattice_votes"]), "count"),
        "lattice.work.self_s": metric(
            per_cycle(lambda r: r["lattice_work_s"]), "s"),
        "lattice.replay.process_s": metric(rp["lattice_process_s"], "s"),
        "lattice.total_weight.us_per_call": metric(
            per_call(rp["total_weight_s"], rp["total_weight_calls"]), "us"),
        "tangle.select_tip.calls": metric(rp["select_tip_calls"], "count"),
        "tangle.select_tip.us_per_call": metric(
            per_call(rp["select_tip_s"], rp["select_tip_calls"]), "us"),
        "tangle.cumulative_weight.us_per_call": metric(
            per_call(rp["cumulative_weight_s"],
                     rp["cumulative_weight_calls"]), "us"),
        "tangle.replay.attach_s": metric(rp["attach_s"], "s"),
        "tangle.gap.parked": metric(total(lambda r: r["gap_parked"]), "count"),
        "storage.log_bytes": metric(total(lambda r: r["log_bytes"]), "bytes"),
        "storage.state_bytes": metric(total(lambda r: r["state_bytes"]),
                                      "bytes"),
        "storage.replay.append_s": metric(rp["storage_append_s"], "s"),
        "obs.trace_overhead": metric(run_s / untraced_run - 1.0, "ratio"),
        "obs.span_coverage": metric(attributed / run_s, "ratio"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    env, neutralised = clean_environment()
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_root)
    spans_path = os.path.join(build_root, "ledgerbench",
                              f"spans-{args.workload}-s{args.seed}.jsonl")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"runner exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    untraced, traced = raw["untraced"], raw["traced"]
    reps = [raw["warmup"]] + untraced + traced
    k = raw["subruns"]
    problems = sorted({c for r in reps for c in r["failed_checks"]})
    digests = {}
    for r in reps:
        digests.setdefault(r["sub"], set()).add(sim_digest(r))
    if any(len(d) != 1 for d in digests.values()) or len(digests) != k:
        problems.append("a sub-seed gave different sim-time outputs on reruns")
    if args.trace:
        metrics = per_layer(raw, untraced, traced)
        share = layer_share(traced)
        if share < raw["min_layer_share"]:
            problems.append(f"submit + connect share {share:.3f} below "
                            f"{raw['min_layer_share']}")
    else:
        metrics = end_to_end(raw, untraced)

    failed = sum(failed_ops(r) for r in reps) + len(problems)
    attempted = sum(r["attempted"] for r in reps)
    first = untraced[:k]
    info = {
        "info": {
            "workload": args.workload,
            "seed": args.seed,
            "subruns": k,
            "reps": {"untraced": len(untraced), "traced": len(traced)},
            "hardware_threads": raw["hardware_threads"],
            "compiler": raw["compiler"],
            "build_type": raw["build_type"],
            "neutralised_env": neutralised,
            "offered_tx_per_sim_s": raw["offered_tx_per_sim_s"],
            "tail_sim_s": raw["tail_sim_s"],
            "payments_per_cycle": sum(r["attempted"] for r in first),
            "submit_samples_per_cycle": raw["submit_samples_per_cycle"],
            "submit_tail_percentile": round(100 * raw["submit_tail_quantile"], 3),
            "confirm_samples": raw["confirm_samples"],
            "fail_share": (sum(failed_ops(r) for r in first) /
                           max(1, sum(r["attempted"] for r in first))),
            "layer_share": layer_share(traced) if args.trace else None,
            "sim_digests": {str(s): sorted(d) for s, d in sorted(digests.items())},
            "problems": problems,
            "spans_file": spans_path if args.trace else None,
            "raw": {key: v for key, v in raw.items()
                    if key not in ("warmup", "untraced", "traced")},
        }
    }
    print(json.dumps(info))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
