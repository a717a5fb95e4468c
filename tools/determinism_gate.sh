#!/usr/bin/env bash
# Determinism gate: the simulator's contract is byte-identical output per
# seed. Every leg runs a bench twice and demands byte-identical event
# traces and an identical BENCH_*.json metrics section. Only wall-clock
# histograms (profile.*, *_us) are exempt.
#
#   rerun   — the same bench, same seed, run twice: chain (block), dag
#             (lattice), tangle, the adversary suite and the open-loop
#             traffic engine (E20, ISSUE 10).
#   storage — DLT_STORAGE=memory vs disk (pluggable persistence,
#             ISSUE 9): flipping the storage mode must leave metrics and
#             traces byte-identical.
#   simcore — the scheduler microbench's fire-order checksums.
#
#   tools/determinism_gate.sh [build-dir]   # default: build
#
# Invoked by tools/check.sh --determinism, or via ctest when configured
# with -DDLT_DETERMINISM_GATE=ON.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="${1:-build}"
[[ "$BUILD" = /* ]] || BUILD="$(pwd)/$BUILD"
DIFF="$(pwd)/tools/bench_diff.py"

# gate <bench-name>: run the bench twice on its fixed seed, then demand
# identical metrics and byte-identical traces.
gate() {
  local bench="$1"
  local bin="$BUILD/bench/$bench"

  if [[ ! -x "$bin" ]]; then
    echo "determinism gate: $bin not built (build the bench targets first)" >&2
    exit 2
  fi

  local work
  work="$(mktemp -d)"
  # shellcheck disable=SC2064  # expand $work now; one trap per subshell run
  trap "rm -rf '$work'" RETURN

  for run in 1 2; do
    local dir="$work/r$run"
    mkdir -p "$dir"
    echo "=== [determinism/rerun] $bench run $run ==="
    (cd "$dir" && env DLT_TRACE=1 "$bin" >/dev/null)
  done

  echo "=== [determinism/rerun] $bench metrics: exact diff (wall-clock exempt) ==="
  python3 "$DIFF" --exact --quiet \
    "$work/r1/BENCH_${bench#bench_}.json" \
    "$work/r2/BENCH_${bench#bench_}.json"

  echo "=== [determinism/rerun] $bench trace: byte compare ==="
  cmp "$work/r1/TRACE_${bench#bench_}.jsonl" \
      "$work/r2/TRACE_${bench#bench_}.jsonl"
  echo "traces byte-identical"
}

# gate_storage <bench-name>: run the same bench with the storage layer in
# memory and in disk mode (DLT_STORAGE, ISSUE 9) and demand identical
# metrics and byte-identical traces — the storage determinism contract:
# flipping the persistence mode may never shift a trace or a metric.
# Absolute storage paths never appear in the reports (string leaves are
# not compared by bench_diff). Segment counts are mode-independent by
# construction, but are exempted so a future segment-size tweak can't
# mask a real memory/disk divergence behind rotation arithmetic.
gate_storage() {
  local bench="$1"
  local bin="$BUILD/bench/$bench"

  if [[ ! -x "$bin" ]]; then
    echo "determinism gate: $bin not built (build the bench targets first)" >&2
    exit 2
  fi

  local -a ignore=(--ignore metrics.gauges.storage.segments)

  local work
  work="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '$work'" RETURN

  for mode in memory disk; do
    local dir="$work/$mode"
    mkdir -p "$dir"
    echo "=== [determinism/storage] $bench @ DLT_STORAGE=$mode ==="
    (cd "$dir" &&
     env DLT_STORAGE="$mode" DLT_TRACE=1 "$bin" >/dev/null)
  done

  echo "=== [determinism/storage] $bench metrics: exact diff (segment counts exempt) ==="
  python3 "$DIFF" --exact --quiet "${ignore[@]}" \
    "$work/memory/BENCH_${bench#bench_}.json" \
    "$work/disk/BENCH_${bench#bench_}.json"

  echo "=== [determinism/storage] $bench trace: byte compare ==="
  cmp "$work/memory/TRACE_${bench#bench_}.jsonl" \
      "$work/disk/TRACE_${bench#bench_}.jsonl"
  echo "traces byte-identical across storage modes"
}

# gate_simcore: the scheduler microbench embeds a fire-order differential
# against the legacy engine (exits nonzero on divergence) and writes its
# checksums into BENCH_simcore.json `deterministic`; two runs must agree
# exactly there. The `perf` section is wall-clock and exempt.
gate_simcore() {
  local bin="$BUILD/bench/bench_simcore"
  if [[ ! -x "$bin" ]]; then
    echo "determinism gate: $bin not built (build the bench targets first)" >&2
    exit 2
  fi
  local work
  work="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '$work'" RETURN
  for run in 1 2; do
    mkdir -p "$work/r$run"
    echo "=== [determinism/simcore] bench_simcore run $run ==="
    (cd "$work/r$run" && "$bin" >/dev/null)
  done
  echo "=== [determinism/simcore] metrics: exact diff (perf section exempt) ==="
  python3 "$DIFF" --exact --quiet --ignore perf. \
    "$work/r1/BENCH_simcore.json" "$work/r2/BENCH_simcore.json"
}

gate bench_throughput_chain
gate bench_throughput_dag
gate bench_throughput_tangle
gate bench_adversarial
gate bench_openloop
gate_storage bench_throughput_chain
gate_storage bench_throughput_tangle
gate_storage bench_openloop
gate_simcore
echo "=== [determinism] OK ==="
