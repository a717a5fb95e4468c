// LatencyTracker: end-to-end transaction-lifecycle latency (ISSUE 7
// tentpole). Stamps each tracked transaction at the lifecycle stages
//
//   submit  — the workload handed the payment to the cluster
//   admit   — a node accepted it into its mempool/ledger locally
//   include — it landed in a block / batch on the reference replica
//   confirm — the ledger's confirmation rule fired (depth-k for the
//             chain, vote quorum for the lattice, tip-cone coverage
//             for the tangle; see DESIGN.md "Latency semantics")
//
// in deterministic simulation time, and feeds the per-stage histograms
//
//   latency.submit_to_admit     latency.admit_to_include
//   latency.include_to_confirm  latency.submit_to_confirm
//
// in the cluster MetricsRegistry (p50/p99/p999 via the registry JSON
// export). Each stamp also emits a typed trace event through the
// cluster Tracer (tx_submitted / tx_admitted / tx_included /
// tx_confirmed), all keyed by the same obs::trace_id so tools/
// trace_plot.py can reassemble per-transaction timelines.
//
// Determinism contract: every stamp is a sim-time value recorded on the
// serial simulation thread; the tracker holds no wall-clock state and
// draws no randomness (the histograms' reservoir RNG is fixed-seed), so
// same-seed runs produce byte-identical latency.* JSON and trace bytes.
//
// Only transactions registered via on_submit are tracked: stage calls
// for unknown ids (funding sends, blocks submitted directly to a node
// in tests, re-gossiped duplicates) return false and record nothing,
// so the histograms measure exactly the engine-submitted workload.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "obs/probe.hpp"

namespace dlt::obs {

class LatencyTracker {
 public:
  /// Sentinel issuer tag: the submission carries no issuer attribution
  /// and is excluded from the per-issuer fairness stats.
  static constexpr std::uint64_t kNoIssuer = ~0ULL;
  /// Sentinel fee class: untagged submissions skip the per-class
  /// latency.class.<k>.submit_to_confirm histograms (ISSUE 10).
  static constexpr std::uint32_t kNoClass = ~0U;

  /// Per-issuer inclusion tally (fairness.inclusion_gini input, ISSUE 8):
  /// how many of an issuer's submissions reached the include stage. Kept
  /// separately from the in-flight entries because confirm retires those.
  struct IssuerStats {
    std::uint64_t submitted = 0;
    std::uint64_t included = 0;
  };

  /// Wires the latency.* histograms (and the in-flight gauge) into the
  /// probe's registry and starts tracking. `sample_cap` bounds each
  /// histogram's percentile memory (0 = exact, unbounded).
  void enable(const Probe& probe, std::size_t sample_cap = 0);
  bool enabled() const { return enabled_; }

  /// Registers a workload transaction at submission time. First write
  /// wins; duplicate ids are ignored. `issuer` tags the submission for
  /// the per-issuer fairness stats (workload account index in clusters;
  /// kNoIssuer = untracked).
  /// `fee_class` additionally buckets this transaction's eventual
  /// confirmation latency into latency.class.<k>.submit_to_confirm.
  void on_submit(std::uint64_t id, double t, std::uint32_t node,
                 std::uint64_t issuer = kNoIssuer,
                 std::uint32_t fee_class = kNoClass);
  /// Stage stamps for a tracked id; return false (and record nothing)
  /// when `id` was never submitted — callers may then fall back to their
  /// historical trace emission. First write per stage wins.
  bool on_admit(std::uint64_t id, double t, std::uint32_t node);
  bool on_include(std::uint64_t id, double t, std::uint32_t node,
                  std::uint64_t aux = 0);
  /// A reorg disconnected the including block: clears the include stamp
  /// so the eventual re-inclusion restamps it.
  void on_uninclude(std::uint64_t id);
  /// Confirmation: flushes the stage deltas into the histograms, emits
  /// tx_confirmed, and retires the entry (later calls return false).
  bool on_confirm(std::uint64_t id, double t, std::uint32_t node,
                  std::uint64_t aux = 0);
  /// Fee-market eviction (ISSUE 10): retires the entry WITHOUT touching
  /// the latency histograms (the tx never confirmed), emits tx_evicted.
  /// Returns false for unknown/already-retired ids so callers can gate
  /// their admission.* accounting on whether the entry was live.
  bool on_evict(std::uint64_t id, double t, std::uint32_t node);

  /// Transactions submitted but not yet confirmed.
  std::size_t in_flight() const { return entries_.size(); }
  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t confirmed() const { return confirmed_; }
  std::uint64_t evicted() const { return evicted_; }

  /// Per-issuer submission/inclusion tallies for issuer-tagged
  /// submissions. Iterate sorted by issuer for deterministic aggregation
  /// (core::inclusion_gini does).
  const std::unordered_map<std::uint64_t, IssuerStats>& issuer_stats() const {
    return issuer_stats_;
  }

  /// Refreshes the latency.in_flight gauge (call before registry export).
  void capture();

 private:
  struct Entry {
    double submit = -1.0;
    double admit = -1.0;
    double include = -1.0;
    std::uint64_t issuer = kNoIssuer;
    std::uint32_t fee_class = kNoClass;
  };

  Histogram* class_histogram(std::uint32_t fee_class);

  bool enabled_ = false;
  Probe probe_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::unordered_map<std::uint64_t, IssuerStats> issuer_stats_;
  std::unordered_map<std::uint32_t, Histogram*> class_hist_;
  std::size_t sample_cap_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t confirmed_ = 0;
  std::uint64_t evicted_ = 0;

  // Cached registry metrics (non-null once enabled with a registry).
  Histogram* submit_to_admit_ = nullptr;
  Histogram* admit_to_include_ = nullptr;
  Histogram* include_to_confirm_ = nullptr;
  Histogram* submit_to_confirm_ = nullptr;
  Gauge* in_flight_ = nullptr;
};

}  // namespace dlt::obs
