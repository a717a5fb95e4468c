// Wiring shared by the cluster kinds: network topology construction, the
// deterministic workload-account key schedule, and the crypto hot-path
// handle (the shared sigcache) that every cluster threads through its nodes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/keys.hpp"
#include "crypto/sigcache.hpp"
#include "net/network.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"

namespace dlt::core {

enum class Topology { kComplete, kRandom, kSmallWorld };

/// Crypto hot-path knobs common to both cluster kinds.
struct CryptoConfig {
  /// One signature-verification cache shared by every node: the first node
  /// to verify a (pubkey, sighash, signature) triple serves the other N-1.
  /// Disable for attack experiments that want per-node verification cost.
  bool shared_sigcache = true;
  std::size_t sigcache_capacity = 1u << 18;
  /// Retired knobs of the removed threaded validation and state-apply
  /// pipelines. Block connect, lattice processing and tangle attach each
  /// have one serial path now, so nothing reads these fields. They stay
  /// declared only because ledgerbench/ledgerbench.cpp still assigns them;
  /// the next change to the benchmark deletes them together with those
  /// assignments. make_cluster_crypto() rejects any value but 0 / false.
  std::size_t verify_threads = 0;
  bool parallel_validation = false;
  bool parallel_state = false;
};

/// Instantiated handles a cluster hands to each of its nodes.
struct ClusterCrypto {
  std::shared_ptr<crypto::SignatureCache> sigcache;
};

/// Builds the cluster's crypto handles. Throws std::invalid_argument if a
/// retired pipeline knob (verify_threads, parallel_validation,
/// parallel_state) is set.
ClusterCrypto make_cluster_crypto(const CryptoConfig& config);

/// Observability knobs common to both cluster kinds. The registry is
/// always on (cheap: pointer-cached counters); tracing is opt-in because
/// the ring buffer holds trace_capacity events in memory.
struct ObsConfig {
  /// Trace ring capacity in events; 0 = tracing disabled (the record path
  /// collapses to a branch, and no RunMetrics value may change either way).
  std::size_t trace_capacity = 0;
  /// Streaming JSONL sink path; non-empty = every trace event is written
  /// through to this file as it is recorded, so long runs keep full
  /// fidelity after the ring wraps (`dropped` stays 0 while active). May be
  /// combined with a ring (trace_capacity > 0) or used alone.
  std::string trace_sink;
  /// Namespace each node's registry metrics under "node.<id>." (see
  /// ClusterObs::probe_for), making cross-node skew measurable. Off by
  /// default: aggregated counters keep their historical names/bytes.
  bool per_node_metrics = false;
  /// Track per-transaction lifecycle latency (obs::LatencyTracker): each
  /// engine-submitted payment is stamped at submit/admit/include/confirm
  /// in sim time, feeding the latency.* histograms and tx_* trace events.
  /// On by default (cheap: one hash-map entry per in-flight payment);
  /// turn off to reproduce pre-lifecycle registry/trace bytes exactly.
  bool track_latency = true;
  /// Per-histogram percentile sample cap for the latency.* histograms
  /// (deterministic reservoir above it; 0 = exact, unbounded).
  std::size_t latency_sample_cap = 1u << 16;
};

/// Cluster-owned observability state. Nodes and the network hold
/// non-owning Probes into it; the cluster driver exports it into
/// BENCH_*.json (metrics + trace_summary) at the end of a run.
struct ClusterObs {
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  obs::LatencyTracker lifecycle;
  bool per_node_metrics = false;

  explicit ClusterObs(const ObsConfig& config)
      : per_node_metrics(config.per_node_metrics) {
    if (config.trace_capacity > 0) tracer.enable(config.trace_capacity);
    if (!config.trace_sink.empty()) tracer.stream_to(config.trace_sink);
    if (config.track_latency)
      lifecycle.enable(probe(), config.latency_sample_cap);
  }
  obs::Probe probe() { return obs::Probe{&metrics, &tracer, {}}; }
  /// Probe for node `i`: identical to probe() unless per_node_metrics is
  /// on, in which case registry names resolve under "node.<i>.".
  obs::Probe probe_for(std::size_t i) {
    obs::Probe p = probe();
    if (per_node_metrics) p.prefix = "node." + std::to_string(i) + ".";
    return p;
  }

  /// Copies scheduler counters into sim.* gauges and refreshes the
  /// latency.in_flight gauge (call before export).
  void capture_sim(const sim::Simulation& sim);
};

/// Workload account keys on the shared deterministic seed schedule, so
/// fixtures and benches line up across cluster kinds.
std::vector<crypto::KeyPair> make_workload_accounts(std::size_t count);

/// Wires `ids` into the requested topology over `net`.
void build_topology(net::Network& net, const std::vector<net::NodeId>& ids,
                    Topology topology, const net::LinkParams& link,
                    std::size_t random_degree, Rng& rng);

}  // namespace dlt::core
