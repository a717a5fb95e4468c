// A complete simulated blockchain network: nodes, miners/validators,
// wallets, and a workload driver. The drivers behind the §IV-§VI benches.
//
// Since the engine unification, ChainCluster is a thin facade over
// core::ClusterEngine<ChainTraits>: the engine owns the sim loop, topology,
// crypto/obs wiring and RunMetrics assembly; ChainTraits supplies the
// chain-specific policy (genesis allocation, PoS stakes, UTXO coin
// selection / account nonces, fork stats). The public API is unchanged.
#pragma once

#include <unordered_set>
#include <vector>

#include "chain/node.hpp"
#include "core/cluster_engine.hpp"

namespace dlt::core {

struct ChainClusterConfig {
  chain::ChainParams params;
  std::size_t node_count = 8;
  std::size_t miner_count = 4;     // PoW: nodes [0, miner_count) mine
  double total_hashrate = 1.0e6;   // split evenly across miners
  std::size_t validator_count = 4; // PoS: staked nodes
  chain::Amount stake_per_validator = 1'000'000;

  Topology topology = Topology::kComplete;
  net::LinkParams link{};
  std::size_t random_degree = 4;

  std::size_t account_count = 50;
  chain::Amount initial_balance = 10'000'000;
  /// UTXO model: number of independent genesis coins per account (each of
  /// initial_balance). Saturation benches need many spendable outpoints.
  std::size_t genesis_outputs_per_account = 1;
  /// Account model: mean calldata bytes per transaction (drawn uniformly
  /// in [0, 2*mean]). Real Ethereum transactions average well above the
  /// 21k intrinsic gas; this reproduces that gas weighting (paper §VI-A).
  std::uint32_t account_tx_data_mean = 0;

  /// Crypto hot-path knobs (shared sigcache, batch verification).
  CryptoConfig crypto{};

  /// Observability knobs (metrics registry is always on; tracing opt-in).
  ObsConfig obs{};

  /// Persistence mode for every node's ledger store (ISSUE 9). Memory mode
  /// (default) keeps the same write-through accounting in RAM; disk mode
  /// adds the segmented log + mmap state backend. Byte-identical traces
  /// either way; see storage/config.hpp and apply_env_storage.
  storage::StorageConfig storage{};

  /// Open-loop traffic engine + admission control (ISSUE 10). When
  /// enabled, every node's mempool runs the byte-capacity fee market
  /// (traffic.queue_capacity_bytes, replacement on) and
  /// ClusterEngine::schedule_traffic() drives arrivals.
  TrafficConfig traffic{};

  std::uint64_t seed = 42;
};

/// Ledger policy plugged into ClusterEngine (see cluster_engine.hpp for
/// the full contract). Definitions live in chain_cluster.cpp.
struct ChainTraits {
  using Config = ChainClusterConfig;
  using Node = chain::ChainNode;
  using Amount = chain::Amount;

  /// Driver-side wallet bookkeeping.
  struct State {
    // UTXO model: outpoints already committed to in-flight txs.
    std::unordered_set<chain::Outpoint> reserved;
    std::size_t reserved_compact_at = 8192;
    // Account model: next nonce per workload account.
    std::vector<std::uint64_t> next_nonce;
    // Traffic engine (ISSUE 10): reverse account lookup so the mempool
    // evict handler can roll a sender's wallet nonce back to the evicted
    // slot (the wallet re-uses it, keeping the sender's queue gap-free).
    std::unordered_map<crypto::AccountId, std::size_t> account_index;
  };

  static State make_state(Config& config);
  static std::string system_name(const Config& config);
  static void build_nodes(ClusterEngine<ChainTraits>& e);
  static void after_topology(ClusterEngine<ChainTraits>& e);
  static void wire_lifecycle(ClusterEngine<ChainTraits>& e);
  static void start(ClusterEngine<ChainTraits>& e);
  static SubmitOutcome submit_payment(ClusterEngine<ChainTraits>& e,
                                      std::size_t from, std::size_t to,
                                      Amount amount);
  static void submit_traffic(ClusterEngine<ChainTraits>& e,
                             const TrafficEvent& ev);
  static void fill_metrics(const ClusterEngine<ChainTraits>& e,
                           RunMetrics& m);
  static bool converged(const ClusterEngine<ChainTraits>& e);
};

class ChainCluster : public ClusterEngine<ChainTraits> {
 public:
  using ClusterEngine<ChainTraits>::ClusterEngine;
};

}  // namespace dlt::core
