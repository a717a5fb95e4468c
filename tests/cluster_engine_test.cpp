// Engine-parity differential tests (ISSUE 4 tentpole acceptance).
//
// ChainCluster and LatticeCluster used to be hand-written drivers; they
// are now thin facades over ClusterEngine<Traits>. These tests pin the
// refactor's determinism contract by re-implementing the PRE-refactor
// drivers verbatim (LegacyChainCluster / LegacyLatticeCluster below,
// copied from the last pre-engine revision) and asserting that on the
// same seed the engine path produces
//
//   - a byte-identical JSONL event trace,
//   - a byte-identical metrics-registry JSON export, and
//   - an equal RunMetrics snapshot
//
// for both ledger kinds. The tangle (which never had a legacy driver)
// is pinned the other way: two runs of the same seed must agree
// byte-for-byte, the same invariance the determinism gate enforces.
#include <gtest/gtest.h>

#include <cassert>
#include <memory>
#include <regex>
#include <string>
#include <unordered_set>
#include <vector>

#include "chain/node.hpp"
#include "core/chain_cluster.hpp"
#include "core/lattice_cluster.hpp"
#include "core/tangle_cluster.hpp"
#include "core/workload.hpp"
#include "lattice/node.hpp"

namespace dlt::core {
namespace {

/// Wall-clock profiling histograms (profile.*_us) are documented as
/// outside the determinism surface (obs/trace.hpp) and tools/bench_diff.py
/// skips them too; strip them before comparing registry exports
/// byte-for-byte.
std::string strip_profile(std::string json) {
  static const std::regex kProfile("\"profile\\.[^\"]*\":\\{[^{}]*\\},?");
  // sim.wall_seconds / sim.events_per_sec are wall-clock gauges — real
  // measurements, not part of the determinism surface.
  static const std::regex kWallClock(
      "\"sim\\.(wall_seconds|events_per_sec)\":[^,}]*,?");
  // The legacy drivers are frozen snapshots of the pre-engine clusters and
  // predate the storage layer's storage.* gauges; memory/disk equivalence
  // of those gauges is proven by the storage differential tests instead.
  static const std::regex kStorage("\"storage\\.[^\"]*\":[^,}]*,?");
  json = std::regex_replace(json, kStorage, "");
  return std::regex_replace(std::regex_replace(json, kProfile, ""),
                            kWallClock, "");
}

void expect_percentiles_equal(const Percentiles& a, const Percentiles& b) {
  ASSERT_EQ(a.count(), b.count());
  if (a.count() == 0) return;
  EXPECT_EQ(a.quantile(0.0), b.quantile(0.0));
  EXPECT_EQ(a.median(), b.median());
  EXPECT_EQ(a.p95(), b.p95());
  EXPECT_EQ(a.quantile(1.0), b.quantile(1.0));
}

void expect_metrics_equal(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.system, b.system);
  EXPECT_EQ(a.sim_duration, b.sim_duration);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.included, b.included);
  EXPECT_EQ(a.confirmed, b.confirmed);
  EXPECT_EQ(a.pending_end, b.pending_end);
  expect_percentiles_equal(a.inclusion_latency, b.inclusion_latency);
  expect_percentiles_equal(a.confirmation_latency, b.confirmation_latency);
  EXPECT_EQ(a.reorgs, b.reorgs);
  EXPECT_EQ(a.orphaned_blocks, b.orphaned_blocks);
  EXPECT_EQ(a.max_reorg_depth, b.max_reorg_depth);
  EXPECT_EQ(a.blocks_produced, b.blocks_produced);
  EXPECT_EQ(a.stored_bytes, b.stored_bytes);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.message_bytes, b.message_bytes);
}

// ---------------------------------------------------------------------------
// LegacyChainCluster: the pre-engine ChainCluster driver, copied verbatim
// (modulo member spelling) from the revision before the refactor. Do not
// "improve" this code — its whole value is being the historical behavior.
// ---------------------------------------------------------------------------
class LegacyChainCluster {
 public:
  explicit LegacyChainCluster(ChainClusterConfig config)
      : config_(std::move(config)),
        rng_(config_.seed),
        crypto_(make_cluster_crypto(config_.crypto)),
        obs_(config_.obs) {
    submitted_ = &obs_.metrics.counter("cluster.submitted");
    rejected_ = &obs_.metrics.counter("cluster.rejected");

    net_ = std::make_unique<net::Network>(sim_, rng_.fork());
    net_->set_probe(obs_.probe());

    accounts_ = make_workload_accounts(config_.account_count);
    chain::GenesisSpec genesis;
    for (std::size_t i = 0; i < config_.account_count; ++i) {
      const std::size_t coins =
          std::max<std::size_t>(1, config_.genesis_outputs_per_account);
      for (std::size_t j = 0; j < coins; ++j)
        genesis.allocations.emplace_back(accounts_[i].account_id(),
                                         config_.initial_balance);
    }
    next_nonce_.assign(config_.account_count, 0);

    std::vector<chain::StakeAllocation> stakes;
    if (config_.params.consensus == chain::ConsensusKind::kProofOfStake) {
      for (std::size_t i = 0; i < config_.validator_count; ++i) {
        const crypto::KeyPair key = crypto::KeyPair::from_seed(0x4000 + i);
        stakes.push_back(chain::StakeAllocation{
            key.account_id(), key.public_key(), config_.stake_per_validator});
      }
    }

    for (std::size_t i = 0; i < config_.node_count; ++i) {
      chain::NodeConfig nc;
      nc.wallet_seed = 0x4000 + i;
      if (config_.params.consensus == chain::ConsensusKind::kProofOfWork &&
          i < config_.miner_count) {
        nc.hashrate =
            config_.total_hashrate / static_cast<double>(config_.miner_count);
        nc.solve_pow = config_.params.verify_pow;
      }
      nc.sigcache = crypto_.sigcache;
      nc.probe = obs_.probe();
      nodes_.push_back(std::make_unique<chain::ChainNode>(
          *net_, config_.params, genesis, nc, rng_.fork(), stakes));
    }

    std::vector<net::NodeId> ids;
    for (const auto& n : nodes_) ids.push_back(n->id());
    build_topology(*net_, ids, config_.topology, config_.link,
                   config_.random_degree, rng_);
  }

  void start() {
    for (auto& n : nodes_) n->start();
  }

  Status submit_payment(std::size_t from, std::size_t to,
                        chain::Amount amount) {
    Status st = config_.params.tx_model == chain::TxModel::kUtxo
                    ? submit_utxo_payment(from, to, amount)
                    : submit_account_payment(from, to, amount);
    if (st.ok())
      submitted_->inc();
    else
      rejected_->inc();
    return st;
  }

  void schedule_workload(const std::vector<PaymentEvent>& events) {
    for (const PaymentEvent& ev : events) {
      sim_.schedule_at(sim_.now() + ev.time, [this, ev] {
        (void)submit_payment(ev.from, ev.to, ev.amount);
      });
    }
  }

  void run_for(double seconds) { sim_.run_until(sim_.now() + seconds); }

  RunMetrics metrics() const {
    RunMetrics m;
    m.system = config_.params.name;
    m.sim_duration = sim_.now();
    m.submitted = submitted_->value();
    m.rejected = rejected_->value();

    const chain::Blockchain& chain = nodes_[0]->chain();
    std::uint64_t included = 0, confirmed = 0;
    for (std::uint32_t h = 1; h <= chain.height(); ++h) {
      const chain::Block* b = chain.at_height(h);
      const std::uint64_t txs =
          b->is_utxo() ? b->tx_count() - 1 : b->tx_count();
      included += txs;
      if (chain.height() - h + 1 >= chain.params().confirmation_depth)
        confirmed += txs;
    }
    m.included = included;
    m.confirmed = confirmed;
    m.pending_end = nodes_[0]->mempool_size();

    for (const auto& n : nodes_) m.blocks_produced += n->blocks_mined();
    m.inclusion_latency = nodes_[0]->timings().inclusion_latency;
    m.confirmation_latency = nodes_[0]->timings().confirmation_latency;

    const chain::ForkStats& f = chain.fork_stats();
    m.reorgs = f.reorgs;
    m.orphaned_blocks = f.side_chain_blocks + f.blocks_disconnected;
    m.max_reorg_depth = f.max_reorg_depth;
    m.stored_bytes = chain.storage().total();
    m.messages = net_->traffic().messages;
    m.message_bytes = net_->traffic().bytes;
    return m;
  }

  bool converged() const {
    const chain::BlockHash tip = nodes_[0]->chain().tip_hash();
    for (const auto& n : nodes_)
      if (!(n->chain().tip_hash() == tip)) return false;
    return true;
  }

  support::JsonObject metrics_json() {
    obs_.capture_sim(sim_);
    return obs_.metrics.to_json();
  }
  obs::Tracer& tracer() { return obs_.tracer; }

 private:
  Status submit_utxo_payment(std::size_t from, std::size_t to,
                             chain::Amount amount) {
    chain::ChainNode& node = *nodes_[0];
    const crypto::KeyPair& key = accounts_[from];
    const chain::Amount fee = 1000;

    std::vector<std::pair<chain::Outpoint, chain::TxOut>> selected;
    chain::Amount gathered = 0;
    node.chain().utxo_set().for_each_owned(
        key.account_id(),
        [&](const chain::Outpoint& op, const chain::TxOut& out) {
          if (reserved_.count(op)) return true;
          selected.emplace_back(op, out);
          gathered += out.value;
          return gathered < amount + fee;
        });
    if (gathered < amount + fee)
      return make_error("insufficient-funds", "wallet cannot cover amount+fee");

    chain::UtxoTransaction tx;
    for (const auto& [op, out] : selected)
      tx.inputs.push_back(chain::TxIn{op, key.public_key(), {}});
    tx.outputs.push_back(chain::TxOut{amount, accounts_[to].account_id()});
    if (gathered > amount + fee)
      tx.outputs.push_back(
          chain::TxOut{gathered - amount - fee, key.account_id()});
    tx.sign_all({key}, rng_);

    Status st = node.submit_transaction(tx);
    if (st.ok())
      for (const auto& [op, out] : selected) reserved_.insert(op);
    if (reserved_.size() > reserved_compact_at_) {
      for (auto it = reserved_.begin(); it != reserved_.end();) {
        it = node.chain().utxo_set().contains(*it) ? std::next(it)
                                                   : reserved_.erase(it);
      }
      reserved_compact_at_ = std::max<std::size_t>(8192, reserved_.size() * 2);
    }
    return st;
  }

  Status submit_account_payment(std::size_t from, std::size_t to,
                                chain::Amount amount) {
    chain::ChainNode& node = *nodes_[0];
    const crypto::KeyPair& key = accounts_[from];

    chain::AccountTransaction tx;
    tx.to = accounts_[to].account_id();
    tx.value = amount;
    tx.nonce = next_nonce_[from];
    if (config_.account_tx_data_mean > 0)
      tx.data_size = static_cast<std::uint32_t>(
          rng_.uniform(2 * config_.account_tx_data_mean + 1));
    tx.gas_limit = tx.intrinsic_gas();
    tx.gas_price = 1 + rng_.uniform(10);
    tx.sign(key, rng_);

    Status st = node.submit_transaction(tx);
    if (st.ok()) ++next_nonce_[from];
    return st;
  }

  ChainClusterConfig config_;
  Rng rng_;
  ClusterCrypto crypto_;
  ClusterObs obs_;
  sim::Simulation sim_;
  std::unique_ptr<net::Network> net_;
  std::vector<std::unique_ptr<chain::ChainNode>> nodes_;
  std::vector<crypto::KeyPair> accounts_;
  std::unordered_set<chain::Outpoint> reserved_;
  std::size_t reserved_compact_at_ = 8192;
  std::vector<std::uint64_t> next_nonce_;
  obs::Counter* submitted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
};

// ---------------------------------------------------------------------------
// LegacyLatticeCluster: the pre-engine LatticeCluster driver, same deal.
// ---------------------------------------------------------------------------
class LegacyLatticeCluster {
 public:
  explicit LegacyLatticeCluster(LatticeClusterConfig config)
      : config_(std::move(config)),
        rng_(config_.seed),
        crypto_(make_cluster_crypto(config_.crypto)),
        obs_(config_.obs),
        genesis_key_(crypto::KeyPair::from_seed(0x6e5)) {
    submitted_ = &obs_.metrics.counter("cluster.submitted");
    rejected_ = &obs_.metrics.counter("cluster.rejected");

    if (config_.supply == 0) {
      config_.supply = config_.initial_balance *
                       static_cast<lattice::Amount>(config_.account_count) *
                       5 / 4;
    }
    net_ = std::make_unique<net::Network>(sim_, rng_.fork());
    net_->set_probe(obs_.probe());

    accounts_ = make_workload_accounts(config_.account_count);

    for (std::size_t i = 0; i < config_.node_count; ++i) {
      lattice::LatticeNodeConfig nc;
      if (i < config_.roles.size()) nc.role = config_.roles[i];
      nc.solve_work = config_.params.verify_work;
      nc.sigcache = crypto_.sigcache;
      nc.probe = obs_.probe();
      nodes_.push_back(std::make_unique<lattice::LatticeNode>(
          *net_, config_.params, genesis_key_, config_.supply, nc,
          rng_.fork()));
    }

    nodes_[0]->add_account(genesis_key_);
    for (std::size_t i = 1; i < config_.node_count; ++i)
      nodes_[i]->add_account(crypto::KeyPair::from_seed(0x7000 + i));

    for (std::size_t i = 0; i < config_.account_count; ++i)
      owner_of(i).add_account(accounts_[i]);

    std::vector<net::NodeId> ids;
    for (const auto& n : nodes_) ids.push_back(n->id());
    build_topology(*net_, ids, config_.topology, config_.link,
                   config_.random_degree, rng_);

    for (auto& n : nodes_) n->start();
  }

  lattice::LatticeNode& owner_of(std::size_t account_index) {
    return *nodes_[account_index % nodes_.size()];
  }

  void fund_accounts() {
    for (std::size_t i = 0; i < config_.account_count; ++i) {
      auto sent = nodes_[0]->send(genesis_key_, accounts_[i].account_id(),
                                  config_.initial_balance);
      assert(sent);
      (void)sent;
    }
    run_for(30.0);

    const std::size_t reps = std::max<std::size_t>(
        1, std::min(config_.representative_count, nodes_.size() - 1));
    for (std::size_t i = 0; i < config_.account_count; ++i) {
      lattice::LatticeNode& owner = owner_of(i);
      const std::size_t rep_node = 1 + (i % reps);
      const crypto::KeyPair* rep = nodes_[rep_node]->representative_key();
      assert(rep);
      (void)owner.change_representative(accounts_[i], rep->account_id());
    }
    run_for(30.0);
  }

  Status submit_payment(std::size_t from, std::size_t to,
                        lattice::Amount amount) {
    lattice::LatticeNode& owner = owner_of(from);
    auto res =
        owner.send(accounts_[from], accounts_[to].account_id(), amount);
    if (res) {
      submitted_->inc();
      return Status::success();
    }
    rejected_->inc();
    return res.error();
  }

  void schedule_workload(const std::vector<PaymentEvent>& events) {
    for (const PaymentEvent& ev : events) {
      sim_.schedule_at(sim_.now() + ev.time, [this, ev] {
        (void)submit_payment(ev.from, ev.to, ev.amount);
      });
    }
  }

  void run_for(double seconds) { sim_.run_until(sim_.now() + seconds); }

  RunMetrics metrics() const {
    RunMetrics m;
    m.system = "nano-like";
    m.sim_duration = sim_.now();
    m.submitted = submitted_->value();
    m.rejected = rejected_->value();

    const lattice::Ledger& ledger = nodes_[0]->ledger();
    std::uint64_t sends = 0;
    for (std::size_t i = 0; i < config_.account_count; ++i) {
      const lattice::AccountInfo* info =
          ledger.account(accounts_[i].account_id());
      if (!info) continue;
      for (const lattice::LatticeBlock& b : info->chain)
        if (b.type == lattice::BlockType::kSend) ++sends;
    }
    if (const lattice::AccountInfo* g =
            ledger.account(genesis_key_.account_id())) {
      for (const lattice::LatticeBlock& b : g->chain)
        if (b.type == lattice::BlockType::kSend) ++sends;
    }
    m.included = sends;
    m.confirmed = nodes_[0]->confirmations().blocks_confirmed;
    m.pending_end = ledger.pending().size();

    m.confirmation_latency = nodes_[0]->confirmations().time_to_confirm;
    m.blocks_produced = ledger.block_count();
    m.stored_bytes = ledger.storage().total();
    m.messages = net_->traffic().messages;
    m.message_bytes = net_->traffic().bytes;
    return m;
  }

  bool converged() const {
    for (std::size_t i = 0; i < config_.account_count; ++i) {
      auto head0 = nodes_[0]->ledger().head_of(accounts_[i].account_id());
      for (std::size_t n = 1; n < nodes_.size(); ++n) {
        if (nodes_[n]->config().role == lattice::NodeRole::kLight) continue;
        if (nodes_[n]->ledger().head_of(accounts_[i].account_id()) != head0)
          return false;
      }
    }
    return true;
  }

  support::JsonObject metrics_json() {
    obs_.capture_sim(sim_);
    return obs_.metrics.to_json();
  }
  obs::Tracer& tracer() { return obs_.tracer; }

 private:
  LatticeClusterConfig config_;
  Rng rng_;
  ClusterCrypto crypto_;
  ClusterObs obs_;
  crypto::KeyPair genesis_key_;
  sim::Simulation sim_;
  std::unique_ptr<net::Network> net_;
  std::vector<std::unique_ptr<lattice::LatticeNode>> nodes_;
  std::vector<crypto::KeyPair> accounts_;
  obs::Counter* submitted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
};

// ---------------------------------------------------------------------------
// Chain parity: legacy driver vs engine facade, same seed, same workload.
// ---------------------------------------------------------------------------

ChainClusterConfig parity_chain_config() {
  ChainClusterConfig cfg;
  cfg.params = chain::bitcoin_like();
  cfg.params.verify_pow = false;
  cfg.params.initial_difficulty = 1e6;
  cfg.params.block_interval = 30.0;
  cfg.params.retarget_window = 0;
  cfg.node_count = 5;
  cfg.miner_count = 3;
  cfg.total_hashrate = 1e6 / 30.0;
  cfg.account_count = 10;
  cfg.link = net::LinkParams{0.05, 0.01, 1e7};
  cfg.seed = 1234;
  cfg.obs.trace_capacity = 1u << 20;
  return cfg;
}

TEST(ClusterEngineParity, ChainMatchesLegacyDriver) {
  ChainClusterConfig cfg = parity_chain_config();
  // The legacy driver predates lifecycle tracking; keep the comparison
  // apples-to-apples (latency.* metrics + lifecycle trace events off).
  cfg.obs.track_latency = false;
  Rng wl_a(7), wl_b(7);
  WorkloadConfig wl;
  wl.account_count = cfg.account_count;
  wl.tx_rate = 0.5;
  wl.duration = 400.0;

  LegacyChainCluster legacy(cfg);
  legacy.start();
  legacy.schedule_workload(generate_payments(wl, wl_a));
  legacy.run_for(600.0);

  ChainCluster engine(cfg);
  engine.start();
  engine.schedule_workload(generate_payments(wl, wl_b));
  engine.run_for(600.0);

  // The whole refactor hinges on these three lines.
  EXPECT_EQ(legacy.tracer().to_jsonl(), engine.tracer().to_jsonl());
  EXPECT_EQ(strip_profile(legacy.metrics_json().to_string()),
            strip_profile(engine.metrics_json().to_string()));
  expect_metrics_equal(legacy.metrics(), engine.metrics());
  EXPECT_EQ(legacy.converged(), engine.converged());
  EXPECT_GT(legacy.metrics().included, 0u);  // the run did something
  EXPECT_GT(legacy.tracer().recorded(), 0u);
}

TEST(ClusterEngineParity, ChainAccountModelMatchesLegacyDriver) {
  ChainClusterConfig cfg;
  cfg.params = chain::ethereum_like();
  cfg.params.verify_pow = false;
  cfg.params.initial_difficulty = 1e5;
  cfg.params.retarget_window = 0;
  cfg.node_count = 4;
  cfg.miner_count = 2;
  cfg.total_hashrate = 1e5 / cfg.params.block_interval;
  cfg.account_count = 8;
  cfg.account_tx_data_mean = 512;  // exercises the rng-drawn calldata path
  cfg.link = net::LinkParams{0.05, 0.01, 1e7};
  cfg.seed = 99;
  cfg.obs.trace_capacity = 1u << 20;
  cfg.obs.track_latency = false;  // legacy driver has no lifecycle tracker

  Rng wl_a(3), wl_b(3);
  WorkloadConfig wl;
  wl.account_count = cfg.account_count;
  wl.tx_rate = 1.0;
  wl.duration = 120.0;

  LegacyChainCluster legacy(cfg);
  legacy.start();
  legacy.schedule_workload(generate_payments(wl, wl_a));
  legacy.run_for(240.0);

  ChainCluster engine(cfg);
  engine.start();
  engine.schedule_workload(generate_payments(wl, wl_b));
  engine.run_for(240.0);

  EXPECT_EQ(legacy.tracer().to_jsonl(), engine.tracer().to_jsonl());
  EXPECT_EQ(strip_profile(legacy.metrics_json().to_string()),
            strip_profile(engine.metrics_json().to_string()));
  expect_metrics_equal(legacy.metrics(), engine.metrics());
  EXPECT_GT(legacy.metrics().included, 0u);
}

// ---------------------------------------------------------------------------
// Lattice parity: includes the fund_accounts() choreography (genesis
// shower + delegation), which is the RNG-heaviest part of lattice setup.
// ---------------------------------------------------------------------------

TEST(ClusterEngineParity, LatticeMatchesLegacyDriver) {
  LatticeClusterConfig cfg;
  cfg.node_count = 4;
  cfg.representative_count = 3;
  cfg.account_count = 8;
  cfg.link = net::LinkParams{0.05, 0.01, 1e7};
  cfg.seed = 2024;
  cfg.obs.trace_capacity = 1u << 20;
  cfg.obs.track_latency = false;  // legacy driver has no lifecycle tracker

  Rng wl_a(11), wl_b(11);
  WorkloadConfig wl;
  wl.account_count = cfg.account_count;
  wl.tx_rate = 2.0;
  wl.duration = 60.0;

  LegacyLatticeCluster legacy(cfg);
  legacy.fund_accounts();
  legacy.schedule_workload(generate_payments(wl, wl_a));
  legacy.run_for(120.0);

  LatticeCluster engine(cfg);
  engine.fund_accounts();
  engine.schedule_workload(generate_payments(wl, wl_b));
  engine.run_for(120.0);

  EXPECT_EQ(legacy.tracer().to_jsonl(), engine.tracer().to_jsonl());
  EXPECT_EQ(strip_profile(legacy.metrics_json().to_string()),
            strip_profile(engine.metrics_json().to_string()));
  expect_metrics_equal(legacy.metrics(), engine.metrics());
  EXPECT_EQ(legacy.converged(), engine.converged());
  EXPECT_GT(legacy.metrics().included, 0u);
  EXPECT_GT(legacy.tracer().recorded(), 0u);
}

// ---------------------------------------------------------------------------
// Tangle rerun invariance: the third ledger has no legacy driver, so its
// determinism pin is two runs of the same seed — the same invariance
// tools/determinism_gate.sh checks on the bench binary.
// ---------------------------------------------------------------------------

TangleClusterConfig parity_tangle_config() {
  TangleClusterConfig cfg;
  cfg.node_count = 4;
  cfg.account_count = 12;
  cfg.params.work_bits = 2;
  cfg.params.alpha = 0.05;
  cfg.link = net::LinkParams{0.04, 0.01, 1e7};
  cfg.seed = 7;
  cfg.obs.trace_capacity = 1u << 20;
  return cfg;
}

struct TangleRunResult {
  std::string trace;
  RunMetrics metrics;
  bool converged = false;
};

TangleRunResult run_tangle() {
  TangleCluster cluster(parity_tangle_config());
  cluster.start();
  Rng wl_rng(4);
  WorkloadConfig wl;
  wl.account_count = 12;
  wl.tx_rate = 4.0;
  wl.duration = 15.0;
  wl.max_amount = 50;
  cluster.schedule_workload(generate_payments(wl, wl_rng));
  cluster.run_for(30.0);
  TangleRunResult out;
  out.trace = cluster.tracer().to_jsonl();
  out.metrics = cluster.metrics();
  out.converged = cluster.converged();
  return out;
}

TEST(ClusterEngineParity, TangleIdenticalOnRerun) {
  const TangleRunResult first = run_tangle();
  const TangleRunResult second = run_tangle();

  ASSERT_FALSE(first.trace.empty());
  EXPECT_GT(first.metrics.included, 0u);
  EXPECT_TRUE(first.converged);
  EXPECT_TRUE(second.converged);

  EXPECT_EQ(first.trace, second.trace);
  expect_metrics_equal(first.metrics, second.metrics);
}

// ---------------------------------------------------------------------------
// Lifecycle-latency determinism (ISSUE 7 tentpole acceptance): the
// latency.* registry section — reservoir-sampled percentiles included —
// must be byte-identical across two runs of the same seed, for all three
// ledgers.
// ---------------------------------------------------------------------------

/// Extracts every "latency.*" member (histograms and the in-flight gauge)
/// from the name-ordered registry export, one per line.
std::string latency_json(const obs::MetricsRegistry& reg) {
  const std::string json = reg.to_json().to_string();
  static const std::regex kLatency(
      "\"latency\\.[^\"]*\":(\\{[^{}]*\\}|[^,}]*)");
  std::string out;
  for (std::sregex_iterator it(json.begin(), json.end(), kLatency), end;
       it != end; ++it)
    out += it->str() + "\n";
  return out;
}

TEST(LifecycleLatency, ChainDeterministicOnRerun) {
  std::string reference_latency, reference_trace;
  for (int run = 0; run < 2; ++run) {
    ChainClusterConfig cfg = parity_chain_config();
    // Small percentile reservoir so the capped sampling path itself is
    // under the determinism pin, not just exact accumulation.
    cfg.obs.latency_sample_cap = 32;
    ChainCluster cluster(cfg);
    cluster.start();
    Rng wl_rng(7);
    WorkloadConfig wl;
    wl.account_count = cfg.account_count;
    wl.tx_rate = 0.5;
    wl.duration = 400.0;
    cluster.schedule_workload(generate_payments(wl, wl_rng));
    cluster.run_for(600.0);

    const std::string latency =
        latency_json(cluster.metrics_registry());
    const std::string trace = cluster.tracer().to_jsonl();
    EXPECT_GT(cluster.lifecycle().confirmed(), 0u);
    if (reference_latency.empty()) {
      reference_latency = latency;
      reference_trace = trace;
      EXPECT_NE(latency.find("latency.submit_to_confirm"),
                std::string::npos);
    } else {
      EXPECT_EQ(latency, reference_latency);
      EXPECT_EQ(trace, reference_trace);
    }
  }
}

TEST(LifecycleLatency, LatticeDeterministicOnRerun) {
  std::string reference_latency, reference_trace;
  for (int run = 0; run < 2; ++run) {
    LatticeClusterConfig cfg;
    cfg.node_count = 4;
    cfg.representative_count = 3;
    cfg.account_count = 8;
    cfg.link = net::LinkParams{0.05, 0.01, 1e7};
    cfg.seed = 2024;
    cfg.obs.trace_capacity = 1u << 20;
    cfg.obs.latency_sample_cap = 32;
    LatticeCluster cluster(cfg);
    cluster.fund_accounts();
    Rng wl_rng(11);
    WorkloadConfig wl;
    wl.account_count = cfg.account_count;
    wl.tx_rate = 2.0;
    wl.duration = 60.0;
    cluster.schedule_workload(generate_payments(wl, wl_rng));
    cluster.run_for(120.0);

    const std::string latency =
        latency_json(cluster.metrics_registry());
    const std::string trace = cluster.tracer().to_jsonl();
    EXPECT_GT(cluster.lifecycle().confirmed(), 0u);
    if (reference_latency.empty()) {
      reference_latency = latency;
      reference_trace = trace;
    } else {
      EXPECT_EQ(latency, reference_latency);
      EXPECT_EQ(trace, reference_trace);
    }
  }
}

TEST(LifecycleLatency, TangleDeterministicOnRerun) {
  std::string reference_latency, reference_trace;
  for (int run = 0; run < 2; ++run) {
    TangleClusterConfig cfg = parity_tangle_config();
    cfg.obs.latency_sample_cap = 32;
    TangleCluster cluster(cfg);
    cluster.start();
    Rng wl_rng(4);
    WorkloadConfig wl;
    wl.account_count = cfg.account_count;
    wl.tx_rate = 4.0;
    wl.duration = 15.0;
    wl.max_amount = 50;
    cluster.schedule_workload(generate_payments(wl, wl_rng));
    cluster.run_for(30.0);

    const std::string latency =
        latency_json(cluster.metrics_registry());
    const std::string trace = cluster.tracer().to_jsonl();
    EXPECT_GT(cluster.lifecycle().confirmed(), 0u);
    if (reference_latency.empty()) {
      reference_latency = latency;
      reference_trace = trace;
    } else {
      EXPECT_EQ(latency, reference_latency);
      EXPECT_EQ(trace, reference_trace);
    }
  }
}

// ---------------------------------------------------------------------------
// Per-node metric namespacing (ObsConfig::per_node_metrics).
// ---------------------------------------------------------------------------

TEST(ClusterEngine, PerNodeMetricNamespacing) {
  ChainClusterConfig cfg = parity_chain_config();
  cfg.obs.trace_capacity = 0;

  ChainCluster aggregated(cfg);
  aggregated.start();
  aggregated.run_for(600.0);

  cfg.obs.per_node_metrics = true;
  ChainCluster namespaced(cfg);
  namespaced.start();
  namespaced.run_for(600.0);

  // Namespacing is observability-only: the simulation itself is untouched.
  expect_metrics_equal(aggregated.metrics(), namespaced.metrics());

  // Node counters moved under "node.<i>."; the aggregate name is gone.
  EXPECT_EQ(namespaced.metrics_registry().find_counter("chain.blocks_mined"),
            nullptr);
  const obs::Counter* agg =
      aggregated.metrics_registry().find_counter("chain.blocks_mined");
  ASSERT_NE(agg, nullptr);
  std::uint64_t per_node_sum = 0;
  for (std::size_t i = 0; i < cfg.node_count; ++i) {
    const obs::Counter* c = namespaced.metrics_registry().find_counter(
        "node." + std::to_string(i) + ".chain.blocks_mined");
    ASSERT_NE(c, nullptr) << "missing per-node counter for node " << i;
    per_node_sum += c->value();
  }
  EXPECT_EQ(per_node_sum, agg->value());

  // Network metrics stay unprefixed — they belong to no single node.
  EXPECT_NE(namespaced.metrics_registry().find_counter("net.messages"),
            nullptr);
}

}  // namespace
}  // namespace dlt::core
