// Differential harness for the pluggable storage layer (ISSUE 9).
//
// The storage determinism contract (DESIGN.md): in-RAM structures stay
// authoritative in both modes, writes go through at the same commit
// points, and every byte-accounting figure is mode-independent
// arithmetic. Hence flipping StorageConfig::mode between memory and disk
// must leave traces byte-identical, RunMetrics equal, and every
// non-wall-clock registry metric — including the storage.* gauges
// themselves — byte-identical per seed, for all three ledger families.
//
// The recovery half kills the writer mid-append (chops bytes off the last
// log segment, i.e. a torn frame), reopens, and asserts the replayed
// ledger converges to the same tips/heads/state as a clean run of the
// surviving prefix — plus reopen idempotence (replaying twice is a no-op).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "chain_test_util.hpp"
#include "core/chain_cluster.hpp"
#include "core/lattice_cluster.hpp"
#include "core/tangle_cluster.hpp"
#include "core/workload.hpp"
#include "lattice_test_util.hpp"
#include "storage/ledger_store.hpp"

namespace dlt {
namespace {

/// Fresh scratch directory per test, removed on destruction.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("dlt_storage_eq_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

storage::StorageConfig disk_config(const ScratchDir& scratch) {
  storage::StorageConfig cfg;
  cfg.mode = storage::StorageMode::kDisk;
  cfg.path = scratch.str();
  return cfg;
}

/// Chops `n` bytes off the end of the newest log segment in `dir` —
/// simulating a writer killed mid-append (torn final frame).
void chop_last_segment(const std::string& dir, std::uint64_t n) {
  std::filesystem::path last;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 5 && name.substr(name.size() - 5) == ".dlog" &&
        (last.empty() || entry.path().filename() > last.filename()))
      last = entry.path();
  }
  ASSERT_FALSE(last.empty()) << "no log segment in " << dir;
  const std::uint64_t size = std::filesystem::file_size(last);
  ASSERT_GT(size, n);
  std::filesystem::resize_file(last, size - n);
}

void expect_run_metrics_eq(const core::RunMetrics& a,
                           const core::RunMetrics& b) {
  EXPECT_EQ(a.system, b.system);
  EXPECT_DOUBLE_EQ(a.sim_duration, b.sim_duration);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.included, b.included);
  EXPECT_EQ(a.confirmed, b.confirmed);
  EXPECT_EQ(a.pending_end, b.pending_end);
  EXPECT_EQ(a.reorgs, b.reorgs);
  EXPECT_EQ(a.orphaned_blocks, b.orphaned_blocks);
  EXPECT_EQ(a.max_reorg_depth, b.max_reorg_depth);
  EXPECT_EQ(a.blocks_produced, b.blocks_produced);
  EXPECT_EQ(a.stored_bytes, b.stored_bytes);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.message_bytes, b.message_bytes);
  EXPECT_EQ(a.inclusion_latency.count(), b.inclusion_latency.count());
  EXPECT_EQ(a.confirmation_latency.count(), b.confirmation_latency.count());
}

// ----------------------------------------------- registry JSON filtering

bool volatile_metric(const std::string& key) {
  return key.find("profile.") != std::string::npos ||
         key.find("_us") != std::string::npos;
}

/// Linear-scan filter over the registry export: drops wall-clock
/// members, keeps everything else — including the storage.* gauges, which
/// the determinism contract requires to be numerically identical across
/// modes (byte accounting is pure arithmetic, never file-system feedback).
std::string filter_registry_json(const std::string& obj) {
  std::string out = "{";
  bool first = true;
  std::size_t i = 1;
  while (i + 1 < obj.size()) {
    if (obj[i] == ',') {
      ++i;
      continue;
    }
    const std::size_t key_end = obj.find('"', i + 1);
    const std::string key = obj.substr(i + 1, key_end - i - 1);
    i = key_end + 2;
    const std::size_t value_start = i;
    if (obj[i] == '{') {
      int depth = 0;
      do {
        if (obj[i] == '{') ++depth;
        if (obj[i] == '}') --depth;
        ++i;
      } while (depth > 0);
    } else {
      while (i + 1 < obj.size() && obj[i] != ',') ++i;
    }
    std::string value = obj.substr(value_start, i - value_start);
    if (volatile_metric(key)) continue;
    if (!value.empty() && value[0] == '{') value = filter_registry_json(value);
    if (!first) out += ',';
    first = false;
    out += '"';
    out += key;
    out += "\":";
    out += value;
  }
  out += '}';
  return out;
}

// ------------------------------------------- cluster differential: chain

struct ChainOutcome {
  std::string trace;
  core::RunMetrics metrics;
  chain::BlockHash tip;
  bool converged = false;
  std::string registry_json;
};

core::ChainClusterConfig chain_base_config(chain::ChainParams params) {
  core::ChainClusterConfig cfg;
  cfg.params = std::move(params);
  cfg.params.verify_pow = false;
  cfg.params.initial_difficulty = 1e6;
  cfg.params.block_interval = 5.0;
  cfg.params.retarget_window = 0;
  cfg.node_count = 4;
  cfg.miner_count = 3;
  cfg.total_hashrate = 1e6 / 5.0;
  cfg.account_count = 8;
  cfg.link = net::LinkParams{1.0, 0.3, 1e7};
  cfg.seed = 11;
  cfg.obs.trace_capacity = 1u << 16;
  return cfg;
}

ChainOutcome run_chain(core::ChainClusterConfig cfg) {
  core::ChainCluster cluster(cfg);
  cluster.start();
  Rng wl_rng(7);
  core::WorkloadConfig wl;
  wl.account_count = cfg.account_count;
  wl.tx_rate = 0.5;
  wl.duration = 300.0;
  cluster.schedule_workload(core::generate_payments(wl, wl_rng));
  cluster.run_for(400.0);

  ChainOutcome out;
  out.trace = cluster.tracer().to_jsonl();
  out.metrics = cluster.metrics();
  out.tip = cluster.node(0).chain().tip_hash();
  out.converged = cluster.converged();
  out.registry_json =
      filter_registry_json(cluster.metrics_registry().to_json().to_string());
  return out;
}

void expect_chain_modes_equal(chain::ChainParams params, const char* tag) {
  const ChainOutcome mem = run_chain(chain_base_config(params));
  EXPECT_TRUE(mem.converged);
  EXPECT_GT(mem.metrics.included, 0u);
  // The memory run's registry must already carry the storage gauges.
  EXPECT_NE(mem.registry_json.find("storage.log_bytes"), std::string::npos);

  ScratchDir scratch(tag);
  core::ChainClusterConfig cfg = chain_base_config(params);
  cfg.storage = disk_config(scratch);
  const ChainOutcome disk = run_chain(cfg);

  EXPECT_EQ(disk.trace, mem.trace);
  expect_run_metrics_eq(disk.metrics, mem.metrics);
  EXPECT_EQ(disk.tip, mem.tip);
  EXPECT_TRUE(disk.converged);
  EXPECT_EQ(disk.registry_json, mem.registry_json);
  // The disk run wrote real files.
  EXPECT_FALSE(std::filesystem::is_empty(scratch.path));
}

TEST(StorageEquivalence, ChainUtxoClusterDiskMatchesMemory) {
  expect_chain_modes_equal(chain::bitcoin_like(), "chain_utxo");
}

TEST(StorageEquivalence, ChainAccountClusterDiskMatchesMemory) {
  expect_chain_modes_equal(chain::ethereum_like(), "chain_account");
}

// ----------------------------------------- cluster differential: lattice

struct LatticeOutcome {
  std::string trace;
  core::RunMetrics metrics;
  bool converged = false;
  std::vector<lattice::Amount> balances;
  std::string registry_json;
};

LatticeOutcome run_lattice(const storage::StorageConfig& storage) {
  core::LatticeClusterConfig cfg;
  cfg.node_count = 3;
  cfg.representative_count = 2;
  cfg.account_count = 6;
  cfg.params.work_bits = 2;
  cfg.seed = 99;
  cfg.obs.trace_capacity = 1u << 16;
  cfg.storage = storage;
  core::LatticeCluster cluster(cfg);
  cluster.fund_accounts();
  Rng wl_rng(42);
  core::WorkloadConfig wl;
  wl.account_count = 6;
  wl.tx_rate = 1.0;
  wl.duration = 30.0;
  wl.max_amount = 1000;
  cluster.schedule_workload(core::generate_payments(wl, wl_rng));
  cluster.run_for(60.0);

  LatticeOutcome out;
  out.trace = cluster.tracer().to_jsonl();
  out.metrics = cluster.metrics();
  out.converged = cluster.converged();
  const lattice::Ledger& ledger = cluster.node(0).ledger();
  for (std::size_t i = 0; i < cfg.account_count; ++i)
    out.balances.push_back(ledger.balance_of(cluster.account(i).account_id()));
  out.registry_json =
      filter_registry_json(cluster.metrics_registry().to_json().to_string());
  return out;
}

TEST(StorageEquivalence, LatticeClusterDiskMatchesMemory) {
  const LatticeOutcome mem = run_lattice({});
  EXPECT_TRUE(mem.converged);
  EXPECT_GT(mem.metrics.included, 0u);

  ScratchDir scratch("lattice");
  const LatticeOutcome disk = run_lattice(disk_config(scratch));
  EXPECT_EQ(disk.trace, mem.trace);
  expect_run_metrics_eq(disk.metrics, mem.metrics);
  EXPECT_TRUE(disk.converged);
  EXPECT_EQ(disk.balances, mem.balances);
  EXPECT_EQ(disk.registry_json, mem.registry_json);
  EXPECT_FALSE(std::filesystem::is_empty(scratch.path));
}

// ------------------------------------------ cluster differential: tangle

struct TangleOutcome {
  std::string trace;
  core::RunMetrics metrics;
  bool converged = false;
  std::size_t size = 0;
  std::vector<tangle::TxHash> tips;
  std::string registry_json;
};

TangleOutcome run_tangle(const storage::StorageConfig& storage) {
  core::TangleClusterConfig cfg;
  cfg.node_count = 4;
  cfg.account_count = 8;
  cfg.params.work_bits = 2;
  cfg.seed = 5;
  cfg.obs.trace_capacity = 1u << 16;
  cfg.storage = storage;
  core::TangleCluster cluster(cfg);
  cluster.start();
  Rng wl_rng(3);
  core::WorkloadConfig wl;
  wl.account_count = 8;
  wl.tx_rate = 2.0;
  wl.duration = 15.0;
  wl.max_amount = 100;
  cluster.schedule_workload(core::generate_payments(wl, wl_rng));
  cluster.run_for(40.0);

  TangleOutcome out;
  out.trace = cluster.tracer().to_jsonl();
  out.metrics = cluster.metrics();
  out.converged = cluster.converged();
  out.size = cluster.node(0).tangle().size();
  out.tips = cluster.node(0).tangle().tips();
  out.registry_json =
      filter_registry_json(cluster.metrics_registry().to_json().to_string());
  return out;
}

TEST(StorageEquivalence, TangleClusterDiskMatchesMemory) {
  const TangleOutcome mem = run_tangle({});
  EXPECT_TRUE(mem.converged);
  EXPECT_GT(mem.size, 1u);

  ScratchDir scratch("tangle");
  const TangleOutcome disk = run_tangle(disk_config(scratch));
  EXPECT_EQ(disk.trace, mem.trace);
  expect_run_metrics_eq(disk.metrics, mem.metrics);
  EXPECT_TRUE(disk.converged);
  EXPECT_EQ(disk.size, mem.size);
  EXPECT_EQ(disk.tips, mem.tips);
  EXPECT_EQ(disk.registry_json, mem.registry_json);
  EXPECT_FALSE(std::filesystem::is_empty(scratch.path));
}

// ----------------------------------------------- crash recovery: chain

TEST(StorageRecovery, ChainReopenIdempotentAndTornTailConverges) {
  const auto keys = chain::testutil::make_keys(2);
  const chain::GenesisSpec genesis = chain::testutil::fund_all(keys, 1'000'000);
  const crypto::AccountId miner = keys[0].account_id();
  const chain::ChainParams params = chain::testutil::cheap_pow_utxo();

  ScratchDir scratch("chain_crash");
  const storage::StorageConfig scfg = disk_config(scratch);

  std::vector<chain::BlockHash> tips;  // tip after each block
  std::string dir;
  {
    chain::Blockchain chain(params, genesis);
    auto store = std::make_shared<storage::LedgerStore>(scfg, "chain");
    chain.attach_store(store);
    dir = store->dir();
    for (std::uint64_t h = 1; h <= 3; ++h) {
      const chain::Block b = chain::testutil::seal_block(
          chain, chain.tip_hash(),
          chain::UtxoTxList{chain::UtxoTransaction::coinbase(
              miner, params.block_reward, h)},
          miner);
      ASSERT_TRUE(chain.submit(b));
      tips.push_back(chain.tip_hash());
    }
  }  // writer exits cleanly: segments flushed and closed

  // Clean reopen: replay reconstructs the full chain; replaying again is
  // a no-op (reopen idempotence).
  {
    chain::Blockchain chain(params, genesis);
    auto store =
        std::make_shared<storage::LedgerStore>(scfg, "chain", false);
    EXPECT_EQ(store->log().truncated_tail_bytes(), 0u);
    chain.attach_store(store);
    EXPECT_EQ(chain.replay_from_store(), 3u);
    EXPECT_EQ(chain.tip_hash(), tips[2]);
    EXPECT_EQ(chain.replay_from_store(), 0u);
    EXPECT_EQ(chain.tip_hash(), tips[2]);
  }

  // Kill the writer mid-append: chop into the last frame (block 3's body
  // record). Recovery drops the torn record; the replayed chain converges
  // to the clean prefix — tip at height 2.
  chop_last_segment(dir, 8);
  {
    chain::Blockchain chain(params, genesis);
    auto store =
        std::make_shared<storage::LedgerStore>(scfg, "chain", false);
    EXPECT_GT(store->log().truncated_tail_bytes(), 0u);
    chain.attach_store(store);
    EXPECT_EQ(chain.replay_from_store(), 2u);
    EXPECT_EQ(chain.tip_hash(), tips[1]);
    EXPECT_EQ(chain.height(), 2u);
  }
}

// ---------------------------------------------- crash recovery: lattice

TEST(StorageRecovery, LatticeReopenIdempotentAndTornTailConverges) {
  const lattice::LatticeParams params = lattice::testutil::cheap_params();
  const crypto::KeyPair genesis_key = crypto::KeyPair::from_seed(1);
  const crypto::KeyPair alice = crypto::KeyPair::from_seed(0x500);
  constexpr lattice::Amount kSupply = 1'000'000;

  ScratchDir scratch("lattice_crash");
  const storage::StorageConfig scfg = disk_config(scratch);

  std::vector<lattice::LatticeBlock> blocks;
  lattice::BlockHash full_head, prefix_head;
  std::string dir;
  {
    lattice::Ledger ledger(params, genesis_key.account_id(),
                           genesis_key.account_id(), kSupply);
    auto store = std::make_shared<storage::LedgerStore>(scfg, "lat");
    ledger.attach_store(store);
    dir = store->dir();
    Rng rng(9);
    lattice::testutil::Builder build{ledger, rng, params.work_bits};
    blocks.push_back(build.send(genesis_key, alice.account_id(), 10'000));
    ASSERT_TRUE(ledger.process(blocks.back()).ok());
    blocks.push_back(build.open(alice, blocks[0].hash(), 10'000,
                                genesis_key.account_id()));
    ASSERT_TRUE(ledger.process(blocks.back()).ok());
    blocks.push_back(build.send(
        alice, crypto::KeyPair::from_seed(0x501).account_id(), 11));
    ASSERT_TRUE(ledger.process(blocks.back()).ok());
    prefix_head = ledger.head_of(alice.account_id()).value();
    blocks.push_back(build.send(
        alice, crypto::KeyPair::from_seed(0x502).account_id(), 12));
    ASSERT_TRUE(ledger.process(blocks.back()).ok());
    full_head = ledger.head_of(alice.account_id()).value();
  }

  {
    lattice::Ledger ledger(params, genesis_key.account_id(),
                           genesis_key.account_id(), kSupply);
    auto store = std::make_shared<storage::LedgerStore>(scfg, "lat", false);
    ledger.attach_store(store);
    EXPECT_EQ(ledger.replay_from_store(), 4u);
    EXPECT_EQ(ledger.head_of(alice.account_id()), full_head);
    EXPECT_TRUE(ledger.conserves_value());
    EXPECT_EQ(ledger.replay_from_store(), 0u);
  }

  // Torn final kBlock frame: replay converges to the surviving prefix.
  chop_last_segment(dir, 8);
  {
    lattice::Ledger ledger(params, genesis_key.account_id(),
                           genesis_key.account_id(), kSupply);
    auto store = std::make_shared<storage::LedgerStore>(scfg, "lat", false);
    EXPECT_GT(store->log().truncated_tail_bytes(), 0u);
    ledger.attach_store(store);
    EXPECT_EQ(ledger.replay_from_store(), 3u);
    EXPECT_EQ(ledger.head_of(alice.account_id()), prefix_head);
    EXPECT_TRUE(ledger.conserves_value());
  }
}

// ----------------------------------------------- crash recovery: tangle

TEST(StorageRecovery, TangleReopenIdempotentAndTornTailConverges) {
  tangle::TangleParams params;
  params.work_bits = 2;
  const crypto::KeyPair issuer = crypto::KeyPair::from_seed(2);

  ScratchDir scratch("tangle_crash");
  const storage::StorageConfig scfg = disk_config(scratch);

  std::vector<tangle::TangleTx> txs;
  std::vector<tangle::TxHash> full_tips, prefix_tips;
  std::string dir;
  {
    tangle::Tangle ref(params);
    auto store = std::make_shared<storage::LedgerStore>(scfg, "tgl");
    ref.attach_store(store);
    dir = store->dir();
    Rng rng(4);
    for (int i = 0; i < 5; ++i) {
      const tangle::TxHash trunk = ref.select_tip(rng);
      const tangle::TxHash branch = ref.select_tip(rng);
      tangle::TangleTx tx = tangle::make_tx(
          ref, issuer, trunk, branch,
          crypto::Sha256::digest(as_bytes("rec-" + std::to_string(i))),
          static_cast<double>(i), rng);
      ASSERT_TRUE(ref.attach(tx).ok());
      txs.push_back(tx);
      if (i == 3) prefix_tips = ref.tips();
    }
    full_tips = ref.tips();
  }

  {
    tangle::Tangle got(params);
    auto store = std::make_shared<storage::LedgerStore>(scfg, "tgl", false);
    got.attach_store(store);
    EXPECT_EQ(got.replay_from_store(), 5u);
    EXPECT_EQ(got.size(), 6u);  // genesis + 5
    EXPECT_EQ(got.tips(), full_tips);
    EXPECT_EQ(got.replay_from_store(), 0u);
  }

  // Torn final kSite frame: the last transaction is dropped; the replica
  // converges to the 4-transaction prefix, tip set included.
  chop_last_segment(dir, 8);
  {
    tangle::Tangle got(params);
    auto store = std::make_shared<storage::LedgerStore>(scfg, "tgl", false);
    EXPECT_GT(store->log().truncated_tail_bytes(), 0u);
    got.attach_store(store);
    EXPECT_EQ(got.replay_from_store(), 4u);
    EXPECT_EQ(got.size(), 5u);
    EXPECT_EQ(got.tips(), prefix_tips);
  }
}

// ------------------------------------- pruning as log-catalog operations
// Memory mode suffices here: the equivalence tests above prove the
// accounting is mode-independent, so byte movements are identical on disk.

TEST(StoragePruning, ChainBodyPruneShrinksLogKeepsTip) {
  const auto keys = chain::testutil::make_keys(1);
  const chain::GenesisSpec genesis = chain::testutil::fund_all(keys, 1'000'000);
  const crypto::AccountId miner = keys[0].account_id();
  const chain::ChainParams params = chain::testutil::cheap_pow_utxo();

  chain::Blockchain chain(params, genesis);
  auto store = std::make_shared<storage::LedgerStore>(
      storage::StorageConfig{}, "prune-chain");
  chain.attach_store(store);
  for (std::uint64_t h = 1; h <= 6; ++h) {
    const chain::Block b = chain::testutil::seal_block(
        chain, chain.tip_hash(),
        chain::UtxoTxList{
            chain::UtxoTransaction::coinbase(miner, params.block_reward, h)},
        miner);
    ASSERT_TRUE(chain.submit(b));
  }
  const chain::BlockHash tip = chain.tip_hash();
  const std::uint64_t before = store->log_bytes();

  EXPECT_GT(chain.prune_bodies(2), 0u);
  EXPECT_LT(store->log_bytes(), before);
  EXPECT_GT(store->pruned_bytes(), 0u);
  EXPECT_EQ(chain.tip_hash(), tip);
  // Headers survive body pruning: header-only history remains readable.
  EXPECT_TRUE(store->log().contains(storage::RecordType::kHeader, tip));
}

TEST(StoragePruning, ChainStatePruneShrinksLogKeepsState) {
  const auto keys = chain::testutil::make_keys(2);
  const chain::GenesisSpec genesis = chain::testutil::fund_all(keys, 1'000'000);
  const crypto::AccountId proposer = keys[0].account_id();
  const chain::ChainParams params = chain::testutil::cheap_pow_account();
  Rng rng(6);

  chain::Blockchain chain(params, genesis);
  auto store = std::make_shared<storage::LedgerStore>(
      storage::StorageConfig{}, "prune-acct");
  chain.attach_store(store);
  for (std::uint64_t nonce = 0; nonce < 6; ++nonce) {
    chain::AccountTransaction tx;
    tx.to = keys[1].account_id();
    tx.value = 100;
    tx.nonce = nonce;
    tx.gas_limit = tx.intrinsic_gas();
    tx.gas_price = 1;
    tx.sign(keys[0], rng);
    const chain::Block b = chain::testutil::seal_account_tip(
        chain, chain::AccountTxList{std::move(tx)}, proposer);
    ASSERT_TRUE(chain.submit(b));
  }
  const chain::BlockHash tip = chain.tip_hash();
  const auto balance = chain.world_state().balance_of(keys[1].account_id());
  const std::uint64_t before = store->log_bytes();

  EXPECT_GT(chain.prune_states(2), 0u);
  EXPECT_LT(store->log_bytes(), before);
  EXPECT_GT(store->pruned_bytes(), 0u);
  EXPECT_EQ(chain.tip_hash(), tip);
  EXPECT_EQ(chain.world_state().balance_of(keys[1].account_id()), balance);
}

TEST(StoragePruning, LatticeHeadOnlyPruneShrinksLogKeepsHeads) {
  const lattice::LatticeParams params = lattice::testutil::cheap_params();
  const crypto::KeyPair genesis_key = crypto::KeyPair::from_seed(1);
  const crypto::KeyPair alice = crypto::KeyPair::from_seed(0x600);
  constexpr lattice::Amount kSupply = 1'000'000;

  lattice::Ledger ledger(params, genesis_key.account_id(),
                         genesis_key.account_id(), kSupply);
  auto store = std::make_shared<storage::LedgerStore>(
      storage::StorageConfig{}, "prune-lat");
  ledger.attach_store(store);
  Rng rng(9);
  lattice::testutil::Builder build{ledger, rng, params.work_bits};
  const lattice::LatticeBlock fund =
      build.send(genesis_key, alice.account_id(), 10'000);
  ASSERT_TRUE(ledger.process(fund).ok());
  ASSERT_TRUE(
      ledger
          .process(build.open(alice, fund.hash(), 10'000,
                              genesis_key.account_id()))
          .ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ledger
                    .process(build.send(
                        alice,
                        crypto::KeyPair::from_seed(0x610 + i).account_id(),
                        10 + i))
                    .ok());
  }
  const lattice::BlockHash head = ledger.head_of(alice.account_id()).value();
  // Only cemented history may be pruned (§IV-B irreversibility).
  ASSERT_TRUE(ledger.cement(head).ok());
  const std::uint64_t before = store->log_bytes();

  EXPECT_GT(ledger.prune_history(), 0u);
  EXPECT_LT(store->log_bytes(), before);
  EXPECT_GT(store->pruned_bytes(), 0u);
  EXPECT_EQ(ledger.head_of(alice.account_id()), head);
  // The head block's record survives (the §V-B "current" node keeps it).
  EXPECT_TRUE(store->log().contains(storage::RecordType::kBlock, head));
}

TEST(StoragePruning, TangleHeadOnlyPruneShrinksLogKeepsTips) {
  tangle::TangleParams params;
  params.work_bits = 2;
  const crypto::KeyPair issuer = crypto::KeyPair::from_seed(3);

  tangle::Tangle tangle(params);
  auto store = std::make_shared<storage::LedgerStore>(
      storage::StorageConfig{}, "prune-tgl");
  tangle.attach_store(store);
  Rng rng(5);
  for (int i = 0; i < 8; ++i) {
    const tangle::TxHash trunk = tangle.select_tip(rng);
    const tangle::TxHash branch = tangle.select_tip(rng);
    ASSERT_TRUE(tangle
                    .attach(tangle::make_tx(
                        tangle, issuer, trunk, branch,
                        crypto::Sha256::digest(
                            as_bytes("pr-" + std::to_string(i))),
                        static_cast<double>(i), rng))
                    .ok());
  }
  const auto tips = tangle.tips();
  const std::size_t size = tangle.size();
  const std::uint64_t before = store->log_bytes();

  EXPECT_GT(tangle.prune_history(), 0u);
  EXPECT_LT(store->log_bytes(), before);
  EXPECT_GT(store->pruned_bytes(), 0u);
  // Storage-only discipline: the in-RAM DAG is untouched.
  EXPECT_EQ(tangle.tips(), tips);
  EXPECT_EQ(tangle.size(), size);
  for (const tangle::TxHash& tip : tips)
    EXPECT_TRUE(store->log().contains(storage::RecordType::kSite, tip));
}

// ---------------------------------------- per-tx weights (PR 8 carry-over)

TEST(TangleWeights, RejectsZeroAndOverMaxWeight) {
  tangle::TangleParams params;
  params.work_bits = 2;
  params.max_own_weight = 4;
  tangle::Tangle tangle(params);
  const crypto::KeyPair issuer = crypto::KeyPair::from_seed(7);
  Rng rng(1);

  tangle::TangleTx heavy = tangle::make_tx(
      tangle, issuer, tangle.genesis(), tangle.genesis(),
      crypto::Sha256::digest(as_bytes("w-over")), 1.0, rng, {}, 5);
  const Status over = tangle.attach(heavy);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.error().code, "bad-weight");

  tangle::TangleTx zero = tangle::make_tx(
      tangle, issuer, tangle.genesis(), tangle.genesis(),
      crypto::Sha256::digest(as_bytes("w-zero")), 1.0, rng, {}, 0);
  const Status z = tangle.attach(zero);
  ASSERT_FALSE(z.ok());
  EXPECT_EQ(z.error().code, "bad-weight");

  tangle::TangleTx ok = tangle::make_tx(
      tangle, issuer, tangle.genesis(), tangle.genesis(),
      crypto::Sha256::digest(as_bytes("w-ok")), 1.0, rng, {}, 4);
  EXPECT_TRUE(tangle.attach(ok).ok());
}

TEST(TangleWeights, CumulativeWeightMonotoneInOwnWeight) {
  // A fixed 4-transaction chain issued at own weight W: the cumulative
  // weight of the chain's root is 4W (its future cone is the whole chain)
  // and the genesis sees 1 + 4W. Larger W strictly increases both — the
  // lever the large-weight-spam adversary pulls.
  std::uint64_t prev_root = 0, prev_genesis = 0;
  for (const std::uint64_t w : {1u, 8u, 64u}) {
    tangle::TangleParams params;
    params.work_bits = 2;
    params.max_own_weight = 64;
    tangle::Tangle tangle(params);
    const crypto::KeyPair issuer = crypto::KeyPair::from_seed(11);
    Rng rng(2);
    tangle::TxHash parent = tangle.genesis();
    tangle::TxHash root{};
    for (int i = 0; i < 4; ++i) {
      tangle::TangleTx tx = tangle::make_tx(
          tangle, issuer, parent, parent,
          crypto::Sha256::digest(as_bytes("wm-" + std::to_string(i))),
          static_cast<double>(i), rng, {}, w);
      ASSERT_TRUE(tangle.attach(tx).ok());
      if (i == 0) root = tx.hash();
      parent = tx.hash();
    }
    const std::uint64_t cw_root = tangle.cumulative_weight(root);
    const std::uint64_t cw_genesis = tangle.cumulative_weight(tangle.genesis());
    EXPECT_EQ(cw_root, 4 * w);
    EXPECT_EQ(cw_genesis, 1 + 4 * w);
    EXPECT_GT(cw_root, prev_root);
    EXPECT_GT(cw_genesis, prev_genesis);
    prev_root = cw_root;
    prev_genesis = cw_genesis;
  }
}

}  // namespace
}  // namespace dlt
