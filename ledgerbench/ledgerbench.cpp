// ledgerbench: one named ledger workload per process, driven from outside
// through the clusters' public API.
//
//   ledgerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--spans <path>]
//
// A workload is K sub-runs ("reps"), each a fresh cluster on its own
// sub-seed derived from --seed; one pass over the K sub-seeds is a cycle.
// After one untimed warm-up rep the run repeats whole cycles until
// `seconds` of wall time are used, so every sub-seed runs at least twice
// and each repeat re-checks that the simulation is deterministic. Each
// rep:
//
//   setup  cluster construction, start()/fund_accounts(), payment schedule
//   run    run_until() slices; every scheduled payment is one sim event
//          that calls submit_payment (open loop: the schedule is fixed up
//          front from the seed, whatever the ledger does with it)
//   check  convergence, admission reconciliation and ledger invariants
//
// With --trace 1 the run first repeats cycles untraced for half of
// `seconds` (the overhead baseline), then traced: spans around every call
// the benchmark makes into the program, written to --spans at the end.
// The last traced rep ends with a replay phase that feeds node 0's
// accepted history through fresh layer instances, timing each call.
//
// Output: one JSON object on stdout with raw per-rep figures; run.py turns
// it into the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/chain_cluster.hpp"
#include "core/lattice_cluster.hpp"
#include "core/tangle_cluster.hpp"
#include "core/workload.hpp"
#include "lattice/ledger.hpp"
#include "storage/ledger_store.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"
#include "tangle/tangle.hpp"

extern char** environ;

namespace {

using namespace dlt;
using support::JsonArray;
using support::JsonObject;
using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Workloads -------------------------------------------------------------

enum class Ledger { kChain, kLattice, kTangle };

struct Workload {
  const char* name;
  Ledger ledger;
  tangle::TipStrategy tips;  // tangle workloads only
  double rate;               // offered payments per simulated second
  std::size_t payments;      // the first N arrivals of that Poisson process
  double tail_s;             // the horizon is this long after the last one
  // Payments in the last `settle_s` before the last one are not yet due
  // to confirm (a tangle confirms a payment only once later traffic
  // approves it); every earlier one must be confirmed at the horizon.
  double settle_s;
  std::size_t slices;   // run_until() calls per rep
  std::size_t subruns;  // sub-seeds per cycle
  // Floor on (submit self time + chain connect time) / run wall time in a
  // traced run: the layers the workload exists to stress must dominate.
  double min_layer_share;
};

const Workload kWorkloads[] = {
    // utxo-backlog: a bitcoin-like UTXO chain offered twice its block
    // capacity for ~600 sim-s, then given 900 sim-s to drain the backlog
    // and bury it six blocks deep. Coin selection walks each payer's wallet past its
    // reserved in-flight coins, so `core` submit and `chain` connect take
    // about half the run while `sim`/`net` stay light. The workload for
    // the wallet index and the block store.
    {"utxo-backlog", Ledger::kChain, tangle::TipStrategy::kMcmc, 20.0, 12000,
     900.0, 0.0, 10, 2, 0.40},
    // lattice-votes: a nano-like lattice at 120 tx/s. ORV voting makes it
    // event-heavy (about 100 events per payment), so `sim`, `net` and the
    // vote tally (total_weight) carry the work and little of it is in
    // submit. The workload for the lattice weight total and for parallel
    // simulation.
    {"lattice-votes", Ledger::kLattice, tangle::TipStrategy::kMcmc, 120.0,
     2880, 4.0, 0.0, 8, 4, 0.0},
    // tangle-mcmc: an iota-like tangle with MCMC tip selection at 16 tx/s.
    // The issuer's cumulative-weight walk runs inside submit_payment and
    // takes most of the run. Walk cost grows with the cube of the tangle's
    // size and swings with its shape, so a cycle is 24 small tangles.
    // The workload for the cumulative-weight cache.
    {"tangle-mcmc", Ledger::kTangle, tangle::TipStrategy::kMcmc, 16.0, 180,
     2.0, 5.0, 10, 24, 0.80},
    // tangle-flood: the same tangle at 100 tx/s with uniform tip
    // selection. Replica attach (past-cone conflict checks), gossip and the
    // node-0 confirmation sweep do the work; submit is a small share. A
    // cache that moves cost from the walk onto attach shows its price here.
    // Runs by name only: BENCHMARK.json leaves it out so that the other
    // three fit its time budget with 40 s runs (see README.md).
    {"tangle-flood", Ledger::kTangle, tangle::TipStrategy::kUniform, 100.0,
     1000, 2.0, 4.0, 8, 6, 0.0},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

// splitmix64: derives independent sub-run, cluster and schedule seeds
// from the benchmark seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t sub_seed(std::uint64_t seed, std::size_t k) {
  return mix(mix(seed) + k);
}

// Settings every cluster kind shares, all set here rather than left to
// defaults or to the library's DLT_* environment readers: serial crypto
// with the shared signature cache, memory-mode storage, lifecycle latency
// tracking, no tracing, no traffic engine.
template <typename Config>
void common_config(Config& cfg, std::uint64_t seed) {
  cfg.crypto.shared_sigcache = true;
  cfg.crypto.sigcache_capacity = 1u << 18;
  cfg.crypto.verify_threads = 0;
  cfg.crypto.parallel_validation = false;
  cfg.crypto.parallel_state = false;
  cfg.obs.trace_capacity = 0;
  cfg.obs.trace_sink.clear();
  cfg.obs.per_node_metrics = false;
  cfg.obs.track_latency = true;
  cfg.obs.latency_sample_cap = 1u << 16;
  cfg.storage = storage::StorageConfig{};  // memory mode
  cfg.traffic.enabled = false;
  cfg.topology = core::Topology::kComplete;
  cfg.seed = mix(seed ^ 0xc1u);
}

core::ChainClusterConfig chain_config(std::uint64_t seed) {
  core::ChainClusterConfig cfg;
  common_config(cfg, seed);
  // Bitcoin's UTXO model, PoW and byte rate (1 MB per 600 s), with the
  // clock scaled 600x: 1667-byte blocks every second. A 600 s window then
  // spans hundreds of blocks, so the backlog, and with it every latency
  // figure, varies little from seed to seed.
  cfg.params = chain::bitcoin_like();
  cfg.params.block_interval = 1.0;
  cfg.params.max_block_bytes = 1'000'000 / 600;
  cfg.params.verify_pow = false;  // mining race modelled statistically
  cfg.params.retarget_window = 0;
  cfg.params.initial_difficulty = 1e6;
  cfg.node_count = 4;
  cfg.miner_count = 2;
  cfg.total_hashrate = 1e6 / cfg.params.block_interval;
  cfg.link = net::LinkParams{};
  cfg.account_count = 60;
  cfg.initial_balance = 1'000'000'000;
  // Each payer's peak in-flight count is about 200; 360 coins each keeps
  // every payment fundable while leaving the wallet walk real work.
  cfg.genesis_outputs_per_account = 360;
  cfg.account_tx_data_mean = 0;
  return cfg;
}

core::LatticeClusterConfig lattice_config(std::uint64_t seed) {
  core::LatticeClusterConfig cfg;
  common_config(cfg, seed);
  cfg.params = lattice::LatticeParams{};
  cfg.params.work_bits = 2;
  cfg.params.verify_work = true;
  cfg.node_count = 6;
  cfg.representative_count = 2;
  cfg.link = net::LinkParams{0.04, 0.01, 1.25e7};  // 100 Mbit/s links
  cfg.account_count = 48;
  cfg.initial_balance = 10'000'000;
  cfg.supply = 0;  // auto: accounts hold ~80 % of supply
  cfg.roles.clear();
  return cfg;
}

core::TangleClusterConfig tangle_config(std::uint64_t seed,
                                        tangle::TipStrategy tips) {
  core::TangleClusterConfig cfg;
  common_config(cfg, seed);
  cfg.params = tangle::TangleParams{};
  cfg.params.work_bits = 2;
  cfg.params.alpha = 0.05;
  cfg.params.tip_selection = tips;
  cfg.node_count = 6;
  cfg.link = net::LinkParams{0.04, 0.01, 1.25e7};
  cfg.account_count = 48;
  cfg.confirmation_threshold = 0.5;
  cfg.confirmation_sweep_interval = 1.0;
  return cfg;
}

std::vector<core::PaymentEvent> schedule_for(const Workload& w,
                                             std::size_t accounts,
                                             std::uint64_t seed) {
  Rng rng(mix(seed ^ 0x5ced01eULL));
  core::WorkloadConfig wl;
  wl.account_count = accounts;
  wl.tx_rate = w.rate;
  // Long enough that N arrivals come with overwhelming probability; a
  // fixed count keeps run cost, which for the tangle grows with the cube
  // of its size, from swinging with the Poisson count.
  wl.duration = 1.5 * static_cast<double>(w.payments) / w.rate;
  wl.pick = core::AccountPick::kUniform;
  wl.min_amount = 1;
  wl.max_amount = 100;
  // Chain: the first half of the accounts pay the second half. A payer
  // then never holds a small received coin, so every payment spends one
  // large coin, all payments have one size and one fee rate, and the
  // mempool serves them first come, first served.
  const bool split = w.ledger == Ledger::kChain;
  if (split) wl.account_count = accounts / 2;
  std::vector<core::PaymentEvent> out = core::generate_payments(wl, rng);
  if (out.size() > w.payments) out.resize(w.payments);
  if (split)
    for (core::PaymentEvent& p : out) p.to += accounts / 2;
  return out;
}

// Every config field the library reads from the environment is set above
// and the library's own DLT_* readers are never called. Refuse to run with
// any DLT_* variable present all the same, so a result never comes from a
// process whose environment could have switched something on.
std::vector<std::string> dlt_environment() {
  std::vector<std::string> found;
  for (char** e = environ; e && *e; ++e)
    if (std::strncmp(*e, "DLT_", 4) == 0) found.emplace_back(*e);
  return found;
}

// ---- Spans -----------------------------------------------------------------

// In-memory span list: name, start, end (seconds since the run started)
// and the enclosing span. Recording is off until enable().
class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_(origin) {}
  void enable() { on_ = true; }
  bool on() const { return on_; }
  std::size_t size() const { return spans_.size(); }

  std::int64_t open(const char* name) {
    if (!on_) return -1;
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now(), -1.0, parent});
    stack_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
    return stack_.back();
  }
  void close(std::int64_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    char buf[192];
    for (std::size_t i = 0; i < spans_.size() && out; ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                    "\"parent\":%lld}\n",
                    i, s.name, s.start, s.end,
                    static_cast<long long>(s.parent));
      out << buf;
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    std::int64_t parent;  // index into spans_, -1 = root
  };

  double now() const { return secs_since(origin_); }
  Clock::time_point origin_;
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

class Scope {
 public:
  Scope(Spans& spans, const char* name)
      : spans_(spans), id_(spans.open(name)) {}
  ~Scope() { spans_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  std::int64_t id_;
};

// ---- One rep ---------------------------------------------------------------

struct Rep {
  std::size_t sub = 0;  // sub-seed index
  double setup_s = 0;
  double run_s = 0;
  std::uint64_t attempted = 0;
  std::vector<double> submit_us;  // wall time of every submit_payment call
  double submit_self_s = 0;       // Σ submit time minus nested profile time
  double nested_profile_s = 0;    // profile timers that fired in a submit

  // Sim-time outputs (fixed by the sub-seed).
  std::uint64_t submitted = 0, refused = 0, evicted = 0, backpressured = 0;
  std::uint64_t confirmed = 0, in_flight = 0, not_yet_due = 0;
  double sim_seconds = 0;
  std::vector<double> confirm_samples;  // latency.submit_to_confirm

  // Layer counters and program-side profile times.
  std::uint64_t events = 0, heap_peak = 0;
  std::uint64_t net_messages = 0, net_bytes = 0;
  std::uint64_t connect_calls = 0;
  double connect_s = 0, lattice_work_s = 0;
  std::uint64_t chain_blocks = 0, chain_reorgs = 0;
  std::uint64_t sig_hits = 0, sig_misses = 0;
  std::uint64_t lattice_votes = 0, gap_parked = 0;
  std::uint64_t log_bytes = 0, state_bytes = 0;

  std::vector<std::string> failed_checks;
  std::string registry;  // registry JSON, for the determinism digest
};

void check(Rep& rep, bool ok, const std::string& what) {
  if (!ok) rep.failed_checks.push_back(what);
}

double hist_sum_s(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Histogram* h = reg.find_histogram(name);
  return h ? h->summary().sum() * 1e-6 : 0.0;
}

std::uint64_t counter_of(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Counter* c = reg.find_counter(name);
  return c ? c->value() : 0;
}

// Replay-phase timings (traced run, last rep only).
struct Replay {
  double storage_append_s = 0;
  std::uint64_t storage_records = 0;
  double lattice_process_s = 0;
  std::uint64_t lattice_blocks = 0;
  double total_weight_s = 0;
  std::uint64_t total_weight_calls = 0;
  double select_tip_s = 0;
  std::uint64_t select_tip_calls = 0;
  double attach_s = 0;
  std::uint64_t attached = 0;
  double cumulative_weight_s = 0;
  std::uint64_t cumulative_weight_calls = 0;
};

// Copies node 0's live log records into a fresh memory-mode store, timing
// each append: the storage layer's write path on real history.
void replay_storage(const storage::LedgerStore& src, Spans& spans,
                    Replay& out) {
  Scope scope(spans, "storage.replay");
  storage::LedgerStore fresh(storage::StorageConfig{}, "ledgerbench-replay");
  src.log().for_each([&](storage::RecordType type, const Hash256& key,
                         ByteView payload) {
    const auto t0 = Clock::now();
    fresh.log().append(type, key, payload);
    out.storage_append_s += secs_since(t0);
    ++out.storage_records;
  });
  fresh.commit();
}

// Engine-level outputs and reconciliation shared by every ledger.
template <typename Cluster>
void fill_common(Cluster& cluster, Rep& rep) {
  const obs::MetricsRegistry& reg = cluster.metrics_registry();
  const obs::LatencyTracker& lc = cluster.lifecycle();
  rep.submitted = counter_of(reg, "cluster.submitted");
  rep.refused = counter_of(reg, "cluster.rejected");
  rep.evicted = lc.evicted();
  rep.backpressured = cluster.admission().backpressured;
  rep.confirmed = lc.confirmed();
  rep.in_flight = lc.in_flight();
  check(rep, rep.submitted + rep.refused == rep.attempted,
        "submitted + refused == attempted");
  check(rep, lc.submitted() == rep.submitted,
        "lifecycle submitted == cluster.submitted");
  check(rep, lc.submitted() == lc.confirmed() + lc.evicted() + lc.in_flight(),
        "lifecycle submitted == confirmed + evicted + in flight");
  check(rep, cluster.admission().reconciles(), "admission tallies reconcile");
  if (const obs::Histogram* h = reg.find_histogram("latency.submit_to_confirm");
      h && h->count() > 0) {
    const Percentiles& p = h->percentiles();
    // The retained samples, read back in order through quantile():
    // quantile(i / (m - 1)) is the i-th smallest of m samples.
    const std::size_t m = p.sample_count();
    for (std::size_t i = 0; i < m; ++i)
      rep.confirm_samples.push_back(p.quantile(
          m > 1 ? static_cast<double>(i) / static_cast<double>(m - 1) : 0.0));
  }
  rep.events = cluster.simulation().events_fired();
  rep.heap_peak = cluster.simulation().heap_peak();
  rep.net_messages = cluster.network().traffic().messages;
  rep.net_bytes = cluster.network().traffic().bytes;
  if (const obs::Histogram* h = reg.find_histogram("profile.connect_block_us"))
    rep.connect_calls = h->count();
  rep.connect_s = hist_sum_s(reg, "profile.connect_block_us");
  rep.lattice_work_s = hist_sum_s(reg, "profile.lattice_work_us");
  rep.lattice_votes = counter_of(reg, "lattice.votes_cast");
  rep.gap_parked = counter_of(reg, "tangle.gap.parked");
  if (const crypto::SignatureCache* sc = cluster.sigcache()) {
    rep.sig_hits = sc->stats().hits;
    rep.sig_misses = sc->stats().misses;
  }
  rep.registry = cluster.metrics_json().to_string();
}

// The run phase: every payment is a sim event that times its own
// submit_payment call; the simulation advances in `slices` run_until()
// calls to the horizon (the last payment plus `tail_s`), then in 1 s steps
// (no new traffic) until every node agrees, so the convergence check
// reads a quiet network.
template <typename Cluster>
void run_phase(Cluster& cluster, const Workload& w,
               const std::vector<core::PaymentEvent>& payments, Spans& spans,
               Rep& rep) {
  struct Ctx {
    Cluster* cluster;
    const std::vector<core::PaymentEvent>* payments;
    Spans* spans;
    Rep* rep;
    const obs::Histogram* connect;
    const obs::Histogram* work;
  };
  const obs::MetricsRegistry& reg = cluster.metrics_registry();
  Ctx ctx{&cluster, &payments, &spans, &rep,
          reg.find_histogram("profile.connect_block_us"),
          reg.find_histogram("profile.lattice_work_us")};
  const double t0 = cluster.simulation().now();
  const double last = payments.empty() ? 0.0 : payments.back().time;
  const double horizon = last + w.tail_s;
  rep.submit_us.reserve(payments.size());
  for (std::size_t i = 0; i < payments.size(); ++i) {
    cluster.simulation().schedule_at(t0 + payments[i].time, [c = &ctx, i] {
      const core::PaymentEvent& ev = (*c->payments)[i];
      // In a traced run, program-side profile timers that fire inside
      // this call are nested child time, not submit self time.
      auto profiled = [c] {
        return (c->connect ? c->connect->summary().sum() : 0.0) +
               (c->work ? c->work->summary().sum() : 0.0);
      };
      const double nested0 = c->spans->on() ? profiled() : 0.0;
      const std::int64_t span = c->spans->open("core.submit_payment");
      const auto start = Clock::now();
      (void)c->cluster->submit_payment(ev.from, ev.to, ev.amount);
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - start)
              .count();
      c->spans->close(span);
      c->rep->submit_us.push_back(us);
      ++c->rep->attempted;
      if (c->spans->on())
        c->rep->nested_profile_s += (profiled() - nested0) * 1e-6;
    });
  }
  const auto run0 = Clock::now();
  for (std::size_t s = 1; s <= w.slices; ++s) {
    Scope slice(spans, "sim.run_until");
    cluster.simulation().run_until(t0 + horizon * static_cast<double>(s) /
                                            static_cast<double>(w.slices));
  }
  for (int extra = 0; extra < 120 && !cluster.converged(); ++extra) {
    Scope slice(spans, "sim.run_until");
    cluster.simulation().run_until(cluster.simulation().now() + 1.0);
  }
  rep.run_s = secs_since(run0);
  rep.sim_seconds = cluster.simulation().now() - t0;
  check(rep, cluster.converged(), "all nodes converged at the horizon");
  double submit_total = 0;
  for (double us : rep.submit_us) submit_total += us * 1e-6;
  rep.submit_self_s = submit_total - rep.nested_profile_s;
  for (const core::PaymentEvent& p : payments)
    if (p.time > last - w.settle_s) ++rep.not_yet_due;
}

// ---- Per-ledger reps -------------------------------------------------------

void chain_checks(core::ChainCluster& cluster, Rep& rep, Spans& spans,
                  Replay* replay) {
  const chain::Blockchain& bc = cluster.node(0).chain();
  rep.chain_blocks = bc.height();
  rep.chain_reorgs = bc.fork_stats().reorgs;
  // Supply: every coin is a genesis allocation or a block subsidy; fees
  // only move value from payers to miners.
  const auto& cfg = cluster.config();
  const chain::Amount genesis = cfg.initial_balance *
                                cfg.genesis_outputs_per_account *
                                cfg.account_count;
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    const chain::Blockchain& c = cluster.node(i).chain();
    check(rep,
          c.utxo_set().total_value() ==
              genesis + static_cast<chain::Amount>(c.height()) *
                            c.params().block_reward,
          "chain UTXO value == genesis + subsidies on node " +
              std::to_string(i));
  }
  if (const storage::LedgerStore* st = bc.store()) {
    rep.log_bytes = st->log_bytes();
    rep.state_bytes = st->state_bytes();
    if (replay) replay_storage(*st, spans, *replay);
  }
}

void lattice_checks(core::LatticeCluster& cluster, Rep& rep, Spans& spans,
                    Replay* replay) {
  const lattice::Ledger& ref = cluster.node(0).ledger();
  const crypto::AccountId genesis = cluster.state().genesis_key.account_id();
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    const lattice::Ledger& l = cluster.node(i).ledger();
    lattice::Amount held = l.balance_of(genesis);
    for (std::size_t a = 0; a < cluster.account_count(); ++a)
      held += l.balance_of(cluster.account(a).account_id());
    check(rep, held + l.total_pending() == l.supply() && l.conserves_value(),
          "lattice balances + pending == supply on node " + std::to_string(i));
    check(rep, l.block_count() == ref.block_count(),
          "lattice block count agrees on node " + std::to_string(i));
  }
  const storage::LedgerStore* st = ref.store();
  if (!st) return;
  rep.log_bytes = st->log_bytes();
  rep.state_bytes = st->state_bytes();
  if (!replay) return;
  replay_storage(*st, spans, *replay);
  // Node 0's blocks in admission (log) order through a fresh ledger:
  // Ledger::process, then the vote-tally denominator total_weight().
  Scope s(spans, "lattice.replay");
  std::vector<lattice::LatticeBlock> blocks;
  st->log().for_each(
      [&](storage::RecordType type, const Hash256&, ByteView payload) {
        if (type != storage::RecordType::kBlock) return;
        if (auto b = lattice::LatticeBlock::deserialize(payload))
          blocks.push_back(*b);
      });
  lattice::Ledger fresh(ref.params(), genesis, genesis, ref.supply());
  lattice::Amount weight_sum = 0;
  bool all_ok = true;
  for (const lattice::LatticeBlock& b : blocks) {
    if (fresh.contains(b.hash())) continue;  // genesis
    auto t0 = Clock::now();
    all_ok &= fresh.process(b).ok();
    replay->lattice_process_s += secs_since(t0);
    ++replay->lattice_blocks;
    t0 = Clock::now();
    weight_sum += fresh.total_weight();
    replay->total_weight_s += secs_since(t0);
    ++replay->total_weight_calls;
  }
  check(rep, all_ok && weight_sum > 0 && fresh.block_count() == ref.block_count(),
        "lattice replay rebuilds node 0's ledger");
}

void tangle_checks(core::TangleCluster& cluster, std::uint64_t seed,
                   Rep& rep, Spans& spans, Replay* replay) {
  const tangle::Tangle& ref = cluster.node(0).tangle();
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    const tangle::Tangle& t = cluster.node(i).tangle();
    bool tips_stored = true;
    for (const tangle::TxHash& tip : t.tips()) tips_stored &= t.contains(tip);
    check(rep, tips_stored, "tangle tips stored on node " + std::to_string(i));
    check(rep, t.size() == ref.size(),
          "tangle size agrees on node " + std::to_string(i));
  }
  const storage::LedgerStore* st = ref.store();
  if (!st) return;
  rep.log_bytes = st->log_bytes();
  rep.state_bytes = st->state_bytes();
  if (!replay) return;
  replay_storage(*st, spans, *replay);
  // Node 0's transactions in attach (log) order through a fresh tangle: a
  // tip selection with the workload's strategy before each attach, as an
  // issuer would, then the cumulative weight of every transaction in the
  // finished tangle.
  Scope s(spans, "tangle.replay");
  std::vector<tangle::TangleTx> txs;
  st->log().for_each(
      [&](storage::RecordType type, const Hash256&, ByteView payload) {
        if (type != storage::RecordType::kSite) return;
        if (auto tx = tangle::TangleTx::deserialize(payload))
          txs.push_back(*tx);
      });
  tangle::Tangle fresh(ref.params());
  Rng select_rng(mix(seed ^ 0x7e1ec7ULL));
  std::vector<tangle::TxHash> order;
  bool all_ok = true;
  for (const tangle::TangleTx& tx : txs) {
    const tangle::TxHash h = tx.hash();
    if (fresh.contains(h)) continue;  // genesis
    auto t0 = Clock::now();
    all_ok &= fresh.contains(fresh.select_tip(select_rng));
    replay->select_tip_s += secs_since(t0);
    ++replay->select_tip_calls;
    t0 = Clock::now();
    all_ok &= fresh.attach(tx).ok();
    replay->attach_s += secs_since(t0);
    ++replay->attached;
    order.push_back(h);
  }
  std::size_t weight_sum = 0;
  for (const tangle::TxHash& h : order) {
    const auto t0 = Clock::now();
    weight_sum += fresh.cumulative_weight(h);
    replay->cumulative_weight_s += secs_since(t0);
    ++replay->cumulative_weight_calls;
  }
  check(rep, all_ok && fresh.size() == ref.size() && weight_sum >= order.size(),
        "tangle replay rebuilds node 0's tangle");
}

// One rep of `w` on sub-seed `seed`.
Rep one_rep(const Workload& w, std::size_t sub, std::uint64_t seed,
            Spans& spans, Replay* replay) {
  Rep rep;
  rep.sub = sub;
  Scope root(spans, "rep");
  const auto t0 = Clock::now();
  auto drive = [&](auto& cluster, auto&& prepare, auto&& checks) {
    std::vector<core::PaymentEvent> payments;
    {
      Scope s(spans, "setup");
      prepare(cluster);
      Scope g(spans, "core.generate_payments");
      payments = schedule_for(w, cluster->account_count(), seed);
    }
    rep.setup_s = secs_since(t0);
    check(rep, payments.size() == w.payments, "schedule has every payment");
    // Setup may have run the simulation (lattice funding); the run phase
    // counts only its own events and messages.
    const std::uint64_t events0 = cluster->simulation().events_fired();
    const auto traffic0 = cluster->network().traffic();
    {
      Scope s(spans, "run");
      run_phase(*cluster, w, payments, spans, rep);
    }
    fill_common(*cluster, rep);
    rep.events -= events0;
    rep.net_messages -= traffic0.messages;
    rep.net_bytes -= traffic0.bytes;
    checks(*cluster);
  };
  switch (w.ledger) {
    case Ledger::kChain: {
      std::unique_ptr<core::ChainCluster> c;
      drive(
          c,
          [&](auto& cl) {
            {
              Scope s(spans, "core.construct");
              cl = std::make_unique<core::ChainCluster>(chain_config(seed));
            }
            Scope s(spans, "core.start");
            cl->start();
          },
          [&](auto& cl) { chain_checks(cl, rep, spans, replay); });
      break;
    }
    case Ledger::kLattice: {
      std::unique_ptr<core::LatticeCluster> c;
      drive(
          c,
          [&](auto& cl) {
            {
              Scope s(spans, "core.construct");
              cl = std::make_unique<core::LatticeCluster>(
                  lattice_config(seed));
            }
            Scope s(spans, "core.fund_accounts");
            cl->fund_accounts();
          },
          [&](auto& cl) { lattice_checks(cl, rep, spans, replay); });
      break;
    }
    case Ledger::kTangle: {
      std::unique_ptr<core::TangleCluster> c;
      drive(
          c,
          [&](auto& cl) {
            {
              Scope s(spans, "core.construct");
              cl = std::make_unique<core::TangleCluster>(
                  tangle_config(seed, w.tips));
            }
            Scope s(spans, "core.start");
            cl->start();
          },
          [&](auto& cl) { tangle_checks(cl, seed, rep, spans, replay); });
      break;
    }
  }
  return rep;
}

// ---- Output ----------------------------------------------------------------

std::string rep_json(const Rep& r) {
  JsonArray checks;
  for (const std::string& c : r.failed_checks) checks.push_raw("\"" + c + "\"");
  JsonObject o;
  o.put("sub", static_cast<std::uint64_t>(r.sub));
  o.put("setup_s", r.setup_s);
  o.put("run_s", r.run_s);
  o.put("attempted", r.attempted);
  o.put("submit_self_s", r.submit_self_s);
  o.put("nested_profile_s", r.nested_profile_s);
  o.put("submitted", r.submitted);
  o.put("refused", r.refused);
  o.put("evicted", r.evicted);
  o.put("backpressured", r.backpressured);
  o.put("confirmed", r.confirmed);
  o.put("in_flight", r.in_flight);
  o.put("not_yet_due", r.not_yet_due);
  o.put("sim_seconds", r.sim_seconds);
  o.put("events", r.events);
  o.put("heap_peak", r.heap_peak);
  o.put("net_messages", r.net_messages);
  o.put("net_bytes", r.net_bytes);
  o.put("connect_calls", r.connect_calls);
  o.put("connect_s", r.connect_s);
  o.put("lattice_work_s", r.lattice_work_s);
  o.put("chain_blocks", r.chain_blocks);
  o.put("chain_reorgs", r.chain_reorgs);
  o.put("sig_hits", r.sig_hits);
  o.put("sig_misses", r.sig_misses);
  o.put("lattice_votes", r.lattice_votes);
  o.put("gap_parked", r.gap_parked);
  o.put("log_bytes", r.log_bytes);
  o.put("state_bytes", r.state_bytes);
  o.put_raw("failed_checks", checks.to_string());
  o.put_raw("registry", r.registry);
  return o.to_string();
}

std::string replay_json(const Replay& r) {
  JsonObject o;
  o.put("storage_append_s", r.storage_append_s);
  o.put("storage_records", r.storage_records);
  o.put("lattice_process_s", r.lattice_process_s);
  o.put("lattice_blocks", r.lattice_blocks);
  o.put("total_weight_s", r.total_weight_s);
  o.put("total_weight_calls", r.total_weight_calls);
  o.put("select_tip_s", r.select_tip_s);
  o.put("select_tip_calls", r.select_tip_calls);
  o.put("attach_s", r.attach_s);
  o.put("attached", r.attached);
  o.put("cumulative_weight_s", r.cumulative_weight_s);
  o.put("cumulative_weight_calls", r.cumulative_weight_calls);
  return o.to_string();
}

std::string number(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", x);
  return buf;
}

int usage() {
  std::cerr << "usage: ledgerbench --workload <";
  for (const Workload& w : kWorkloads)
    std::cerr << w.name << (&w == std::end(kWorkloads) - 1 ? "" : "|");
  std::cerr << "> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  bool have_seed = false;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, &end, 10);
      have_seed = *v >= '0' && *v <= '9' && *end == '\0';
    } else if (flag == "--seconds") {
      seconds = std::strtod(v, &end);
      if (*end != '\0') seconds = -1;
    } else if (flag == "--trace") {
      trace = std::strcmp(v, "0") == 0 ? 0 : std::strcmp(v, "1") == 0 ? 1 : -1;
    } else if (flag == "--spans") {
      spans_path = v;
    } else {
      return usage();
    }
  }
  const Workload* w = find_workload(workload);
  if (!w || !have_seed || !(seconds > 0) || trace < 0) return usage();
  if (const auto env = dlt_environment(); !env.empty()) {
    for (const std::string& e : env)
      std::cerr << "ledgerbench: refusing to run with " << e << " set\n";
    return 2;
  }

  const auto origin = Clock::now();
  Spans spans(origin);
  std::vector<Rep> untraced, traced;
  Replay replay;
  auto cycle = [&](std::vector<Rep>& out, bool with_replay) {
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < w->subruns; ++k)
      out.push_back(one_rep(*w, k, sub_seed(seed, k), spans,
                            with_replay && k + 1 == w->subruns ? &replay
                                                               : nullptr));
    return secs_since(t0);
  };
  // A first rep warms allocator, page tables and caches; it is checked
  // like every other rep but kept out of the timings.
  const Rep warmup = one_rep(*w, 0, sub_seed(seed, 0), spans, nullptr);
  // Whole cycles only, and no cycle that would end past the budget once
  // the minimum is met: two untraced cycles, or one untraced and one
  // traced in a traced run.
  const double untraced_budget = trace ? seconds / 2 : seconds;
  double cycle_s = 0;
  for (std::size_t n = 0;
       n < (trace ? 1u : 2u) || secs_since(origin) + cycle_s <= untraced_budget;
       ++n)
    cycle_s = cycle(untraced, false);
  if (trace) {
    spans.enable();
    const double left = seconds - secs_since(origin);
    const auto cycles = std::max<std::size_t>(
        1, static_cast<std::size_t>(left / (cycle_s * 1.05)));
    for (std::size_t n = 0; n < cycles; ++n) cycle(traced, n + 1 == cycles);
  }

  // Submit wall time per untraced cycle: the median, and p99 when a
  // cycle has at least ten samples above it, else the highest percentile
  // that does. run.py reports the median over cycles of each.
  const std::size_t cycles = untraced.size() / w->subruns;
  JsonArray submit_p50, submit_tail;
  std::uint64_t cycle_samples = 0;
  double tail_q = 0.99;
  for (std::size_t c = 0; c < cycles; ++c) {
    Percentiles submit;
    for (std::size_t k = 0; k < w->subruns; ++k)
      for (double us : untraced[c * w->subruns + k].submit_us) submit.add(us);
    cycle_samples = submit.count();
    const double n = static_cast<double>(std::max<std::uint64_t>(cycle_samples, 1));
    tail_q = n * 0.01 >= 10 ? 0.99 : std::max(0.5, 1.0 - 10.0 / n);
    submit_p50.push_raw(number(submit.median()));
    submit_tail.push_raw(number(submit.quantile(tail_q)));
  }

  // Submit-to-confirm latency over the first cycle's K sub-runs, pooled
  // (later cycles repeat the same sub-seeds).
  Percentiles confirm;
  for (std::size_t k = 0; k < w->subruns; ++k)
    for (double x : untraced[k].confirm_samples) confirm.add(x);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  JsonArray untraced_json, traced_json;
  for (const Rep& r : untraced) untraced_json.push_raw(rep_json(r));
  for (const Rep& r : traced) traced_json.push_raw(rep_json(r));
  JsonObject out;
  out.put("workload", w->name);
  out.put("seed", seed);
  out.put("subruns", static_cast<std::uint64_t>(w->subruns));
  out.put("offered_tx_per_sim_s", w->rate);
  out.put("payments_per_subrun", static_cast<std::uint64_t>(w->payments));
  out.put("tail_sim_s", w->tail_s);
  out.put("settle_sim_s", w->settle_s);
  out.put("min_layer_share", w->min_layer_share);
  out.put_raw("submit_p50_us", submit_p50.to_string());
  out.put_raw("submit_tail_us", submit_tail.to_string());
  out.put("submit_tail_quantile", tail_q);
  out.put("submit_samples_per_cycle", cycle_samples);
  out.put("confirm_p50_s", confirm.median());
  out.put("confirm_p99_s", confirm.p99());
  out.put("confirm_samples", confirm.count());
  out.put("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  out.put("hardware_threads",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  out.put("compiler", LEDGERBENCH_COMPILER);
  out.put("build_type", LEDGERBENCH_BUILD_TYPE);
  out.put_raw("warmup", rep_json(warmup));
  out.put_raw("untraced", untraced_json.to_string());
  out.put_raw("traced", traced_json.to_string());
  if (trace) {
    out.put_raw("replay", replay_json(replay));
    out.put("spans", static_cast<std::uint64_t>(spans.size()));
    if (!spans_path.empty() && !spans.write(spans_path)) {
      std::cerr << "ledgerbench: cannot write " << spans_path << "\n";
      return 1;
    }
  }
  std::cout << out.to_string() << "\n";
  return 0;
}
