#include "core/tangle_cluster.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "crypto/hash.hpp"
#include "support/serialize.hpp"

namespace dlt::core {

namespace {

using Engine = ClusterEngine<TangleTraits>;

/// Payload commitment for a workload payment: the tangle carries opaque
/// content, so the payment is committed, not interpreted.
Hash256 payment_payload(std::size_t from, std::size_t to,
                        std::uint64_t amount, std::uint64_t seq) {
  Writer w;
  w.u64(from);
  w.u64(to);
  w.u64(amount);
  w.u64(seq);
  return crypto::tagged_hash("dlt/tangle-payment",
                             ByteView{w.bytes().data(), w.size()});
}

/// One lifecycle sweep: recompute tip-cone confidence on the reference
/// replica (same batched scan as fill_metrics) and stamp confirmation for
/// every tracked transaction that crossed the threshold. Hashes are
/// processed in sorted order so the confirm-event stream is canonical.
void run_confirmation_sweep(Engine& e) {
  obs::LatencyTracker* tracker = e.lifecycle_tracker();
  if (!tracker || tracker->in_flight() == 0) return;

  const tangle::Tangle& tangle = e.node(0).tangle();
  const std::vector<tangle::TxHash> tips = tangle.tips();
  if (tips.empty()) return;
  std::unordered_map<tangle::TxHash, std::size_t> approve_count;
  for (const tangle::TxHash& tip : tips)
    for (const tangle::TxHash& h : tangle.past_cone(tip))
      ++approve_count[h];

  const double threshold =
      e.config().confirmation_threshold * static_cast<double>(tips.size());
  std::vector<tangle::TxHash> crossed;
  for (const auto& [hash, count] : approve_count) {
    if (hash == tangle.genesis()) continue;
    if (static_cast<double>(count) >= threshold) crossed.push_back(hash);
  }
  std::sort(crossed.begin(), crossed.end());
  const double now = e.simulation().now();
  for (const tangle::TxHash& hash : crossed)
    tracker->on_confirm(obs::trace_id(hash), now, e.node(0).id());
}

void schedule_confirmation_sweep(Engine& e, double interval) {
  e.simulation().schedule_in(interval, [&e, interval] {
    run_confirmation_sweep(e);
    schedule_confirmation_sweep(e, interval);
  });
}

// ---- Open-loop admission pipeline (ISSUE 10) ----------------------------
// Mirrors the lattice: issue() attaches synchronously, so admission
// control is a per-issuer-node AdmissionQueue drained on a fixed service
// cadence. See lattice_cluster.cpp for the rationale.

void ensure_queues(Engine& e) {
  TangleTraits::State& st = e.state();
  if (!st.queues.empty()) return;
  st.queues.assign(e.node_count(),
                   AdmissionQueue(e.config().traffic.queue_capacity_bytes));
  st.drain_armed.assign(e.node_count(), 0);
}

void arm_drain(Engine& e, std::size_t issuer);

void drain_queue(Engine& e, std::size_t issuer_index) {
  TangleTraits::State& st = e.state();
  st.drain_armed[issuer_index] = 0;
  AdmissionQueue& q = st.queues[issuer_index];
  AdmissionStats& adm = e.admission();
  obs::LatencyTracker* tracker = e.lifecycle_tracker();
  const std::size_t burst =
      std::max<std::size_t>(1, e.config().traffic.drain_burst);
  for (std::size_t i = 0; i < burst; ++i) {
    QueuedPayment p;
    if (!q.pop(p)) break;
    const Hash256 payload =
        payment_payload(p.from, p.to, p.amount, st.payment_seq++);
    tangle::TangleNode& issuer = e.node(issuer_index);
    auto res = issuer.issue(e.account(p.from), payload);
    if (!res) {
      if (adm.admitted > 0) --adm.admitted;
      ++adm.rejected;
      e.rejected_counter().inc();
      continue;
    }
    if (tracker) {
      const double now = e.simulation().now();
      const std::uint64_t id = obs::trace_id(*res);
      // Submit is stamped at ENQUEUE time (queue wait counts); include
      // means "attached on the reference replica", so it is stamped here
      // only when node 0 issues — otherwise node 0 stamps it on gossip.
      tracker->on_submit(id, p.submit_time, issuer.id(),
                         static_cast<std::uint64_t>(p.from), p.fee_class);
      tracker->on_admit(id, now, issuer.id());
      if (issuer.id() == e.node(0).id())
        tracker->on_include(id, now, issuer.id());
    }
  }
  if (!q.empty()) arm_drain(e, issuer_index);
}

void arm_drain(Engine& e, std::size_t issuer) {
  TangleTraits::State& st = e.state();
  if (st.drain_armed[issuer]) return;
  st.drain_armed[issuer] = 1;
  e.simulation().schedule_in(e.config().traffic.drain_interval,
                             [&e, issuer] { drain_queue(e, issuer); });
}

}  // namespace

TangleTraits::State TangleTraits::make_state(Config&) { return State{}; }

std::string TangleTraits::system_name(const Config&) { return "iota-like"; }

void TangleTraits::build_nodes(Engine& e) {
  const Config& config = e.config();
  for (std::size_t i = 0; i < config.node_count; ++i) {
    tangle::TangleNodeConfig nc;
    nc.probe = e.node_probe(i);
    nc.lifecycle = e.lifecycle_tracker();
    nc.lifecycle_observer = (i == 0);
    // Every node gets a store (memory mode by default) so storage.* gauges
    // appear in every report and the memory/disk differential stays a pure
    // config flip (ISSUE 9).
    nc.store = std::make_shared<storage::LedgerStore>(
        config.storage, system_name(config) + "-s" +
                            std::to_string(config.seed) + "/node" +
                            std::to_string(i));
    nc.store->attach_probe(e.node_probe(i));
    e.add_node(std::make_unique<tangle::TangleNode>(
        e.network(), config.params, nc, e.rng().fork()));
  }
}

void TangleTraits::after_topology(Engine&) {}

// The tangle has no per-node quorum event to hook; confirmation (tip-cone
// confidence crossing the threshold, §IV) is re-evaluated by a recurring
// deterministic sweep on the reference replica.
void TangleTraits::wire_lifecycle(Engine& e) {
  const double interval = e.config().confirmation_sweep_interval;
  if (interval > 0) schedule_confirmation_sweep(e, interval);
}

// Tangle nodes are purely reactive (no miners/voters to schedule); start()
// is a no-op kept for API symmetry with the other ledgers.
void TangleTraits::start(Engine&) {}

SubmitOutcome TangleTraits::submit_payment(Engine& e, std::size_t from,
                                           std::size_t to, Amount amount) {
  const Hash256 payload =
      payment_payload(from, to, amount, e.state().payment_seq++);
  tangle::TangleNode& issuer = e.node(from % e.node_count());
  auto res = issuer.issue(e.account(from), payload);
  if (!res) return SubmitOutcome{res.error()};
  SubmitOutcome out;
  out.tx_id = obs::trace_id(*res);
  out.node = issuer.id();
  // issue() attached locally before gossiping: admission is synchronous.
  // Inclusion means "attached on the reference replica", so it coincides
  // with submit only when node 0 itself is the issuer; otherwise node 0
  // stamps it on gossip receipt.
  out.admitted = true;
  out.included = (issuer.id() == e.node(0).id());
  return out;
}

void TangleTraits::submit_traffic(Engine& e, const TrafficEvent& ev) {
  const TrafficConfig& tc = e.config().traffic;
  ensure_queues(e);
  const std::size_t issuer = ev.from % e.node_count();
  QueuedPayment p;
  p.submit_time = e.simulation().now();
  p.from = ev.from;
  p.to = ev.to;
  p.amount = ev.amount;
  p.fee_class = ev.fee_class;
  p.fee = tc.base_fee * fee_class_multiplier(ev.fee_class);
  p.bytes = tc.payment_bytes;
  std::vector<QueuedPayment> evicted;
  const auto res = e.state().queues[issuer].push(p, &evicted);
  AdmissionStats& adm = e.admission();
  // Queue-evicted payments never reached the ledger, so there is no
  // lifecycle entry to retire — only the tallies move.
  for (std::size_t i = 0; i < evicted.size(); ++i) {
    if (adm.admitted > 0) --adm.admitted;
    ++adm.evicted;
  }
  if (res == AdmissionQueue::Push::kBackpressured) {
    ++adm.backpressured;
    return;
  }
  ++adm.admitted;
  arm_drain(e, issuer);
}

void TangleTraits::fill_metrics(const Engine& e, RunMetrics& m) {
  const tangle::Tangle& tangle = e.node(0).tangle();

  // Included: every transaction in the reference replica except genesis.
  m.included = tangle.size() > 0 ? tangle.size() - 1 : 0;
  m.blocks_produced = m.included;

  // Confirmed: one past-cone walk per tip accumulates, for every
  // transaction, how many tips approve it; confidence = approvers / tips
  // (confirmation_confidence, batched so the scan is O(tips × cone)
  // instead of O(txs × tips × cone)).
  const std::vector<tangle::TxHash> tips = tangle.tips();
  std::unordered_map<tangle::TxHash, std::size_t> approve_count;
  for (const tangle::TxHash& tip : tips)
    for (const tangle::TxHash& h : tangle.past_cone(tip))
      ++approve_count[h];
  std::uint64_t confirmed = 0;
  if (!tips.empty()) {
    const double threshold =
        e.config().confirmation_threshold * static_cast<double>(tips.size());
    for (const auto& [hash, count] : approve_count) {
      if (hash == tangle.genesis()) continue;
      if (static_cast<double>(count) >= threshold) ++confirmed;
    }
  }
  m.confirmed = confirmed;

  // Backlog: tips are exactly the transactions nothing approves yet.
  m.pending_end = tangle.tip_count();
  m.stored_bytes = tangle.stored_bytes();
}

bool TangleTraits::converged(const Engine& e) {
  const tangle::Tangle& reference = e.node(0).tangle();
  const std::vector<tangle::TxHash> ref_tips = reference.tips();
  const std::unordered_set<tangle::TxHash> ref_tip_set(ref_tips.begin(),
                                                       ref_tips.end());
  for (std::size_t i = 0; i < e.node_count(); ++i) {
    const tangle::Tangle& t = e.node(i).tangle();
    if (t.size() != reference.size()) return false;
    const std::vector<tangle::TxHash> tips = t.tips();
    if (tips.size() != ref_tip_set.size()) return false;
    for (const tangle::TxHash& tip : tips)
      if (!ref_tip_set.count(tip)) return false;
    if (e.node(i).gap_pool_size() != 0) return false;
  }
  return true;
}

}  // namespace dlt::core
