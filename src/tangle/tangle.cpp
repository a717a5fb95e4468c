#include "tangle/tangle.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>

#include "crypto/hash.hpp"
#include "support/serialize.hpp"

namespace dlt::tangle {

TxHash TangleTx::hash() const {
  Writer w;
  w.fixed(issuer);
  w.fixed(trunk);
  w.fixed(branch);
  w.fixed(payload);
  w.fixed(spend_key);
  w.u64(static_cast<std::uint64_t>(timestamp * 1e6));
  w.u64(own_weight);
  return crypto::tagged_hash("dlt/tangle-tx",
                             ByteView{w.bytes().data(), w.size()});
}

Bytes TangleTx::serialize() const {
  Writer w;
  w.fixed(issuer);
  w.fixed(trunk);
  w.fixed(branch);
  w.fixed(payload);
  w.fixed(spend_key);
  // The hash grid truncates to microseconds; storage keeps the exact bits
  // so replayed trace timestamps match the original run.
  w.u64(std::bit_cast<std::uint64_t>(timestamp));
  w.u64(own_weight);
  w.u64(work);
  w.u64(pubkey);
  w.u64(signature.r);
  w.u64(signature.s);
  return std::move(w).take();
}

Result<TangleTx> TangleTx::deserialize(ByteView raw) {
  Reader r(raw);
  TangleTx tx;
  auto issuer = r.fixed<32>();
  if (!issuer) return issuer.error();
  tx.issuer = *issuer;
  auto trunk = r.fixed<32>();
  if (!trunk) return trunk.error();
  tx.trunk = *trunk;
  auto branch = r.fixed<32>();
  if (!branch) return branch.error();
  tx.branch = *branch;
  auto payload = r.fixed<32>();
  if (!payload) return payload.error();
  tx.payload = *payload;
  auto spend_key = r.fixed<32>();
  if (!spend_key) return spend_key.error();
  tx.spend_key = *spend_key;
  auto ts = r.u64();
  if (!ts) return ts.error();
  tx.timestamp = std::bit_cast<double>(*ts);
  auto weight = r.u64();
  if (!weight) return weight.error();
  tx.own_weight = *weight;
  auto work = r.u64();
  if (!work) return work.error();
  tx.work = *work;
  auto pubkey = r.u64();
  if (!pubkey) return pubkey.error();
  tx.pubkey = *pubkey;
  auto sr = r.u64();
  if (!sr) return sr.error();
  tx.signature.r = *sr;
  auto ss = r.u64();
  if (!ss) return ss.error();
  tx.signature.s = *ss;
  if (!r.done()) return make_error("site-record-trailing-bytes");
  return tx;
}

Bytes TangleTx::work_payload() const {
  // Work binds the approval choice (trunk/branch), like IOTA's PoW over
  // the transaction trits.
  Writer w;
  w.fixed(trunk);
  w.fixed(branch);
  w.fixed(payload);
  return std::move(w).take();
}

void TangleTx::solve_work(int difficulty_bits) {
  const Bytes payload_bytes = work_payload();
  auto solution = crypto::solve(
      ByteView{payload_bytes.data(), payload_bytes.size()}, difficulty_bits);
  work = solution->nonce;
}

bool TangleTx::verify_work(int difficulty_bits) const {
  const Bytes payload_bytes = work_payload();
  return crypto::verify(ByteView{payload_bytes.data(), payload_bytes.size()},
                        work, difficulty_bits);
}

void TangleTx::sign(const crypto::KeyPair& key, Rng& rng) {
  issuer = key.account_id();
  pubkey = key.public_key();
  signature = key.sign(hash().view(), rng);
}

bool TangleTx::verify_signature() const {
  if (crypto::account_of(pubkey) != issuer) return false;
  return crypto::verify(pubkey, hash().view(), signature);
}

Tangle::Tangle(TangleParams params) : params_(std::move(params)) {
  TangleTx genesis;
  genesis.payload = crypto::tagged_hash("dlt/tangle-genesis", {});
  genesis_hash_ = genesis.hash();
  txs_.emplace(genesis_hash_, genesis);
  approvers_[genesis_hash_];
  tips_.insert(genesis_hash_);
}

const TangleTx* Tangle::find(const TxHash& hash) const {
  auto it = txs_.find(hash);
  return it == txs_.end() ? nullptr : &it->second;
}

std::unordered_set<TxHash> Tangle::past_cone(const TxHash& hash) const {
  std::unordered_set<TxHash> cone;
  if (!contains(hash)) return cone;
  std::deque<TxHash> frontier{hash};
  while (!frontier.empty()) {
    const TxHash cur = frontier.front();
    frontier.pop_front();
    if (!cone.insert(cur).second) continue;
    if (cur == genesis_hash_) continue;
    const TangleTx& tx = *find(cur);
    frontier.push_back(tx.trunk);
    if (tx.branch != tx.trunk) frontier.push_back(tx.branch);
  }
  return cone;
}

std::unordered_set<Hash256> Tangle::cone_spend_keys(
    const TxHash& hash) const {
  std::unordered_set<Hash256> keys;
  for (const TxHash& h : past_cone(hash)) {
    const TangleTx& tx = *find(h);
    if (!tx.spend_key.is_zero()) keys.insert(tx.spend_key);
  }
  return keys;
}

bool Tangle::cone_conflicts(const TxHash& a, const TxHash& b) const {
  // Two cones conflict if some spend key appears on BOTH sides via
  // DIFFERENT transactions. Build key->tx maps and compare.
  std::unordered_map<Hash256, TxHash> ka;
  for (const TxHash& t : past_cone(a)) {
    const TangleTx& tx = *find(t);
    if (!tx.spend_key.is_zero()) ka.emplace(tx.spend_key, t);
  }
  if (ka.empty()) return false;
  for (const TxHash& t : past_cone(b)) {
    const TangleTx& tx = *find(t);
    if (tx.spend_key.is_zero()) continue;
    auto it = ka.find(tx.spend_key);
    if (it != ka.end() && it->second != t) return true;
  }
  return false;
}

void Tangle::set_probe(obs::Probe probe) {
  probe_ = probe;
  obs_attached_ = probe_.counter("tangle.attached");
  obs_rejected_ = probe_.counter("tangle.rejected");
}

Status Tangle::attach(const TangleTx& tx) {
  Status st = attach_impl(tx);
  if (st.ok()) {
    obs::inc(obs_attached_);
    if (probe_.tracer && probe_.tracer->enabled())
      probe_.tracer->record(tx.timestamp, obs::EventType::kTipAttached,
                            trace_node_, obs::trace_id(tx.hash()),
                            tx.branch == tx.trunk ? 1 : 2);
  } else {
    obs::inc(obs_rejected_);
  }
  return st;
}

Status Tangle::check_stateless(const TangleTx& tx) const {
  if (!tx.verify_signature()) return make_error("bad-signature");
  if (params_.verify_work && !tx.verify_work(params_.work_bits))
    return make_error("insufficient-work");
  // Weight policy: a declared weight of zero would make the transaction
  // invisible to the walk; one above the cap is the large-weight-spam
  // vector (an attacker buying cumulative weight per unit of hashcash).
  if (tx.own_weight == 0 || tx.own_weight > params_.max_own_weight)
    return make_error("bad-weight",
                      "own weight outside [1, max_own_weight]");
  return Status::success();
}

Status Tangle::check_cones(const TangleTx& tx) const {
  if (!contains(tx.trunk)) return make_error("unknown-trunk");
  if (!contains(tx.branch)) return make_error("unknown-branch");

  // Consistency: the combined past cone must be conflict-free, and the
  // new transaction must not double-spend a key already in that cone
  // (its own re-attachment under the same key elsewhere is the conflict
  // the network later resolves by starvation).
  if (cone_conflicts(tx.trunk, tx.branch))
    return make_error("inconsistent-parents",
                      "trunk and branch cones double-spend");
  if (!tx.spend_key.is_zero()) {
    auto keys = cone_spend_keys(tx.trunk);
    auto branch_keys = cone_spend_keys(tx.branch);
    keys.insert(branch_keys.begin(), branch_keys.end());
    if (keys.count(tx.spend_key))
      return make_error("double-spend",
                        "spend key already present in the approved cone");
  }
  return Status::success();
}

Status Tangle::attach_impl(const TangleTx& tx) {
  const TxHash hash = tx.hash();
  if (txs_.count(hash)) return make_error("duplicate");
  if (Status st = check_stateless(tx); !st.ok()) return st;
  if (Status st = check_cones(tx); !st.ok()) return st;

  const bool trunk_was_tip = tips_.count(tx.trunk) != 0;
  const bool branch_was_tip =
      tx.branch != tx.trunk && tips_.count(tx.branch) != 0;
  txs_.emplace(hash, tx);
  approvers_[tx.trunk].push_back(hash);
  if (tx.branch != tx.trunk) approvers_[tx.branch].push_back(hash);
  approvers_[hash];
  tips_.erase(tx.trunk);
  tips_.erase(tx.branch);
  tips_.insert(hash);
  if (!tx.spend_key.is_zero()) spends_[tx.spend_key].push_back(hash);
  if (store_) {
    store_->log().append(storage::RecordType::kSite, hash, tx.serialize());
    if (trunk_was_tip) store_->state().erase(tx.trunk);
    if (branch_was_tip) store_->state().erase(tx.branch);
    store_->state().put(hash, {});
    store_->commit();
  }
  return Status::success();
}

std::vector<TxHash> Tangle::tips() const {
  return std::vector<TxHash>(tips_.begin(), tips_.end());
}

void Tangle::attach_store(std::shared_ptr<storage::LedgerStore> store) {
  store_ = std::move(store);
  if (!store_) return;
  if (!store_->log().contains(storage::RecordType::kSite, genesis_hash_)) {
    store_->log().append(storage::RecordType::kSite, genesis_hash_,
                         txs_.at(genesis_hash_).serialize());
    store_->state().put(genesis_hash_, {});
  }
  store_->commit();
}

std::size_t Tangle::replay_from_store() {
  if (!store_) return 0;
  std::vector<Bytes> records;
  store_->log().for_each(
      [&](storage::RecordType type, const Hash256& key, ByteView payload) {
        (void)key;
        if (type == storage::RecordType::kSite)
          records.emplace_back(payload.begin(), payload.end());
      });
  std::size_t accepted = 0;
  for (const Bytes& raw : records) {
    auto tx = TangleTx::deserialize(raw);
    if (!tx) continue;
    if (txs_.count(tx->hash())) continue;  // genesis / already replayed
    if (attach(*tx).ok()) ++accepted;
  }
  return accepted;
}

std::uint64_t Tangle::prune_history() {
  if (!store_) return 0;
  bool erased = false;
  for (const auto& [hash, tx] : txs_) {
    if (hash == genesis_hash_ || tips_.count(hash)) continue;
    erased |= store_->log().erase(storage::RecordType::kSite, hash);
  }
  if (!erased) return 0;
  const std::uint64_t reclaimed = store_->log().compact();
  store_->note_pruned(reclaimed);
  store_->commit();
  return reclaimed;
}

std::size_t Tangle::cumulative_weight(const TxHash& hash) const {
  if (!contains(hash)) return 0;
  // Future-cone BFS over approvers, summing declared own weights (the
  // genesis carries the default weight of 1, as does every vanilla tx).
  std::unordered_set<TxHash> seen;
  std::deque<TxHash> frontier{hash};
  std::size_t weight = 0;
  while (!frontier.empty()) {
    const TxHash cur = frontier.front();
    frontier.pop_front();
    if (!seen.insert(cur).second) continue;
    weight += static_cast<std::size_t>(txs_.at(cur).own_weight);
    auto it = approvers_.find(cur);
    if (it == approvers_.end()) continue;
    for (const TxHash& child : it->second) frontier.push_back(child);
  }
  return weight;
}

double Tangle::confirmation_confidence(const TxHash& hash) const {
  if (!contains(hash) || tips_.empty()) return 0.0;
  std::size_t approving = 0;
  for (const TxHash& tip : tips_) {
    if (past_cone(tip).count(hash)) ++approving;
  }
  return static_cast<double>(approving) / static_cast<double>(tips_.size());
}

double Tangle::walk_confidence(const TxHash& hash, Rng& rng,
                               int samples) const {
  if (!contains(hash) || samples <= 0) return 0.0;
  int approving = 0;
  for (int i = 0; i < samples; ++i) {
    const TxHash tip = select_tip(rng);
    if (past_cone(tip).count(hash)) ++approving;
  }
  return static_cast<double>(approving) / samples;
}

TxHash Tangle::select_tip(Rng& rng,
                          const std::vector<Hash256>& spend_keys) const {
  return select_tip_with(params_.tip_selection, rng, spend_keys);
}

TxHash Tangle::select_tip_with(TipStrategy strategy, Rng& rng,
                               const std::vector<Hash256>& spend_keys) const {
  if (strategy != TipStrategy::kMcmc) {
    // Direct tip draw. Candidates are the tips whose past cone does not
    // conflict with the issuer's pending spends, in canonical (sorted
    // hash) order so the draw is independent of hash-map iteration.
    std::vector<TxHash> viable;
    viable.reserve(tips_.size());
    for (const TxHash& tip : tips_) {
      if (!spend_keys.empty()) {
        const auto cone_keys = cone_spend_keys(tip);
        bool conflicted = false;
        for (const Hash256& k : spend_keys)
          if (cone_keys.count(k)) conflicted = true;
        if (conflicted) continue;
      }
      viable.push_back(tip);
    }
    // Every tip conflicted: genesis is always a clean attachment point
    // (no draw consumed; the caller's RNG stream stays aligned).
    if (viable.empty()) return genesis_hash_;
    std::sort(viable.begin(), viable.end());
    if (strategy == TipStrategy::kMrts) {
      double max_ts = 0.0;
      for (const TxHash& tip : viable)
        max_ts = std::max(max_ts, find(tip)->timestamp);
      std::vector<TxHash> recent;
      for (const TxHash& tip : viable)
        if (find(tip)->timestamp == max_ts) recent.push_back(tip);
      viable = std::move(recent);
    }
    // Exactly one uniform01() draw (uniform(bound) would reject-sample a
    // data-dependent number of raw words; the draw-count contract in
    // tip_selection_test.cpp pins one draw per selection).
    const auto pick = static_cast<std::size_t>(
        rng.uniform01() * static_cast<double>(viable.size()));
    return viable[std::min(pick, viable.size() - 1)];
  }

  // MCMC: biased random walk from genesis toward the tips, skipping
  // children whose cone conflicts with the issuer's intended spends.
  TxHash current = genesis_hash_;
  for (;;) {
    auto it = approvers_.find(current);
    if (it == approvers_.end() || it->second.empty()) return current;

    std::vector<TxHash> viable;
    std::vector<double> weight;
    for (const TxHash& child : it->second) {
      if (!spend_keys.empty()) {
        const auto cone_keys = cone_spend_keys(child);
        bool conflicted = false;
        for (const Hash256& k : spend_keys)
          if (cone_keys.count(k)) conflicted = true;
        if (conflicted) continue;
      }
      viable.push_back(child);
      weight.push_back(static_cast<double>(cumulative_weight(child)));
    }
    if (viable.empty()) return current;

    // Transition probability ~ exp(alpha * weight), normalized against
    // the max for numerical stability.
    double max_w = 0;
    for (double w : weight) max_w = std::max(max_w, w);
    std::vector<double> p(viable.size());
    double total = 0;
    for (std::size_t i = 0; i < viable.size(); ++i) {
      p[i] = std::exp(params_.alpha * (weight[i] - max_w));
      total += p[i];
    }
    double ticket = rng.uniform01() * total;
    std::size_t pick = viable.size() - 1;
    for (std::size_t i = 0; i < viable.size(); ++i) {
      ticket -= p[i];
      if (ticket <= 0) {
        pick = i;
        break;
      }
    }
    current = viable[pick];
  }
}

TangleTx make_tx(const Tangle& tangle, const crypto::KeyPair& issuer,
                 const TxHash& trunk, const TxHash& branch,
                 const Hash256& payload, double timestamp, Rng& rng,
                 const Hash256& spend_key, std::uint64_t own_weight) {
  TangleTx tx;
  tx.trunk = trunk;
  tx.branch = branch;
  tx.payload = payload;
  tx.spend_key = spend_key;
  tx.timestamp = timestamp;
  tx.own_weight = own_weight;
  tx.solve_work(tangle.params().work_bits);
  tx.sign(issuer, rng);
  return tx;
}

}  // namespace dlt::tangle
