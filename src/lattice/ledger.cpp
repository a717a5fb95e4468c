#include "lattice/ledger.hpp"

#include <cassert>
#include <unordered_set>

#include "core/partition.hpp"
#include "obs/profile.hpp"
#include "support/serialize.hpp"

namespace dlt::lattice {

namespace {
/// State-backend value for an account frontier: head hash + the balance it
/// carries (all the state §V-B head-only pruning keeps).
Bytes encode_frontier(const LatticeBlock& head) {
  Writer w;
  w.fixed(head.hash());
  w.u64(head.balance);
  return std::move(w).take();
}
}  // namespace

Ledger::Ledger(LatticeParams params, const crypto::AccountId& genesis_account,
               const crypto::AccountId& genesis_representative,
               Amount supply)
    : params_(std::move(params)), supply_(supply) {
  // "Similar to the genesis block in blockchain, a DAG holds a genesis
  // transaction. The genesis transaction defines the initial state." §II-B
  genesis_.type = BlockType::kOpen;
  genesis_.account = genesis_account;
  genesis_.balance = supply;
  genesis_.representative = genesis_representative;

  AccountInfo info;
  info.chain.push_back(genesis_);
  info.cemented_height = 1;  // the genesis transaction is irreversible
  accounts_.emplace(genesis_account, std::move(info));
  locations_.emplace(genesis_.hash(), BlockLocation{genesis_account, 0});
  weights_[genesis_representative] += supply;
  block_count_ = 1;
}

const AccountInfo* Ledger::account(const crypto::AccountId& id) const {
  auto it = accounts_.find(id);
  return it == accounts_.end() ? nullptr : &it->second;
}

std::optional<LatticeBlock> Ledger::find_block(const BlockHash& hash) const {
  auto it = locations_.find(hash);
  if (it == locations_.end()) return std::nullopt;
  const AccountInfo* info = account(it->second.account);
  assert(info);
  const LatticeBlock* b = info->block_at(it->second.height);
  if (!b) return std::nullopt;
  return *b;
}

bool Ledger::contains(const BlockHash& hash) const {
  return locations_.count(hash) != 0;
}

Amount Ledger::balance_of(const crypto::AccountId& id) const {
  const AccountInfo* info = account(id);
  return info ? info->head().balance : 0;
}

std::optional<BlockHash> Ledger::head_of(const crypto::AccountId& id) const {
  const AccountInfo* info = account(id);
  if (!info) return std::nullopt;
  return info->head().hash();
}

std::optional<LatticeBlock> Ledger::block_at_root(const Root& root) const {
  const AccountInfo* info = account(root.account);
  if (!info) return std::nullopt;
  if (root.previous.is_zero()) {
    const LatticeBlock* first = info->block_at(0);
    if (!first) return std::nullopt;
    return *first;
  }
  auto loc = locations_.find(root.previous);
  if (loc == locations_.end() || !(loc->second.account == root.account))
    return std::nullopt;
  const LatticeBlock* succ = info->block_at(loc->second.height + 1);
  if (!succ) return std::nullopt;
  return *succ;
}

Ledger::StatelessVerdict Ledger::compute_verdict(
    const LatticeBlock& block) const {
  // Collect, on the simulation thread: memoize the content hash, derive
  // the signer (thread-local memo) and probe the sigcache in the same
  // order the serial path would.
  const BlockHash hash = block.hash();
  const bool owner_ok = crypto::account_of(block.pubkey) == block.account;
  const bool cached =
      owner_ok && sigcache_ &&
      sigcache_->contains(block.pubkey, hash, block.signature);

  enum : std::size_t { kSig = 0, kWork = 1 };
  std::size_t kinds[2];
  std::size_t n = 0;
  if (owner_ok && !cached) kinds[n++] = kSig;
  if (params_.verify_work) kinds[n++] = kWork;
  pv_.record_batch(n, verify_pool_->thread_count());

  // Shard: only pure functions, each job writing its own slot.
  std::uint8_t ok[2] = {0, 0};
  if (n > 0) {
    obs::ProfileTimer timer(pv_.join_us);
    verify_pool_->parallel_for(n, [&](std::size_t k) {
      if (kinds[k] == kSig)
        ok[kSig] =
            crypto::verify(block.pubkey, hash.view(), block.signature) ? 1 : 0;
      else
        ok[kWork] = block.verify_work(params_.work_bits) ? 1 : 0;
    });
  }

  StatelessVerdict v;
  v.sig_ok = owner_ok && (cached || ok[kSig] != 0);
  v.work_ok = !params_.verify_work || ok[kWork] != 0;
  // Join: a fresh success enters the cache exactly where verify_cached
  // would have inserted it on the serial path.
  if (owner_ok && !cached && ok[kSig] != 0 && sigcache_)
    sigcache_->insert(block.pubkey, hash, block.signature);
  return v;
}

const LatticeBlock* Ledger::DirectView::head_of(
    const crypto::AccountId& id) const {
  const AccountInfo* info = l->account(id);
  return info ? &info->head() : nullptr;
}

std::optional<crypto::AccountId> Ledger::DirectView::location_account(
    const BlockHash& hash) const {
  auto it = l->locations_.find(hash);
  if (it == l->locations_.end()) return std::nullopt;
  return it->second.account;
}

const PendingInfo* Ledger::DirectView::pending(const BlockHash& link) const {
  auto it = l->pending_.find(link);
  return it == l->pending_.end() ? nullptr : &it->second;
}

bool Ledger::DirectView::claimed(const BlockHash& link) const {
  return l->claimed_.count(link) != 0;
}

Status Ledger::validate(const LatticeBlock& block,
                        const StatelessVerdict* verdict) const {
  return validate_with(DirectView{this}, block, verdict);
}

void Ledger::apply_weight_change(const crypto::AccountId& old_rep,
                                 Amount old_bal,
                                 const crypto::AccountId& new_rep,
                                 Amount new_bal) {
  if (!old_rep.is_zero()) {
    auto it = weights_.find(old_rep);
    assert(it != weights_.end() && it->second >= old_bal);
    it->second -= old_bal;
    if (it->second == 0) weights_.erase(it);
  }
  if (!new_rep.is_zero()) weights_[new_rep] += new_bal;
}

Status Ledger::process(const LatticeBlock& block) {
  const BlockHash hash = block.hash();
  if (locations_.count(hash)) return make_error("duplicate");

  if (parallel_validation()) {
    const StatelessVerdict verdict = compute_verdict(block);
    return process_one(block, hash, &verdict);
  }
  return process_one(block, hash, nullptr);
}

Status Ledger::process_one(const LatticeBlock& block, const BlockHash& hash,
                           const StatelessVerdict* verdict) {
  if (locations_.count(hash)) return make_error("duplicate");
  Status st = validate(block, verdict);
  if (!st.ok()) return st;
  apply_validated(block, hash);
  return Status::success();
}

void Ledger::apply_validated(const LatticeBlock& block, const BlockHash& hash) {
  if (block.type == BlockType::kOpen) {
    auto pend = pending_.find(block.link);
    claimed_.emplace(block.link, std::make_pair(hash, pend->second));
    pending_total_ -= pend->second.amount;
    pending_.erase(pend);

    AccountInfo info;
    info.chain.push_back(block);
    accounts_.emplace(block.account, std::move(info));
    locations_.emplace(hash, BlockLocation{block.account, 0});
    apply_weight_change({}, 0, block.representative, block.balance);
  } else {
    AccountInfo& info = accounts_.at(block.account);
    const LatticeBlock& head = info.head();

    if (block.type == BlockType::kSend) {
      const Amount amount = head.balance - block.balance;
      crypto::AccountId destination = block.link;
      pending_.emplace(hash, PendingInfo{block.account, destination, amount});
      pending_total_ += amount;
    } else if (block.type == BlockType::kReceive) {
      auto pend = pending_.find(block.link);
      claimed_.emplace(block.link, std::make_pair(hash, pend->second));
      pending_total_ -= pend->second.amount;
      pending_.erase(pend);
    }

    apply_weight_change(head.representative, head.balance,
                        block.representative, block.balance);
    locations_.emplace(hash, BlockLocation{block.account, info.height()});
    info.chain.push_back(block);
  }
  ++block_count_;
  persist_apply(block, hash);
}

void Ledger::persist_apply(const LatticeBlock& block, const BlockHash& hash) {
  if (!store_) return;
  store_->log().append(storage::RecordType::kBlock, hash, block.serialize());
  store_->state().put(block.account, encode_frontier(block));
  store_->commit();
}

void Ledger::persist_rollback(const LatticeBlock& block,
                              const BlockHash& hash) {
  if (!store_) return;
  store_->log().erase(storage::RecordType::kBlock, hash);
  const AccountInfo* info = account(block.account);
  if (info)
    store_->state().put(block.account, encode_frontier(info->head()));
  else
    store_->state().erase(block.account);
  store_->commit();
}

void Ledger::attach_store(std::shared_ptr<storage::LedgerStore> store) {
  store_ = std::move(store);
  if (!store_) return;
  const BlockHash gh = genesis_.hash();
  if (!store_->log().contains(storage::RecordType::kBlock, gh)) {
    store_->log().append(storage::RecordType::kBlock, gh,
                         genesis_.serialize());
    store_->state().put(genesis_.account, encode_frontier(genesis_));
  }
  store_->commit();
}

std::size_t Ledger::replay_from_store() {
  if (!store_) return 0;
  std::vector<Bytes> records;
  store_->log().for_each(
      [&](storage::RecordType type, const Hash256& key, ByteView payload) {
        (void)key;
        if (type == storage::RecordType::kBlock)
          records.emplace_back(payload.begin(), payload.end());
      });
  std::size_t accepted = 0;
  for (const Bytes& raw : records) {
    auto block = LatticeBlock::deserialize(raw);
    if (!block) continue;
    if (locations_.count(block->hash())) continue;  // genesis / replayed
    if (process(*block).ok()) ++accepted;
  }
  return accepted;
}

std::vector<Status> Ledger::process_batch(
    const std::vector<LatticeBlock>& blocks) {
  const std::size_t n = blocks.size();
  std::vector<Status> out(n);
  if (!parallel_state() || n < 2) {
    for (std::size_t i = 0; i < n; ++i) out[i] = process(blocks[i]);
    return out;
  }

  // Collect on the calling thread: hashes, frozen-duplicate flags and the
  // stateless verdicts, in batch order. Verdicts are skipped for blocks the
  // frozen ledger already holds, exactly as the serial loop's duplicate
  // check would skip them; sigcache probes never mutate the cache and keys
  // are per-block unique, so computing the rest upfront inserts into the
  // cache in the same order the serial loop interleaves them.
  std::vector<BlockHash> hashes(n);
  std::vector<std::uint8_t> dup_frozen(n, 0);
  std::vector<StatelessVerdict> verdicts(n);
  for (std::size_t i = 0; i < n; ++i) {
    hashes[i] = blocks[i].hash();
    dup_frozen[i] = locations_.count(hashes[i]) ? 1 : 0;
    if (!dup_frozen[i]) verdicts[i] = compute_verdict(blocks[i]);
  }

  // Key extraction: a block touches its account chain (head + new
  // location), its own hash (duplicate detection), its predecessor's
  // location and the send it links to. In-batch dependency chains (a send
  // followed by its receive, a head followed by its successor) share a key
  // and land in one group.
  core::ConflictPartitioner part(n);
  for (std::size_t i = 0; i < n; ++i) {
    part.add_key(i, blocks[i].account);
    part.add_key(i, hashes[i]);
    if (!blocks[i].previous.is_zero()) part.add_key(i, blocks[i].previous);
    if (!blocks[i].link.is_zero()) part.add_key(i, blocks[i].link);
  }
  const auto groups = part.groups();
  ps_.record_batch(groups.size(), verify_pool_->thread_count());
  if (groups.size() < 2) {
    // One spanning group: nothing to parallelize; serial reference path.
    ps_.record_demotion();
    for (std::size_t i = 0; i < n; ++i)
      out[i] = process_one(blocks[i], hashes[i],
                           dup_frozen[i] ? nullptr : &verdicts[i]);
    return out;
  }

  // Group checks: side-effect-free validation against the frozen ledger
  // plus a group-local overlay mirroring apply_validated's effects. Every
  // state entry a block reads or writes is covered by its keys (group
  // closure), so concurrent groups never observe each other; workers take
  // verdict slots for all crypto and write only their own status slots.
  {
    obs::ProfileTimer timer(ps_.join_us);
    verify_pool_->parallel_for(groups.size(), [&](std::size_t g) {
      struct Overlay {
        const Ledger* l;
        std::unordered_map<crypto::AccountId, const LatticeBlock*> heads;
        std::unordered_map<BlockHash, crypto::AccountId> locs;
        std::unordered_map<BlockHash, PendingInfo> pend_added;
        std::unordered_set<BlockHash> pend_removed;
        std::unordered_set<BlockHash> claim_added;

        const LatticeBlock* head_of(const crypto::AccountId& id) const {
          auto it = heads.find(id);
          if (it != heads.end()) return it->second;
          const AccountInfo* info = l->account(id);
          return info ? &info->head() : nullptr;
        }
        std::optional<crypto::AccountId> location_account(
            const BlockHash& hash) const {
          auto it = locs.find(hash);
          if (it != locs.end()) return it->second;
          auto fit = l->locations_.find(hash);
          if (fit == l->locations_.end()) return std::nullopt;
          return fit->second.account;
        }
        const PendingInfo* pending(const BlockHash& link) const {
          if (pend_removed.count(link)) return nullptr;
          auto it = pend_added.find(link);
          if (it != pend_added.end()) return &it->second;
          auto fit = l->pending_.find(link);
          return fit == l->pending_.end() ? nullptr : &fit->second;
        }
        bool claimed(const BlockHash& link) const {
          return claim_added.count(link) != 0 ||
                 l->claimed_.count(link) != 0;
        }
        bool contains(const BlockHash& hash) const {
          return locs.count(hash) != 0 || l->locations_.count(hash) != 0;
        }

        void apply(const LatticeBlock& b, const BlockHash& h) {
          if (b.type == BlockType::kOpen) {
            claim_added.insert(b.link);
            if (!pend_added.erase(b.link)) pend_removed.insert(b.link);
          } else if (b.type == BlockType::kSend) {
            const LatticeBlock* head = head_of(b.account);
            pend_added.emplace(
                h, PendingInfo{b.account, b.link, head->balance - b.balance});
          } else if (b.type == BlockType::kReceive) {
            claim_added.insert(b.link);
            if (!pend_added.erase(b.link)) pend_removed.insert(b.link);
          }
          heads[b.account] = &b;
          locs[h] = b.account;
        }
      };

      Overlay ov{this, {}, {}, {}, {}, {}};
      for (const std::size_t i : groups[g]) {
        if (ov.contains(hashes[i])) {
          out[i] = make_error("duplicate");
          continue;
        }
        out[i] = validate_with(ov, blocks[i], &verdicts[i]);
        if (out[i].ok()) ov.apply(blocks[i], hashes[i]);
      }
    });
  }

  // Commit: replay the exact serial mutation sequence, in batch order, for
  // every block whose group check passed. Failed blocks are skipped with
  // their group-check status — identical to the serial loop, where a
  // failed process() leaves the ledger untouched.
  std::size_t applied = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!out[i].ok()) continue;
    apply_validated(blocks[i], hashes[i]);
    ++applied;
  }
  ps_.record_applied(applied);
  return out;
}

std::vector<std::pair<BlockHash, PendingInfo>> Ledger::pending_for(
    const crypto::AccountId& destination) const {
  std::vector<std::pair<BlockHash, PendingInfo>> out;
  for (const auto& [hash, info] : pending_)
    if (info.destination == destination) out.emplace_back(hash, info);
  return out;
}

Amount Ledger::total_pending() const {
  Amount sum = 0;
  for (const auto& [hash, info] : pending_) sum += info.amount;
  return sum;
}

void Ledger::for_each_head(
    const std::function<void(const crypto::AccountId&, const BlockHash&)>&
        fn) const {
  for (const auto& [id, info] : accounts_) fn(id, info.head().hash());
}

Amount Ledger::weight_of(const crypto::AccountId& representative) const {
  auto it = weights_.find(representative);
  return it == weights_.end() ? 0 : it->second;
}

Status Ledger::rollback_one(const BlockHash& hash,
                            std::vector<LatticeBlock>& removed) {
  auto loc = locations_.find(hash);
  if (loc == locations_.end()) return Status::success();  // already gone
  const crypto::AccountId account_id = loc->second.account;
  const std::uint32_t target_height = loc->second.height;

  {
    const AccountInfo& info = accounts_.at(account_id);
    if (target_height < info.cemented_height)
      return make_error("cemented", "cannot roll back a cemented block");
    if (target_height < info.pruned_below)
      return make_error("pruned", "cannot roll back pruned history");
  }

  while (true) {
    AccountInfo& info = accounts_.at(account_id);
    if (info.height() <= target_height) break;
    const LatticeBlock top = info.head();
    const BlockHash top_hash = top.hash();

    if (top.type == BlockType::kSend) {
      // A send's funds may already be claimed elsewhere; that claim (and
      // everything above it) must unwind first -- cascading rollback.
      auto claim = claimed_.find(top_hash);
      if (claim != claimed_.end()) {
        Status st = rollback_one(claim->second.first, removed);
        if (!st.ok()) return st;
      }
      auto pend = pending_.find(top_hash);
      assert(pend != pending_.end());
      pending_total_ -= pend->second.amount;
      pending_.erase(pend);
    } else if (top.type == BlockType::kReceive ||
               top.type == BlockType::kOpen) {
      // Re-expose the source send as pending.
      auto claim = claimed_.find(top.link);
      assert(claim != claimed_.end());
      pending_.emplace(top.link, claim->second.second);
      pending_total_ += claim->second.second.amount;
      claimed_.erase(claim);
    }

    // Reverse the weight delta this block applied.
    if (top.type == BlockType::kOpen) {
      apply_weight_change(top.representative, top.balance, {}, 0);
    } else {
      const LatticeBlock* below = info.block_at(info.height() - 2);
      assert(below && "rollback into pruned history");
      apply_weight_change(top.representative, top.balance,
                          below->representative, below->balance);
    }

    locations_.erase(top_hash);
    info.chain.pop_back();
    --block_count_;
    removed.push_back(top);

    const bool account_gone = info.chain.empty();
    if (account_gone) accounts_.erase(account_id);
    persist_rollback(top, top_hash);
    if (account_gone) break;
  }
  return Status::success();
}

Result<std::vector<LatticeBlock>> Ledger::rollback(const BlockHash& hash) {
  if (!locations_.count(hash)) return make_error("unknown-block");
  std::vector<LatticeBlock> removed;
  Status st = rollback_one(hash, removed);
  if (!st.ok()) return st.error();
  return removed;
}

Status Ledger::cement(const BlockHash& hash) {
  auto loc = locations_.find(hash);
  if (loc == locations_.end()) return make_error("unknown-block");
  AccountInfo& info = accounts_.at(loc->second.account);
  info.cemented_height =
      std::max(info.cemented_height, loc->second.height + 1);
  return Status::success();
}

bool Ledger::is_cemented(const BlockHash& hash) const {
  auto loc = locations_.find(hash);
  if (loc == locations_.end()) return false;
  const AccountInfo* info = account(loc->second.account);
  return info && loc->second.height < info->cemented_height;
}

std::uint64_t Ledger::prune_history() {
  std::uint64_t reclaimed = 0;
  bool erased = false;
  for (auto& [id, info] : accounts_) {
    // Only cemented history may go; always keep the head block, whose
    // balance field carries the whole account state (§V-B).
    const std::uint32_t keep_from =
        std::min(info.cemented_height > 0 ? info.cemented_height - 1 : 0,
                 info.height() - 1);
    if (keep_from <= info.pruned_below) continue;
    const std::uint32_t drop = keep_from - info.pruned_below;
    for (std::uint32_t i = 0; i < drop; ++i) {
      locations_.erase(info.chain[i].hash());
      reclaimed += info.chain[i].serialized_size();
      if (store_)
        erased |= store_->log().erase(storage::RecordType::kBlock,
                                      info.chain[i].hash());
    }
    info.chain.erase(info.chain.begin(), info.chain.begin() + drop);
    info.pruned_below = keep_from;
    block_count_ -= drop;
    pruned_blocks_ += drop;
  }
  if (store_ && erased) {
    store_->note_pruned(store_->log().compact());
    store_->commit();
  }
  return reclaimed;
}

Ledger::StorageBreakdown Ledger::storage() const {
  StorageBreakdown s;
  s.blocks = block_count_ * LatticeBlock::kSerializedSize;
  s.pending_table = pending_.size() * (32 + 32 + 32 + 8);
  s.weight_table = weights_.size() * (32 + 8);
  return s;
}

bool Ledger::conserves_value() const {
  Amount balances = 0;
  for (const auto& [id, info] : accounts_) balances += info.head().balance;
  return balances + total_pending() == supply_;
}

}  // namespace dlt::lattice
