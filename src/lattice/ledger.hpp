// The block-lattice ledger: per-account chains, pending (unsettled) sends,
// representative weights, fork detection, rollback and pruning
// (paper §II-B, §III-B, §IV-B, §V-B).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/validation.hpp"
#include "lattice/block.hpp"
#include "obs/parallel.hpp"
#include "storage/ledger_store.hpp"
#include "support/result.hpp"
#include "support/thread_pool.hpp"

namespace dlt::lattice {

struct LatticeParams {
  /// Anti-spam hashcash difficulty in leading zero bits (paper §III-B).
  int work_bits = 8;
  bool verify_work = true;
  /// Fraction of total voting weight required to confirm a block
  /// (paper §IV-B: "majority of votes").
  double vote_quorum = 0.5;
  /// Election timeout before a conflict is decided on current tallies.
  double election_duration = 4.0;
};

/// An in-flight transfer: a send whose receive has not yet happened --
/// "funds are pending in the network... transactions are deemed unsettled"
/// (paper §II-B, Fig. 3).
struct PendingInfo {
  crypto::AccountId source;
  crypto::AccountId destination;
  Amount amount = 0;
};

struct AccountInfo {
  /// Stored blocks; the block at chain[i] has height pruned_below + i.
  /// Pruning (§V-B) drops leading history while heights stay stable.
  std::vector<LatticeBlock> chain;
  std::uint32_t cemented_height = 0;  // blocks [0, cemented) irreversible
  std::uint32_t pruned_below = 0;     // heights below this are pruned

  const LatticeBlock& head() const { return chain.back(); }
  std::uint32_t height() const {
    return pruned_below + static_cast<std::uint32_t>(chain.size());
  }
  const LatticeBlock* block_at(std::uint32_t h) const {
    if (h < pruned_below || h >= height()) return nullptr;
    return &chain[h - pruned_below];
  }
};

class Ledger {
 public:
  Ledger(LatticeParams params, const crypto::AccountId& genesis_account,
         const crypto::AccountId& genesis_representative, Amount supply);

  const LatticeParams& params() const { return params_; }
  const LatticeBlock& genesis() const { return genesis_; }
  Amount supply() const { return supply_; }

  /// Validates and applies a block. Error codes of note:
  ///  "fork"         -- a different block already occupies this root
  ///  "gap-previous" -- predecessor unknown (paper §IV-B: a missing block
  ///                    makes the network ignore its successors)
  ///  "gap-source"   -- receive references an unknown send
  Status process(const LatticeBlock& block);

  /// Processes a batch of blocks in order, returning one Status per block
  /// (index-aligned). With parallel_state off this is exactly a process()
  /// loop. With it on, blocks are union-found into conflict groups on the
  /// state keys they touch (account, own hash, predecessor, link), groups
  /// are checked concurrently against the frozen pre-batch ledger plus a
  /// group-local overlay, and the passing blocks are committed serially in
  /// batch order — byte-identical statuses and ledger state either way
  /// (proven by tests/state_sharding_test.cpp). Per-block failures keep
  /// the batch's per-item semantics: a bad block is skipped, not fatal.
  std::vector<Status> process_batch(const std::vector<LatticeBlock>& blocks);

  /// Shared signature-verification cache used by process(); typically one
  /// per cluster (crypto/sigcache.hpp). May be null.
  void set_sigcache(std::shared_ptr<crypto::SignatureCache> cache) {
    sigcache_ = std::move(cache);
  }
  crypto::SignatureCache* sigcache() const { return sigcache_.get(); }

  /// Thread pool the parallel-validation pipeline shards stateless checks
  /// (signature + hashcash) across. Null = serial.
  void set_verify_pool(std::shared_ptr<support::ThreadPool> pool) {
    verify_pool_ = std::move(pool);
  }
  /// Switches process() to the sharded pipeline: the two stateless checks
  /// of a block run across the verify pool and validate() consumes the
  /// joined verdict. No-op without a pool; either setting yields
  /// byte-identical ledger state and traces for a given input sequence.
  void set_parallel_validation(bool on) { parallel_validation_ = on; }
  bool parallel_validation() const {
    return parallel_validation_ && verify_pool_ != nullptr;
  }
  /// Shards the stateful phase of process_batch() by conflict groups (see
  /// process_batch). No-op without a pool; implies the verdict pipeline so
  /// group workers never touch the sigcache or a digest cache.
  void set_parallel_state(bool on) { parallel_state_ = on; }
  bool parallel_state() const {
    return parallel_state_ && verify_pool_ != nullptr;
  }
  /// Wires the `parallel.validate.*` / `parallel.state.*` metrics. May be
  /// null.
  void set_metrics(obs::MetricsRegistry* metrics) {
    pv_.wire(obs::Probe{metrics, nullptr, {}});
    ps_.wire(obs::Probe{metrics, nullptr, {}});
  }

  // ---- Queries -----------------------------------------------------------
  const AccountInfo* account(const crypto::AccountId& id) const;
  std::optional<LatticeBlock> find_block(const BlockHash& hash) const;
  bool contains(const BlockHash& hash) const;
  Amount balance_of(const crypto::AccountId& id) const;
  std::optional<BlockHash> head_of(const crypto::AccountId& id) const;
  /// The block currently occupying a root, if any (fork inspection).
  std::optional<LatticeBlock> block_at_root(const Root& root) const;

  std::size_t account_count() const { return accounts_.size(); }
  std::uint64_t block_count() const { return block_count_; }

  /// Visits every account's head (frontier sync, paper (V-B node roles).
  void for_each_head(
      const std::function<void(const crypto::AccountId&, const BlockHash&)>&
          fn) const;

  // ---- Pending / settlement (Fig. 3) --------------------------------------
  const std::unordered_map<BlockHash, PendingInfo>& pending() const {
    return pending_;
  }
  std::vector<std::pair<BlockHash, PendingInfo>> pending_for(
      const crypto::AccountId& destination) const;
  /// Recomputed from scratch over pending(); total_weight() reads the
  /// incrementally kept sum instead.
  Amount total_pending() const;

  // ---- Voting weight (paper §III-B) ---------------------------------------
  /// "A representative's weight is calculated as the sum of all balances
  /// for accounts that chose this representative."
  Amount weight_of(const crypto::AccountId& representative) const;
  /// == supply minus pending amounts; O(1), read on every vote tally.
  Amount total_weight() const { return supply_ - pending_total_; }

  // ---- Conflict resolution support (§IV-B) --------------------------------
  /// Removes `hash` and everything depending on it (later blocks in its
  /// account chain, plus receives of rolled-back sends, recursively).
  /// Refuses to roll back cemented blocks. Returns the removed blocks.
  Result<std::vector<LatticeBlock>> rollback(const BlockHash& hash);

  /// Marks a block (and its ancestors) irreversible -- Nano's
  /// block-cementing (paper §IV-B: "prevent transactions from being rolled
  /// back after a certain period of time").
  Status cement(const BlockHash& hash);
  bool is_cemented(const BlockHash& hash) const;

  // ---- Persistent storage (ISSUE 9) ---------------------------------------
  /// Writes the lattice through to `store`: every applied block is appended
  /// to the log under RecordType::kBlock, the state backend tracks each
  /// account's frontier (head hash + balance — the §V-B "accounts keep
  /// record of account balances" state), rollbacks erase, and
  /// prune_history() becomes a log-catalog compaction. On a fresh store the
  /// genesis block is persisted; on a recovered one existing records are
  /// kept — combine with replay_from_store(). Mode-independent arithmetic:
  /// attaching a store never changes traces or results across modes.
  void attach_store(std::shared_ptr<storage::LedgerStore> store);
  const storage::LedgerStore* store() const { return store_.get(); }

  /// Recovery: decodes every kBlock record in append order and re-offers
  /// it to process(). Append order is admission order, so predecessors and
  /// source sends always precede their dependents. Returns blocks
  /// accepted; duplicates (genesis, already-replayed) are skipped.
  std::size_t replay_from_store();

  // ---- Pruning (§V-B) ------------------------------------------------------
  /// Discards historical blocks, keeping each account's head (and the
  /// balance it carries). Returns bytes reclaimed. "Since the accounts keep
  /// record of account balances... all other historical data can be
  /// discarded."
  std::uint64_t prune_history();

  struct StorageBreakdown {
    std::uint64_t blocks = 0;        // stored lattice blocks
    std::uint64_t pending_table = 0;
    std::uint64_t weight_table = 0;
    std::uint64_t total() const {
      return blocks + pending_table + weight_table;
    }
  };
  StorageBreakdown storage() const;

  /// Invariant check: balances + pending == supply (tests).
  bool conserves_value() const;

 private:
  struct BlockLocation {
    crypto::AccountId account;
    std::uint32_t height = 0;
  };

  /// Joined results of the stateless checks for one block (the shared
  /// single-signature verdict from core/validation.hpp).
  using StatelessVerdict = core::StatelessVerdict;

  /// Runs the stateless checks across the verify pool: the content hash is
  /// memoized and the sigcache probed on the calling (simulation) thread,
  /// workers evaluate only pure functions, and fresh signature successes
  /// enter the cache at the join — exactly where the serial path's
  /// verify_cached would insert them.
  StatelessVerdict compute_verdict(const LatticeBlock& block) const;

  /// The single definition of lattice-block validity, parameterized over
  /// the state view so the serial path (view = the live ledger maps) and
  /// the sharded batch pipeline (view = frozen ledger + group overlay)
  /// cannot diverge: same checks, same error codes, in the same order.
  /// A View provides:
  ///   const LatticeBlock* head_of(account)       — account head or null
  ///   std::optional<AccountId> location_account(hash)
  ///   const PendingInfo* pending(link)           — unclaimed send or null
  ///   bool claimed(link)
  template <typename View>
  Status validate_with(const View& view, const LatticeBlock& block,
                       const StatelessVerdict* verdict) const {
    const bool sig_ok =
        verdict ? verdict->sig_ok : block.verify_signature(sigcache_.get());
    if (!sig_ok) return make_error("bad-signature");
    if (params_.verify_work) {
      const bool work_ok =
          verdict ? verdict->work_ok : block.verify_work(params_.work_bits);
      if (!work_ok)
        return make_error("insufficient-work",
                          "anti-spam hashcash below threshold");
    }

    const LatticeBlock* head = view.head_of(block.account);

    if (block.type == BlockType::kOpen) {
      if (!block.previous.is_zero())
        return make_error("malformed", "open block with a predecessor");
      if (head) return make_error("fork", "account already opened");
      const PendingInfo* pend = view.pending(block.link);
      if (!pend) {
        // Distinguish a never-seen source from an already-claimed one.
        if (view.claimed(block.link)) return make_error("already-claimed");
        return make_error("gap-source", "unknown source send");
      }
      if (!(pend->destination == block.account))
        return make_error("wrong-destination");
      if (block.balance != pend->amount)
        return make_error("bad-balance", "open must equal the pending amount");
      return Status::success();
    }

    if (!head)
      return make_error("gap-previous", "account chain does not exist");
    if (block.previous != head->hash()) {
      const std::optional<crypto::AccountId> loc =
          view.location_account(block.previous);
      if (loc && *loc == block.account)
        return make_error("fork", "a successor already occupies this root");
      return make_error("gap-previous", "predecessor not found");
    }

    switch (block.type) {
      case BlockType::kSend: {
        if (block.link.is_zero())
          return make_error("malformed", "send without destination");
        if (block.balance >= head->balance)
          return make_error("bad-balance", "send must decrease the balance");
        return Status::success();
      }
      case BlockType::kReceive: {
        const PendingInfo* pend = view.pending(block.link);
        if (!pend) {
          if (view.claimed(block.link)) return make_error("already-claimed");
          return make_error("gap-source", "unknown source send");
        }
        if (!(pend->destination == block.account))
          return make_error("wrong-destination");
        if (block.balance != head->balance + pend->amount)
          return make_error("bad-balance",
                            "receive must add exactly the pending amount");
        return Status::success();
      }
      case BlockType::kChange: {
        if (block.balance != head->balance)
          return make_error("bad-balance", "change must keep the balance");
        return Status::success();
      }
      case BlockType::kOpen:
        break;  // handled above
    }
    return make_error("malformed", "unknown block type");
  }

  /// Direct view over the live ledger maps (the serial path).
  struct DirectView {
    const Ledger* l;
    const LatticeBlock* head_of(const crypto::AccountId& id) const;
    std::optional<crypto::AccountId> location_account(
        const BlockHash& hash) const;
    const PendingInfo* pending(const BlockHash& link) const;
    bool claimed(const BlockHash& link) const;
  };

  Status validate(const LatticeBlock& block,
                  const StatelessVerdict* verdict = nullptr) const;
  /// Duplicate check + validate + apply, with an optional pre-computed
  /// verdict (batch pipeline / demoted batches).
  Status process_one(const LatticeBlock& block, const BlockHash& hash,
                     const StatelessVerdict* verdict);
  /// The mutation half of process(): applies an already-validated block.
  void apply_validated(const LatticeBlock& block, const BlockHash& hash);
  void apply_weight_change(const crypto::AccountId& old_rep, Amount old_bal,
                           const crypto::AccountId& new_rep, Amount new_bal);
  /// Store write-through at the apply/rollback commit points.
  void persist_apply(const LatticeBlock& block, const BlockHash& hash);
  void persist_rollback(const LatticeBlock& block, const BlockHash& hash);
  Status rollback_one(const BlockHash& hash,
                      std::vector<LatticeBlock>& removed);

  LatticeParams params_;
  LatticeBlock genesis_;
  Amount supply_;

  std::unordered_map<crypto::AccountId, AccountInfo> accounts_;
  std::unordered_map<BlockHash, BlockLocation> locations_;
  std::unordered_map<BlockHash, PendingInfo> pending_;
  // Sum of pending_ amounts, kept at every pending_ insert and erase.
  Amount pending_total_ = 0;
  // Claimed sends: send hash -> (claiming block hash, original info);
  // needed to restore pending entries on rollback.
  std::unordered_map<BlockHash, std::pair<BlockHash, PendingInfo>> claimed_;
  std::unordered_map<crypto::AccountId, Amount> weights_;
  std::uint64_t block_count_ = 0;
  std::uint64_t pruned_blocks_ = 0;
  std::shared_ptr<storage::LedgerStore> store_;
  std::shared_ptr<crypto::SignatureCache> sigcache_;
  std::shared_ptr<support::ThreadPool> verify_pool_;
  bool parallel_validation_ = false;
  bool parallel_state_ = false;
  mutable obs::ParallelValidationMetrics pv_;
  mutable obs::ParallelStateMetrics ps_;
};

}  // namespace dlt::lattice
