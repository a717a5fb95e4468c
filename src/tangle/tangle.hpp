// An IOTA-style tangle (paper §II-B, footnote 1: "Other DAG approaches
// are IOTA and Byteball").
//
// Where Nano's block-lattice gives each account its own chain, the tangle
// is a single DAG in which every transaction approves TWO earlier
// transactions (trunk and branch). Issuers perform a small proof of work
// per transaction (spam protection, as in §III-B) and implicitly vote for
// the history they approve. Confirmation confidence of a transaction is
// the fraction of current tips whose past cone contains it; cumulative
// weight (1 + number of approvers, direct and indirect) drives the
// biased random walk used for tip selection (the whitepaper's MCMC).
//
// Double spends are modelled with an optional `spend_key`: two
// transactions sharing a spend key conflict, a consistent cone may
// contain at most one of them, and the network's tip selection starves
// the losing side -- the tangle's §IV analogue of fork resolution.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crypto/hashcash.hpp"
#include "crypto/keys.hpp"
#include "obs/probe.hpp"
#include "storage/ledger_store.hpp"
#include "support/result.hpp"
#include "support/rng.hpp"

namespace dlt::tangle {

using TxHash = Hash256;

struct TangleTx {
  crypto::AccountId issuer;
  TxHash trunk;    // first approved transaction
  TxHash branch;   // second approved transaction (may equal trunk)
  Hash256 payload; // opaque content commitment
  /// Two transactions with the same (nonzero) spend key conflict.
  Hash256 spend_key;
  double timestamp = 0.0;
  /// Issuer-declared weight this transaction contributes to every cone it
  /// joins (the whitepaper's "own weight"; 1 in vanilla IOTA). Hashed, so
  /// it cannot be reweighted after signing; capped by
  /// TangleParams::max_own_weight at attach (large-weight spam defence).
  std::uint64_t own_weight = 1;
  std::uint64_t work = 0;
  std::uint64_t pubkey = 0;
  crypto::Signature signature{};

  TxHash hash() const;
  Bytes work_payload() const;
  void solve_work(int difficulty_bits);
  bool verify_work(int difficulty_bits) const;
  void sign(const crypto::KeyPair& key, Rng& rng);
  bool verify_signature() const;

  /// Lossless storage codec (RecordType::kSite): the canonical fields with
  /// the timestamp double bit-cast, plus work/pubkey/signature.
  Bytes serialize() const;
  static Result<TangleTx> deserialize(ByteView raw);

  static constexpr std::size_t kSerializedSize = 32 * 5 + 8 * 5;
};

/// Tip-selection strategy (ISSUE 8). The whitepaper's MCMC walk is the
/// reference; `uniform` and `mrts` are the degenerate strategies the SoK
/// literature uses as attack baselines (uniform random tip, most-recent
/// tips). Pluggable per tangle via TangleParams::tip_selection, per node
/// via TangleNodeConfig::tip_selection, and per process via the
/// DLT_TIP_SELECTION env knob (tangle/tip_selection.hpp).
enum class TipStrategy {
  kMcmc = 0,     // biased random walk, exp(alpha * cumulative weight)
  kUniform = 1,  // uniform over current tips (canonical hash order)
  kMrts = 2,     // uniform over the most-recent (max timestamp) tips
};

struct TangleParams {
  int work_bits = 4;
  bool verify_work = true;
  /// MCMC walk bias: 0 = uniform random walk, higher = steeper preference
  /// for heavy branches (faster conflict starvation, more orphaned tips).
  double alpha = 0.05;
  /// Strategy select_tip() / walk_confidence() dispatch to.
  TipStrategy tip_selection = TipStrategy::kMcmc;
  /// Upper bound on TangleTx::own_weight a node accepts ("bad-weight"
  /// otherwise). 1 = vanilla IOTA; raising it admits weighted transactions
  /// and with them the large-weight-spam adversary (ISSUE 9 satellite).
  std::uint64_t max_own_weight = 1;
};

class Tangle {
 public:
  explicit Tangle(TangleParams params);

  const TangleParams& params() const { return params_; }
  const TxHash& genesis() const { return genesis_hash_; }
  std::size_t size() const { return txs_.size(); }

  /// Validates and attaches a transaction: signature, work, both parents
  /// present, and the union of the parents' past cones free of spend-key
  /// conflicts (with each other and with the new transaction).
  Status attach(const TangleTx& tx);

  bool contains(const TxHash& hash) const { return txs_.count(hash) != 0; }
  const TangleTx* find(const TxHash& hash) const;

  /// Transactions no one approves yet.
  std::vector<TxHash> tips() const;
  std::size_t tip_count() const { return tips_.size(); }

  /// Sum of own weights over `hash`'s future cone (itself plus every
  /// transaction referencing it, directly or transitively) -- the
  /// whitepaper's cumulative weight. With unit own weights this is the
  /// classic "1 + number of approvers".
  std::size_t cumulative_weight(const TxHash& hash) const;

  /// Fraction of current tips whose past cone contains `hash`; the
  /// tangle's confirmation confidence (compare §IV's depth rule).
  double confirmation_confidence(const TxHash& hash) const;

  /// Monte-Carlo confidence: the probability that a fresh transaction's
  /// tip-selection walk approves `hash`. Unlike the tip fraction, stale
  /// abandoned tips barely matter because the walk rarely reaches them.
  double walk_confidence(const TxHash& hash, Rng& rng,
                         int samples = 64) const;

  /// Tip selection with the configured strategy (params().tip_selection):
  /// the MCMC weighted random walk by default, or one of the pluggable
  /// baseline strategies. Never selects into a cone that conflicts with
  /// `spend_keys` (the issuer's own pending spends). Returns a tip (or an
  /// interior vertex when every tip's cone conflicts — MCMC — / genesis —
  /// uniform, mrts).
  TxHash select_tip(Rng& rng,
                    const std::vector<Hash256>& spend_keys = {}) const;

  /// Tip selection with an explicit strategy (ignores the configured one).
  /// RNG discipline, pinned by tests/tip_selection_test.cpp: `uniform` and
  /// `mrts` consume exactly one uniform01() draw per selection; `mcmc`
  /// consumes one per walk step. Candidate orderings are canonical (sorted
  /// by hash), so the draw count and the selected tip depend only on the
  /// tangle contents and the RNG stream — never on hash-map order.
  TxHash select_tip_with(TipStrategy strategy, Rng& rng,
                         const std::vector<Hash256>& spend_keys = {}) const;

  /// Every transaction in `hash`'s past cone (ancestors, incl. itself).
  std::unordered_set<TxHash> past_cone(const TxHash& hash) const;

  /// All spend keys present in the past cone of `hash`.
  std::unordered_set<Hash256> cone_spend_keys(const TxHash& hash) const;

  /// Storage model: one node per transaction.
  std::uint64_t stored_bytes() const {
    return txs_.size() * TangleTx::kSerializedSize;
  }

  // ---- Persistent storage (ISSUE 9) ---------------------------------------
  /// Writes the tangle through to `store`: every attached transaction is
  /// appended to the log under RecordType::kSite and the state backend
  /// mirrors the current tip set (the head-only state §V-B keeps). On a
  /// fresh store the genesis site is persisted; on a recovered one
  /// existing records are kept — combine with replay_from_store().
  void attach_store(std::shared_ptr<storage::LedgerStore> store);
  const storage::LedgerStore* store() const { return store_.get(); }

  /// Recovery: decodes every kSite record in append order and re-offers it
  /// to attach(). Append order is admission order, so parents always
  /// precede children. Returns transactions accepted.
  std::size_t replay_from_store();

  /// §V-B head-only pruning as a log-catalog operation: erases the kSite
  /// records of every interior (non-tip, non-genesis) transaction and
  /// compacts the log. The in-RAM DAG is untouched — cone checks still
  /// work — so this is purely a storage discipline. Returns the physical
  /// bytes reclaimed by compaction.
  std::uint64_t prune_history();

  /// Observability: tangle.attached / tangle.rejected counters plus a
  /// tip_attached trace per accepted transaction. Trace timestamps use
  /// TangleTx::timestamp (issuer-assigned logical time — the tangle has
  /// no simulation clock), keeping traces deterministic.
  void set_probe(obs::Probe probe);

  /// Node id stamped on tip_attached trace events. Standalone tangles keep
  /// the historical 0; cluster replicas set their net::NodeId so per-node
  /// attach order is visible in traces.
  void set_trace_node(std::uint32_t node) { trace_node_ = node; }

 private:
  /// Validates and inserts `tx`; attach() adds the counters and trace.
  Status attach_impl(const TangleTx& tx);
  /// Signature, work and own-weight policy: checks of `tx` alone.
  Status check_stateless(const TangleTx& tx) const;
  /// Parents present, combined past cone conflict-free, and no double
  /// spend of the new transaction's own key within that cone.
  Status check_cones(const TangleTx& tx) const;
  bool cone_conflicts(const TxHash& a, const TxHash& b) const;

  TangleParams params_;
  TxHash genesis_hash_;
  std::unordered_map<TxHash, TangleTx> txs_;
  std::unordered_map<TxHash, std::vector<TxHash>> approvers_;  // children
  std::unordered_set<TxHash> tips_;
  // spend_key -> txs carrying it (conflict detection).
  std::unordered_map<Hash256, std::vector<TxHash>> spends_;

  obs::Probe probe_;
  std::uint32_t trace_node_ = 0;
  std::shared_ptr<storage::LedgerStore> store_;
  obs::Counter* obs_attached_ = nullptr;
  obs::Counter* obs_rejected_ = nullptr;
};

/// Convenience issuer: builds, works and signs a transaction approving
/// the two selected tips. `own_weight` above the tangle's max_own_weight
/// yields a transaction attach() rejects — the spam variant.
TangleTx make_tx(const Tangle& tangle, const crypto::KeyPair& issuer,
                 const TxHash& trunk, const TxHash& branch,
                 const Hash256& payload, double timestamp, Rng& rng,
                 const Hash256& spend_key = {},
                 std::uint64_t own_weight = 1);

}  // namespace dlt::tangle
