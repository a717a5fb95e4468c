// UTXO set: the Bitcoin-model chain state (paper §II-A, §V-B contrast:
// "the accounts keep record of account balances instead of unspent
// transaction inputs").
//
// Applying a block consumes spent outputs and creates new ones, producing
// an undo record so a soft-fork reorg (paper Fig. 4) can roll the state
// back block by block.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chain/transaction.hpp"
#include "chain/validation.hpp"
#include "crypto/keys.hpp"
#include "crypto/sigcache.hpp"
#include "support/result.hpp"

namespace dlt::chain {

/// Undo data for one applied transaction: what it spent (to restore) and
/// what it created (to delete) on revert.
struct TxUndo {
  std::vector<std::pair<Outpoint, TxOut>> spent;
  std::vector<Outpoint> created;
};

struct BlockUndo {
  std::vector<TxUndo> txs;  // in block order
};

/// The single definition of UTXO transaction validity, parameterized over
/// the coin view so the serial path (UtxoSet::check_transaction, lookup =
/// the live set) and the sharded stateful pipeline (lookup = frozen set +
/// group overlay) cannot diverge: same checks, same error codes, in the
/// same order. `lookup(outpoint)` returns std::optional<TxOut>.
template <typename Lookup>
Result<Amount> check_utxo_transaction(const Lookup& lookup,
                                      const UtxoTransaction& tx,
                                      std::uint32_t height,
                                      crypto::SignatureCache* sigcache,
                                      const TxVerdict* verdict) {
  if (tx.lock_height > height)
    return make_error("premature", "lock_height above current height");
  if (tx.is_coinbase())
    return make_error("unexpected-coinbase",
                      "coinbase checked at block level");
  if (tx.outputs.empty()) return make_error("no-outputs");

  const Hash256 digest = tx.sighash();
  Amount in_sum = 0;
  // Duplicate-input detection: the common case is a handful of inputs, so
  // scan the preceding ones linearly (no allocation). Fall back to a hash
  // set only for wide fan-in, keeping adversarial many-input txs O(n).
  constexpr std::size_t kLinearScanMax = 16;
  std::unordered_set<Outpoint> seen;
  if (tx.inputs.size() > kLinearScanMax) seen.reserve(tx.inputs.size());
  for (std::size_t i = 0; i < tx.inputs.size(); ++i) {
    const TxIn& in = tx.inputs[i];
    if (tx.inputs.size() <= kLinearScanMax) {
      for (std::size_t j = 0; j < i; ++j)
        if (tx.inputs[j].prevout == in.prevout)
          return make_error("double-spend", "duplicate input within tx");
    } else if (!seen.insert(in.prevout).second) {
      return make_error("double-spend", "duplicate input within tx");
    }

    const std::optional<TxOut> prev = lookup(in.prevout);
    if (!prev)
      return make_error("missing-utxo", "input not in UTXO set");
    const InputVerdict* iv =
        verdict && i < verdict->inputs.size() ? &verdict->inputs[i] : nullptr;
    const crypto::AccountId signer =
        iv ? iv->signer : crypto::account_of(in.pubkey);
    if (signer != prev->owner)
      return make_error("wrong-owner", "pubkey does not own prevout");
    const bool sig_ok =
        iv ? iv->sig_ok
           : crypto::verify_cached(sigcache, in.pubkey, digest, in.signature);
    if (!sig_ok) return make_error("bad-signature");
    in_sum += prev->value;
  }

  const Amount out_sum = tx.total_output();
  if (out_sum > in_sum)
    return make_error("inflation", "outputs exceed inputs");
  return in_sum - out_sum;  // fee
}

class UtxoSet {
 public:
  std::size_t size() const { return map_.size(); }

  std::optional<TxOut> get(const Outpoint& op) const;
  bool contains(const Outpoint& op) const { return map_.count(op) != 0; }

  /// Validates a transaction against this set and current height:
  /// inputs exist, signatures valid, owners match, no value inflation,
  /// lock height respected. Returns the fee (inputs - outputs). A shared
  /// crypto::SignatureCache skips repeat input-signature verifications.
  /// When `verdict` is given (parallel pipeline), signer derivation and
  /// signature checks are read from its pre-computed slots instead of
  /// being recomputed; both are pure, so errors land at the same input
  /// as the inline serial path.
  Result<Amount> check_transaction(
      const UtxoTransaction& tx, std::uint32_t height,
      crypto::SignatureCache* sigcache = nullptr,
      const TxVerdict* verdict = nullptr) const;

  /// Applies an already-checked transaction; returns its undo record.
  TxUndo apply_transaction(const UtxoTransaction& tx);

  /// Reverts a transaction using its undo record (inverse order of apply).
  void revert_transaction(const TxUndo& undo);

  /// Sum of all unspent values (conservation checks in tests).
  Amount total_value() const;

  /// All outpoints owned by `owner`, via the wallet index (O(own coins)).
  std::vector<std::pair<Outpoint, TxOut>> find_owned(
      const crypto::AccountId& owner) const;

  /// Default `skip` predicate of for_each_owned: visit every coin.
  struct NeverSkip {
    bool operator()(const Outpoint&) const { return false; }
  };

  /// Visits `owner`'s coins in the same wallet-index order as find_owned,
  /// without materializing a vector. `fn(outpoint, txout)` returns false
  /// to stop early (e.g. once a coin selector has gathered enough value).
  /// Coins for which `skip(outpoint)` is true are passed over before the
  /// coin map is probed (a wallet skipping its in-flight reservations
  /// pays no lookup for them); the rest keep the index order.
  template <typename Fn, typename Skip = NeverSkip>
  void for_each_owned(const crypto::AccountId& owner, Fn&& fn,
                      Skip&& skip = Skip{}) const {
    auto idx = by_owner_.find(owner);
    if (idx == by_owner_.end()) return;
    for (const Outpoint& op : idx->second) {
      if (skip(op)) continue;
      auto it = map_.find(op);
      if (it == map_.end()) continue;  // index is kept in lockstep; defensive
      if (!fn(it->first, it->second)) return;
    }
  }

  /// Serialized-size model of the set (chainstate database size).
  std::size_t stored_bytes() const;

 private:
  void drop_index(const Outpoint& op, const crypto::AccountId& owner);

  std::unordered_map<Outpoint, TxOut> map_;
  // Wallet index: owner -> outpoints. Kept in lockstep with map_.
  std::unordered_map<crypto::AccountId, std::unordered_set<Outpoint>>
      by_owner_;
};

}  // namespace dlt::chain
