// Shared signature-verification cache (Bitcoin Core's sigcache idea).
//
// Schnorr verification is a pure function of (pubkey, sighash, signature):
// the same triple always verifies the same way, no matter which simulated
// node asks. A cluster therefore shares ONE cache across all N nodes -- the
// first node pays the two modular exponentiations, the other N-1 hit the
// cache. Only *successful* verifications are inserted (as in Bitcoin Core),
// so a tampered signature can never be vouched for by the cache: a lookup
// for a bad triple misses and falls through to real verification.
//
// The set is bounded and salted: entries hash through a per-instance salt so
// simulated adversaries cannot engineer collisions, and when full the cache
// resets wholesale (deterministic, unlike random-evict) to stay bounded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>

#include "crypto/keys.hpp"
#include "support/bytes.hpp"

namespace dlt::crypto {

/// Monotonic counters; hit_rate() is the headline bench number.
struct SigCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t resets = 0;  // wholesale evictions on overflow

  double hit_rate() const {
    const double total = static_cast<double>(hits + misses);
    return total > 0 ? static_cast<double>(hits) / total : 0.0;
  }
};

class SignatureCache {
 public:
  explicit SignatureCache(std::size_t max_entries = 1u << 18,
                          std::uint64_t salt = 0x5ca1ab1e0ddba11ULL);

  /// Lookup with stats accounting (counts a hit or a miss).
  bool contains(std::uint64_t pubkey, const Hash256& sighash,
                const Signature& sig);

  /// Lookup without touching stats (contains() counts on top of it).
  bool peek(std::uint64_t pubkey, const Hash256& sighash,
            const Signature& sig) const;

  /// Records a *successful* verification. Never insert failures.
  void insert(std::uint64_t pubkey, const Hash256& sighash,
              const Signature& sig);

  std::size_t size() const { return set_.size(); }
  std::size_t capacity() const { return max_entries_; }
  const SigCacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = SigCacheStats{}; }

 private:
  struct Entry {
    std::uint64_t pubkey;
    Hash256 sighash;
    Signature sig;
    bool operator==(const Entry&) const = default;
  };
  struct EntryHash {
    std::uint64_t salt;
    std::size_t operator()(const Entry& e) const;
  };

  std::size_t max_entries_;
  std::unordered_set<Entry, EntryHash> set_;
  SigCacheStats stats_;
};

/// Cache-aware verification: hit -> true without the exponentiations;
/// miss -> real crypto::verify, inserting on success. `cache` may be null
/// (plain verification). Pure drop-in for crypto::verify on 32-byte
/// sighashes, so sharing the cache across nodes is semantics-preserving.
bool verify_cached(SignatureCache* cache, std::uint64_t pubkey,
                   const Hash256& sighash, const Signature& sig);

}  // namespace dlt::crypto
