// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Every hash in the system -- block ids, transaction ids, Merkle nodes,
// trie nodes, PoW puzzles, account ids -- goes through this implementation,
// exactly as Bitcoin does with SHA-256d (paper §III-A1: "partial hash
// inversion requires that the hash of a block of transactions together with
// a nonce matches a certain pattern").
//
// The compression function has two kernels. On x86-64 CPUs with the SHA
// extensions (SHA-NI) it runs on sha256rnds2/msg1/msg2; everywhere else
// it runs the portable scalar code, which stays the reference. The kernel
// is picked once from CPUID at first use. Both give identical digests, so
// every hash, signature, PoW verdict and trace is the same on any host.
#pragma once

#include <cstddef>
#include <cstdint>

#include "support/bytes.hpp"

namespace dlt::crypto {

/// Captured intermediate hashing state: the chaining values plus any
/// buffered partial block. Saving the midstate after hashing a common
/// prefix (a PoW payload, a tag preamble) lets many suffixes be hashed
/// without re-processing the prefix -- the same trick Bitcoin miners use
/// for the 80-byte header.
struct Sha256Midstate {
  std::uint32_t h[8];
  Byte buf[64];
  std::size_t buf_len = 0;
  std::uint64_t total_len = 0;
};

class Sha256 {
 public:
  Sha256();

  /// Streaming interface.
  void update(ByteView data);
  Hash256 finalize();

  /// One-shot convenience.
  static Hash256 digest(ByteView data);

  /// Midstate save/restore. `midstate()` snapshots the streaming state
  /// after the updates so far (must not be finalized); `from_midstate()`
  /// resumes from a snapshot, ready for further update()/finalize().
  /// Contexts are also plainly copyable, which is equivalent.
  Sha256Midstate midstate() const;
  static Sha256 from_midstate(const Sha256Midstate& m);

 private:
  void process_blocks(const Byte* data, std::size_t blocks);

  std::uint32_t h_[8];
  Byte buf_[64];
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finalized_ = false;
};

namespace detail {

// The two compression kernels, exposed for differential tests and
// microbenches only; Sha256 picks between them by itself. Each folds
// `blocks` consecutive 64-byte blocks into the chaining `state`.
void sha256_compress_scalar(std::uint32_t state[8], const Byte* data,
                            std::size_t blocks);
/// Requires sha256_hw_available(); falls back to the scalar kernel on
/// non-x86 builds.
void sha256_compress_hw(std::uint32_t state[8], const Byte* data,
                        std::size_t blocks);
/// True when the CPU has SHA-NI plus SSSE3 and SSE4.1.
bool sha256_hw_available();

}  // namespace detail

/// SHA-256(SHA-256(x)) -- Bitcoin's block/tx hash.
Hash256 sha256d(ByteView data);

}  // namespace dlt::crypto
