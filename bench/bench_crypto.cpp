// Micro-benchmarks for the cryptographic substrate everything else rests
// on: SHA-256 (both compression kernels), Merkle trees, the state trie,
// hashcash, signatures, and the storage-frame CRC-32.
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "crypto/hashcash.hpp"
#include "crypto/keys.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "crypto/trie.hpp"
#include "obs/metrics.hpp"
#include "storage/crc32.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace dlt::crypto {
namespace {

void BM_Sha256(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  Bytes data(size, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::digest(ByteView{data.data(), size}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

/// One 64-byte compression per iteration, chained so each call depends on
/// the last (the shape of every multi-block hash).
void BM_Sha256Compress(benchmark::State& state,
                       void (*compress)(std::uint32_t*, const Byte*,
                                        std::size_t),
                       bool needs_hw) {
  if (needs_hw && !detail::sha256_hw_available()) {
    state.SkipWithError("CPU lacks the SHA extensions");
    return;
  }
  std::uint32_t h[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  Byte block[64] = {};
  for (auto _ : state) {
    compress(h, block, 1);
    benchmark::DoNotOptimize(h);
    block[0] = static_cast<Byte>(h[0]);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK_CAPTURE(BM_Sha256Compress, scalar, detail::sha256_compress_scalar,
                  false);
BENCHMARK_CAPTURE(BM_Sha256Compress, hw, detail::sha256_compress_hw, true);

/// A storage frame's CRC: 216 bytes is a lattice block record, 1024 a
/// larger payload.
void BM_Crc32(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  Bytes data(size, 0x3c);
  for (auto _ : state)
    benchmark::DoNotOptimize(storage::crc32(ByteView{data.data(), size}));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Crc32)->Arg(216)->Arg(1024);

void BM_Sha256d(benchmark::State& state) {
  Bytes data(80, 0x5a);  // a block header's worth
  for (auto _ : state)
    benchmark::DoNotOptimize(sha256d(ByteView{data.data(), data.size()}));
}
BENCHMARK(BM_Sha256d);

void BM_MerkleRoot(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Hash256> leaves;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string s = "tx" + std::to_string(i);
    leaves.push_back(Sha256::digest(as_bytes(s)));
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(MerkleTree::compute_root(leaves));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MerkleRoot)->Arg(16)->Arg(256)->Arg(4096);

void BM_MerkleProveVerify(benchmark::State& state) {
  std::vector<Hash256> leaves;
  for (std::size_t i = 0; i < 1024; ++i)
    leaves.push_back(Sha256::digest(as_bytes("tx" + std::to_string(i))));
  MerkleTree tree(leaves);
  for (auto _ : state) {
    auto proof = tree.prove(512);
    benchmark::DoNotOptimize(
        MerkleTree::verify(tree.root(), leaves[512], 512, *proof));
  }
}
BENCHMARK(BM_MerkleProveVerify);

void BM_TriePut(benchmark::State& state) {
  const std::size_t base = static_cast<std::size_t>(state.range(0));
  Trie trie;
  for (std::size_t i = 0; i < base; ++i)
    trie = trie.put(Sha256::digest(as_bytes("k" + std::to_string(i))),
                    to_bytes("v" + std::to_string(i)));
  std::uint64_t i = base;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trie.put(Sha256::digest(as_bytes("k" + std::to_string(i++))),
                 to_bytes("fresh")));
  }
}
BENCHMARK(BM_TriePut)->Arg(100)->Arg(10000);

void BM_TrieRootHash(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Trie trie;
  for (std::size_t i = 0; i < n; ++i)
    trie = trie.put(Sha256::digest(as_bytes("k" + std::to_string(i))),
                    to_bytes("value"));
  for (auto _ : state) {
    // One fresh leaf invalidates a path; root recomputes incrementally.
    Trie t = trie.put(Sha256::digest(as_bytes("probe")), to_bytes("x"));
    benchmark::DoNotOptimize(t.root_hash());
  }
}
BENCHMARK(BM_TrieRootHash)->Arg(1000);

void BM_HashcashSolve(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::string payload = "blk" + std::to_string(i++);
    benchmark::DoNotOptimize(solve(as_bytes(payload), bits));
  }
}
BENCHMARK(BM_HashcashSolve)->Arg(8)->Arg(12)->Arg(16);

void BM_SignVerify(benchmark::State& state) {
  Rng rng(1);
  KeyPair kp = KeyPair::generate(rng);
  const Bytes msg = to_bytes("a payment of 100 units");
  for (auto _ : state) {
    Signature sig = kp.sign(ByteView{msg.data(), msg.size()}, rng);
    benchmark::DoNotOptimize(
        verify(kp.public_key(), ByteView{msg.data(), msg.size()}, sig));
  }
}
BENCHMARK(BM_SignVerify);

}  // namespace
}  // namespace dlt::crypto

namespace {

/// Console output as usual, plus every run lands in a MetricsRegistry so
/// BENCH_crypto.json carries the same `metrics` section as the other
/// benches (wall-clock micro timings under the profile. prefix).
class RegistryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      registry.histogram("profile." + run.benchmark_name() + "_ns")
          .observe(run.GetAdjustedRealTime());
    }
  }

  dlt::obs::MetricsRegistry registry;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RegistryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Sha256 dispatches to SHA-NI exactly when the CPU has it.
  const char* kernel =
      dlt::crypto::detail::sha256_hw_available() ? "sha-ni" : "scalar";
  dlt::support::JsonObject report;
  report.put("bench", "crypto");
  report.put("sha256_kernel", kernel);
  report.put_raw("metrics", reporter.registry.to_json().to_string());
  dlt::support::write_bench_report("crypto", report);
  std::cout << "SHA-256 kernel in use: " << kernel
            << "\nWrote BENCH_crypto.json\n";
  return 0;
}
