// SHA-256 against FIPS 180-4 / NIST test vectors, plus the hashing helpers,
// plus differential tests of the SHA-NI kernel against the scalar reference.
// The vectors run on whichever kernel this CPU dispatches to.
#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "crypto/hash.hpp"
#include "crypto/sha256.hpp"
#include "support/hex.hpp"
#include "support/rng.hpp"

namespace dlt::crypto {
namespace {

std::string digest_hex(std::string_view msg) {
  return to_hex(Sha256::digest(as_bytes(msg)));
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: padding spills into a second block.
  const std::string msg(64, 'a');
  EXPECT_EQ(digest_hex(msg),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
  // 55 bytes: the largest message whose padding fits one block.
  EXPECT_EQ(digest_hex(std::string(55, 'a')),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(digest_hex(std::string(56, 'a')),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(as_bytes(chunk));
  EXPECT_EQ(to_hex(ctx.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingEqualsOneShot) {
  const std::string msg =
      "the quick brown fox jumps over the lazy dog and keeps going";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 ctx;
    ctx.update(as_bytes(std::string_view(msg).substr(0, split)));
    ctx.update(as_bytes(std::string_view(msg).substr(split)));
    EXPECT_EQ(ctx.finalize(), Sha256::digest(as_bytes(msg))) << split;
  }
}

TEST(Sha256, DoubleHashDiffersFromSingle) {
  const Hash256 once = Sha256::digest(as_bytes("abc"));
  const Hash256 twice = sha256d(as_bytes("abc"));
  EXPECT_NE(once, twice);
  EXPECT_EQ(twice, Sha256::digest(once.view()));
}

// ------------------------------------------------ kernel differentials

using State = std::array<std::uint32_t, 8>;

constexpr State kIv = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// One-shot SHA-256 over the scalar kernel only (FIPS 180-4 §5.1.1
/// padding), independent of the dispatched streaming path.
Hash256 scalar_digest(ByteView data) {
  State h = kIv;
  const std::size_t whole = data.size() / 64;
  detail::sha256_compress_scalar(h.data(), data.data(), whole);
  Byte tail[128] = {};
  const std::size_t rest = data.size() - 64 * whole;
  if (rest > 0) std::memcpy(tail, data.data() + 64 * whole, rest);
  tail[rest] = 0x80;
  const std::size_t tail_len = rest < 56 ? 64 : 128;
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i)
    tail[tail_len - 1 - i] = static_cast<Byte>(bits >> (8 * i));
  detail::sha256_compress_scalar(h.data(), tail, tail_len / 64);
  Hash256 out;
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 4; ++j)
      out.v[4 * i + j] = static_cast<Byte>(h[i] >> (24 - 8 * j));
  return out;
}

TEST(Sha256Kernel, HardwareMatchesScalarOnRandomBlocks) {
  if (!detail::sha256_hw_available())
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  Rng rng(0x5a256);
  for (int i = 0; i < 10'000; ++i) {
    State ref, hw;
    for (std::uint32_t& w : ref) w = static_cast<std::uint32_t>(rng.next());
    hw = ref;
    Byte blocks[128];
    for (Byte& b : blocks) b = static_cast<Byte>(rng.next());
    const std::size_t n = 1 + static_cast<std::size_t>(i % 2);
    detail::sha256_compress_scalar(ref.data(), blocks, n);
    detail::sha256_compress_hw(hw.data(), blocks, n);
    ASSERT_EQ(ref, hw) << "pair " << i << ", " << n << " block(s)";
  }
}

TEST(Sha256Kernel, StreamingMatchesScalarAtEveryLength) {
  Rng rng(0x57e4);
  Bytes msg(300);
  for (Byte& b : msg) b = static_cast<Byte>(rng.next());
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    const ByteView view{msg.data(), len};
    const Hash256 want = scalar_digest(view);
    ASSERT_EQ(Sha256::digest(view), want) << "one-shot, len " << len;
    for (int trial = 0; trial < 4; ++trial) {
      Sha256 ctx;
      std::size_t off = 0;
      while (off < len) {
        const std::size_t take = std::min<std::size_t>(
            len - off, rng.uniform_range(0, 70));
        ctx.update(ByteView{msg.data() + off, take});
        off += take;
      }
      ASSERT_EQ(ctx.finalize(), want) << "chunked, len " << len;
    }
  }
}

TEST(TaggedHash, DomainSeparation) {
  const Hash256 a = tagged_hash("domain-a", as_bytes("payload"));
  const Hash256 b = tagged_hash("domain-b", as_bytes("payload"));
  EXPECT_NE(a, b);
  // Deterministic.
  EXPECT_EQ(a, tagged_hash("domain-a", as_bytes("payload")));
}

TEST(TaggedHash, CombineOrderMatters) {
  Hash256 l = Sha256::digest(as_bytes("l"));
  Hash256 r = Sha256::digest(as_bytes("r"));
  EXPECT_NE(combine("t", l, r), combine("t", r, l));
}

TEST(HashHelpers, PrefixU64BigEndian) {
  Hash256 h;
  h.v[0] = 0x01;
  h.v[7] = 0xff;
  EXPECT_EQ(hash_prefix_u64(h), 0x01000000000000ffULL);
}

TEST(HashHelpers, LeadingZeroBits) {
  Hash256 h;  // all zero
  EXPECT_EQ(leading_zero_bits(h), 256);
  h.v[0] = 0x80;
  EXPECT_EQ(leading_zero_bits(h), 0);
  h.v[0] = 0x01;
  EXPECT_EQ(leading_zero_bits(h), 7);
  h.v[0] = 0x00;
  h.v[1] = 0x10;
  EXPECT_EQ(leading_zero_bits(h), 11);
}

}  // namespace
}  // namespace dlt::crypto
