#include "crypto/sha256.hpp"

#include <cassert>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define DLT_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define DLT_SHA256_X86 0
#endif

namespace dlt::crypto {
namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

namespace detail {

void sha256_compress_scalar(std::uint32_t state[8], const Byte* p,
                            std::size_t blocks) {
  for (; blocks > 0; --blocks, p += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(p[4 * i]) << 24) |
             (static_cast<std::uint32_t>(p[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(p[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(p[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if DLT_SHA256_X86

bool sha256_hw_available() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool ssse3 = (ecx >> 9) & 1u;
  const bool sse41 = (ecx >> 19) & 1u;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool sha = (ebx >> 29) & 1u;
  return sha && ssse3 && sse41;
}

// The SHA extensions keep the eight chaining words as two vectors,
// ABEF and CDGH. Each sha256rnds2 runs two rounds from the low two lanes
// of a (W + K) vector; sha256msg1/msg2 compute the message schedule four
// words at a time. msg[j] holds W[4n..4n+3] for the 4-word group n with
// n % 4 == j, refilled with group n + 4 right after group n is consumed.
__attribute__((target("sha,sse4.1,ssse3"))) void sha256_compress_hw(
    std::uint32_t state[8], const Byte* p, std::size_t blocks) {
  // Byte-swaps each 32-bit lane: the message is big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  dcba = _mm_shuffle_epi32(dcba, 0xB1);  // CDAB
  hgfe = _mm_shuffle_epi32(hgfe, 0x1B);  // EFGH
  __m128i abef = _mm_alignr_epi8(dcba, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, dcba, 0xF0);

  for (; blocks > 0; --blocks, p += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i msg[4];
    for (int j = 0; j < 4; ++j)
      msg[j] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * j)),
          bswap);

#pragma GCC unroll 16
    for (int n = 0; n < 16; ++n) {
      const __m128i wk = _mm_add_epi32(
          msg[n & 3],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * n)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (n < 12) {
        // W[t] = W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]), t in group
        // n + 4: msg1 covers the first two terms, alignr picks W[t-7].
        __m128i next = _mm_sha256msg1_epu32(msg[n & 3], msg[(n + 1) & 3]);
        next = _mm_add_epi32(
            next, _mm_alignr_epi8(msg[(n + 3) & 3], msg[(n + 2) & 3], 4));
        msg[n & 3] = _mm_sha256msg2_epu32(next, msg[(n + 3) & 3]);
      }
    }

    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));  // HGFE
}

#else

bool sha256_hw_available() { return false; }

void sha256_compress_hw(std::uint32_t state[8], const Byte* p,
                        std::size_t blocks) {
  sha256_compress_scalar(state, p, blocks);
}

#endif

}  // namespace detail

namespace {

using CompressFn = void (*)(std::uint32_t*, const Byte*, std::size_t);

/// The compression every Sha256 context runs, picked from CPUID on first
/// use (a function-local static, so hashing during static initialisation
/// is safe).
CompressFn compress_fn() {
  static const CompressFn fn = detail::sha256_hw_available()
                                   ? detail::sha256_compress_hw
                                   : detail::sha256_compress_scalar;
  return fn;
}

}  // namespace

Sha256::Sha256() {
  std::memcpy(h_, kInit, sizeof(h_));
}

void Sha256::process_blocks(const Byte* p, std::size_t blocks) {
  compress_fn()(h_, p, blocks);
}

void Sha256::update(ByteView data) {
  assert(!finalized_);
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buf_len_);
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == 64) {
      process_blocks(buf_, 1);
      buf_len_ = 0;
    }
  }
  const std::size_t whole = (data.size() - off) / 64;
  if (whole > 0) {
    process_blocks(data.data() + off, whole);
    off += 64 * whole;
  }
  if (off < data.size()) {
    std::memcpy(buf_, data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Hash256 Sha256::finalize() {
  assert(!finalized_);

  const std::uint64_t bit_len = total_len_ * 8;
  // Append 0x80, then zeros until 8 bytes remain in the block, then the
  // big-endian bit length (FIPS 180-4 §5.1.1). Works directly on buf_.
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_ + buf_len_, 0, 64 - buf_len_);
    process_blocks(buf_, 1);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i)
    buf_[56 + i] = static_cast<Byte>(bit_len >> (8 * (7 - i)));
  process_blocks(buf_, 1);
  buf_len_ = 0;
  finalized_ = true;

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out.v[4 * i] = static_cast<Byte>(h_[i] >> 24);
    out.v[4 * i + 1] = static_cast<Byte>(h_[i] >> 16);
    out.v[4 * i + 2] = static_cast<Byte>(h_[i] >> 8);
    out.v[4 * i + 3] = static_cast<Byte>(h_[i]);
  }
  return out;
}

Sha256Midstate Sha256::midstate() const {
  assert(!finalized_);
  Sha256Midstate m;
  std::memcpy(m.h, h_, sizeof(h_));
  std::memcpy(m.buf, buf_, sizeof(buf_));
  m.buf_len = buf_len_;
  m.total_len = total_len_;
  return m;
}

Sha256 Sha256::from_midstate(const Sha256Midstate& m) {
  Sha256 ctx;
  std::memcpy(ctx.h_, m.h, sizeof(ctx.h_));
  std::memcpy(ctx.buf_, m.buf, sizeof(ctx.buf_));
  ctx.buf_len_ = m.buf_len;
  ctx.total_len_ = m.total_len;
  return ctx;
}

Hash256 Sha256::digest(ByteView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finalize();
}

Hash256 sha256d(ByteView data) {
  const Hash256 first = Sha256::digest(data);
  return Sha256::digest(first.view());
}

}  // namespace dlt::crypto
