#include "dist/hmac.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <cpuid.h>
#include <immintrin.h>
#define STATPIPE_SHA_NI 1
#endif

namespace statpipe::dist {

namespace {

// FIPS 180-4 SHA-256.  Digest throughput matters: the service hashes every
// submitted descriptor (up to ~110 KB) for its result-cache key, and an
// authenticated wire MACs every frame.  So compression has two paths over
// the same state layout:
//   * a SHA-NI loop, chosen once per process when cpuid reports the SHA
//     extensions: a 110 KB c3540 grid descriptor hashes in ~75 µs against
//     ~450 µs on the portable loop (one core of an Intel Xeon);
//   * the portable scalar loop, for every other host (arm64 included) and
//     as the oracle the SHA-NI path is tested against on every length.
// The padding and the incremental buffering above them are shared.

constexpr std::uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

constexpr std::uint32_t kRound[64] = {
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

void compress_block(std::uint32_t state[8], const std::uint8_t block[64]) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i)
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
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
    const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
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

#ifdef STATPIPE_SHA_NI

// The standard SHA-NI schedule: state held as ABEF/CDGH, four rounds per
// sha256rnds2 pair, the message schedule extended four words at a time
// with sha256msg1/msg2.
__attribute__((target("sha,sse4.1"))) void compress_shani(
    std::uint32_t state[8], const std::uint8_t* data, std::size_t blocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef0 = abef, cdgh0 = cdgh;
    // w[g % 4] holds message words 4g..4g+3 of the current round group.
    __m128i w[4];
    for (int i = 0; i < 4; ++i)
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          kByteSwap);
    for (int g = 0; g < 16; ++g) {
      __m128i msg = _mm_add_epi32(
          w[g & 3],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
      if (g < 12) {  // words 4(g+4).. replace the group just consumed
        __m128i t = _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]);
        t = _mm_add_epi32(t, _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4));
        w[g & 3] = _mm_sha256msg2_epu32(t, w[(g + 3) & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

bool cpu_has_sha_ni() noexcept {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d) || (c & bit_SSE4_1) == 0) return false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b & (1u << 29)) != 0;  // leaf 7, EBX bit 29: SHA extensions
}

#endif  // STATPIPE_SHA_NI

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t* data,
                              std::size_t blocks) noexcept {
  for (; blocks > 0; --blocks, data += 64) compress_block(state, data);
}

Sha256Compress sha256_compress_dispatched() noexcept {
#ifdef STATPIPE_SHA_NI
  static const Sha256Compress chosen =
      cpu_has_sha_ni() ? compress_shani : sha256_compress_portable;
  return chosen;
#else
  return sha256_compress_portable;
#endif
}

}  // namespace detail

// ---------------------------------------------------------------- Sha256

Sha256::Sha256(detail::Sha256Compress compress) noexcept
    : compress_(compress) {
  std::memcpy(state_, kInit, sizeof state_);
}

Sha256& Sha256::update(std::span<const std::uint8_t> data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (n == 0) return *this;  // an empty span may carry a null data()
  length_ += n;
  if (fill_ > 0) {
    const std::size_t take = std::min(n, sizeof block_ - fill_);
    std::memcpy(block_ + fill_, p, take);
    fill_ += take;
    p += take;
    n -= take;
    if (fill_ < sizeof block_) return *this;
    compress_(state_, block_, 1);
    fill_ = 0;
  }
  if (n >= 64) {
    compress_(state_, p, n / 64);
    p += n / 64 * 64;
    n %= 64;
  }
  if (n > 0) std::memcpy(block_, p, n);
  fill_ = n;
  return *this;
}

Digest Sha256::final() noexcept {
  // Final block(s): remainder, 0x80 pad, zeros, 64-bit big-endian bit count.
  block_[fill_] = 0x80;
  std::memset(block_ + fill_ + 1, 0, sizeof block_ - fill_ - 1);
  if (fill_ >= 56) {
    compress_(state_, block_, 1);
    std::memset(block_, 0, sizeof block_);
  }
  const std::uint64_t bits = length_ * 8;
  for (int k = 0; k < 8; ++k)
    block_[56 + k] = static_cast<std::uint8_t>(bits >> (8 * (7 - k)));
  compress_(state_, block_, 1);
  Digest out;
  for (int k = 0; k < 8; ++k) {
    out[4 * k] = static_cast<std::uint8_t>(state_[k] >> 24);
    out[4 * k + 1] = static_cast<std::uint8_t>(state_[k] >> 16);
    out[4 * k + 2] = static_cast<std::uint8_t>(state_[k] >> 8);
    out[4 * k + 3] = static_cast<std::uint8_t>(state_[k]);
  }
  return out;
}

Digest sha256(std::span<const std::uint8_t> data) {
  return Sha256().update(data).final();
}

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> head,
                   std::span<const std::uint8_t> tail) {
  constexpr std::size_t kBlock = 64;
  std::uint8_t k0[kBlock] = {};
  if (key.size() > kBlock) {
    const Digest kh = sha256(key);
    std::memcpy(k0, kh.data(), kh.size());
  } else if (!key.empty()) {
    std::memcpy(k0, key.data(), key.size());
  }
  std::uint8_t inner[kBlock], outer[kBlock];
  for (std::size_t i = 0; i < kBlock; ++i) {
    inner[i] = static_cast<std::uint8_t>(k0[i] ^ 0x36);
    outer[i] = static_cast<std::uint8_t>(k0[i] ^ 0x5c);
  }
  const Digest ih = Sha256().update(inner).update(head).update(tail).final();
  return Sha256().update(outer).update(ih).final();
}

bool digest_equal_consttime(const Digest& a, const Digest& b) noexcept {
  // Accumulate the XOR of every byte pair; branch only on the final fold so
  // the time taken is independent of where (or whether) the digests differ.
  volatile std::uint8_t acc = 0;
  for (std::size_t i = 0; i < kDigestSize; ++i)
    acc = static_cast<std::uint8_t>(acc | (a[i] ^ b[i]));
  return acc == 0;
}

FrameAuth FrameAuth::from_passphrase(const std::string& passphrase) {
  FrameAuth a;
  if (passphrase.empty()) return a;
  a.enabled = true;
  a.key = sha256(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(passphrase.data()),
      passphrase.size()));
  return a;
}

FrameAuth FrameAuth::from_env() {
  const char* v = std::getenv("STATPIPE_WIRE_KEY");
  return from_passphrase(v ? std::string(v) : std::string());
}

Digest FrameAuth::mac(std::span<const std::uint8_t> head,
                      std::span<const std::uint8_t> tail) const {
  return hmac_sha256(key, head, tail);
}

}  // namespace statpipe::dist
