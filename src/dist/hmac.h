// Frame authentication for the distributed wire: SHA-256, HMAC-SHA256 and
// a constant-time digest comparison, self-contained (no OpenSSL — the
// container toolchain is the only dependency this repo is allowed).
//
// Used by dist/transport.cpp to append a 32-byte HMAC trailer to every
// frame when a shared key is configured (docs/WIRE_FORMAT.md, v3): the MAC
// covers header and payload, so a tampered, truncated-then-padded or
// spliced frame fails verification instead of parsing.  Verification is
// constant-time in the digest comparison so a byte-at-a-time oracle
// cannot recover the MAC.  Scope note: this authenticates peers that hold
// the shared key; it does not encrypt, and it does not by itself prevent
// replay of a captured frame under the same key (see WIRE_FORMAT.md's
// threat-model section).  The same SHA-256 keys the service's result
// cache (dist/result_cache.h), once per submitted descriptor.
//
// Layer contract (src/dist, see docs/ARCHITECTURE.md): the distributed
// execution layer sits on top of mc/sim/stats and may depend on all of
// them; nothing below src/dist may know it exists.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace statpipe::dist {

inline constexpr std::size_t kDigestSize = 32;  ///< SHA-256 output bytes

using Digest = std::array<std::uint8_t, kDigestSize>;

namespace detail {

/// Compresses `blocks` consecutive 64-byte blocks into `state`.
using Sha256Compress = void (*)(std::uint32_t state[8],
                                const std::uint8_t* data,
                                std::size_t blocks);

/// The portable FIPS 180-4 compression: the path on every host without
/// the x86 SHA extensions, and the oracle the SHA-NI path is tested
/// against.
void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t* data,
                              std::size_t blocks) noexcept;

/// The compression Sha256 uses by default: the SHA-NI loop when cpuid
/// reports the SHA extensions (leaf 7, EBX bit 29) and SSE4.1, the
/// portable one otherwise.  Chosen once per process.
Sha256Compress sha256_compress_dispatched() noexcept;

}  // namespace detail

/// Incremental SHA-256 (FIPS 180-4): feed any number of byte ranges, then
/// take the digest once.  Hashing `a` then `b` equals hashing `a ‖ b`, so
/// callers never concatenate buffers just to hash them.
class Sha256 {
 public:
  explicit Sha256(detail::Sha256Compress compress =
                      detail::sha256_compress_dispatched()) noexcept;

  Sha256& update(std::span<const std::uint8_t> data) noexcept;
  /// Pads and returns the digest; the context is spent afterwards.
  Digest final() noexcept;

 private:
  detail::Sha256Compress compress_;
  std::uint32_t state_[8];
  std::uint8_t block_[64];
  std::size_t fill_ = 0;       ///< bytes buffered in block_
  std::uint64_t length_ = 0;   ///< total bytes fed
};

/// SHA-256 of `data` (FIPS 180-4): one Sha256 context, one update.
Digest sha256(std::span<const std::uint8_t> data);

/// HMAC-SHA256 (RFC 2104) of `head ‖ tail` under `key`, computed without
/// concatenating the two (a frame's header and payload are MACed where
/// they lie).  Keys longer than the 64-byte block are hashed first, per
/// the RFC.
Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> head,
                   std::span<const std::uint8_t> tail = {});

/// Constant-time equality of two digests: every byte is examined
/// regardless of where the first mismatch sits, so timing does not leak
/// the position of a forgery's first wrong byte.
bool digest_equal_consttime(const Digest& a, const Digest& b) noexcept;

/// Shared-key frame authentication context.  Disabled (no key) by
/// default; a configured key enables the HMAC trailer on every frame in
/// both directions.  The wire key is the SHA-256 of the user's passphrase
/// string, so passphrases of any length map onto one fixed-size key and
/// the raw passphrase bytes never sit in the frame pipeline.
struct FrameAuth {
  bool enabled = false;
  Digest key{};

  /// Disabled context when `passphrase` is empty, enabled otherwise.
  static FrameAuth from_passphrase(const std::string& passphrase);
  /// Context from the STATPIPE_WIRE_KEY environment variable (disabled
  /// when unset or empty).
  static FrameAuth from_env();

  /// HMAC of `head ‖ tail` under the wire key (hmac_sha256).
  Digest mac(std::span<const std::uint8_t> head,
             std::span<const std::uint8_t> tail = {}) const;
};

}  // namespace statpipe::dist
