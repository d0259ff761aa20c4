// Content-addressed result cache for the cluster service: repeated probe
// grids (the global optimizer resubmits near-identical candidate grids
// constantly) are answered from memory instead of recomputed.
//
// The key is the SHA-256 of the request's CANONICAL DESCRIPTOR BYTES —
// the exact write_run_descriptor encoding, which already carries every
// input that can change a result bit: task kind, workload name +
// structural hash, seed/root_seed, sampling plan, the full size grid,
// variation spec, timing options and all technology parameters.  Two
// descriptors differing in a single f64 bit therefore hash to different
// keys and can never alias (tested in tests/test_service.cpp).  The
// cached value is the request's result blob (dist/task.h
// encode_result), whose decode∘encode round-trip is byte-identity — so a
// cache hit is bitwise-indistinguishable from a recompute
// (docs/DETERMINISM.md).
//
// Eviction is bounded-size LRU driven by a monotonic access sequence
// counter, NOT clocks: given the same find/insert call sequence the same
// entries are evicted, every time.  Hits and misses are tallied per
// request in RunMetrics (dist/service.h); evictions, seen only here, feed
// dist.service.cache.evictions (docs/OBSERVABILITY.md).
//
// Layer contract (src/dist, see docs/ARCHITECTURE.md): the distributed
// execution layer sits on top of mc/sta/sim/stats and may depend on all of
// them; nothing below src/dist may know it exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "dist/hmac.h"

namespace statpipe::dist {

class ResultCache {
 public:
  /// `max_bytes` bounds the sum of cached blob sizes; 0 disables caching
  /// entirely (every find misses, every insert is dropped).  Registers
  /// dist.service.cache.evictions, so a run without evictions reports 0.
  explicit ResultCache(std::size_t max_bytes);

  /// Cache key: SHA-256 over the canonical write_run_descriptor bytes
  /// (root_seed included — the full (descriptor, root_seed) identity).
  /// The service hashes a remote submit's descriptor bytes as received:
  /// the descriptor codec is a bijection on the bytes it accepts
  /// (dist/serialize.h), so those bytes equal write_run_descriptor of the
  /// decoded descriptor and the key is the same as a local submit's.
  static Digest key_for(std::span<const std::uint8_t> desc_bytes) {
    return sha256(desc_bytes);
  }

  /// Borrowed pointer to the cached blob, nullptr on miss.  A hit
  /// refreshes the entry's LRU rank.  The pointer is invalidated by the
  /// next insert().
  const std::vector<std::uint8_t>* find(const Digest& key);

  /// Stores a blob under `key`, evicting least-recently-used entries until
  /// the byte bound holds.  A blob alone larger than the bound is not
  /// cached.  Re-inserting an existing key refreshes its LRU rank.
  void insert(const Digest& key, std::vector<std::uint8_t> blob);

  std::size_t entries() const noexcept { return entries_.size(); }
  std::size_t size_bytes() const noexcept { return bytes_; }
  std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  void evict_for(std::size_t incoming);

  struct Entry {
    std::vector<std::uint8_t> blob;
    std::uint64_t last_used = 0;
  };

  std::map<Digest, Entry> entries_;
  std::size_t max_bytes_ = 0;
  std::size_t bytes_ = 0;
  std::uint64_t seq_ = 0;  ///< access counter — deterministic LRU clock
  std::uint64_t evictions_ = 0;
};

}  // namespace statpipe::dist
