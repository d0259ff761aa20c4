#include "dist/result_cache.h"

#include <utility>

#include "obs/telemetry.h"

namespace statpipe::dist {

namespace {

obs::Counter& c_evictions() {
  static obs::Counter c("dist.service.cache.evictions");
  return c;
}

}  // namespace

ResultCache::ResultCache(std::size_t max_bytes) : max_bytes_(max_bytes) {
  (void)c_evictions();
}

const std::vector<std::uint8_t>* ResultCache::find(const Digest& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  it->second.last_used = ++seq_;
  return &it->second.blob;
}

void ResultCache::insert(const Digest& key, std::vector<std::uint8_t> blob) {
  if (blob.size() > max_bytes_) return;  // can never fit, even alone
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Same key, same canonical inputs: the blob is necessarily identical
    // (determinism contract), so only the LRU rank needs refreshing.
    it->second.last_used = ++seq_;
    return;
  }
  evict_for(blob.size());
  bytes_ += blob.size();
  entries_.emplace(key, Entry{std::move(blob), ++seq_});
}

void ResultCache::evict_for(std::size_t incoming) {
  while (!entries_.empty() && bytes_ + incoming > max_bytes_) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it)
      if (it->second.last_used < victim->second.last_used) victim = it;
    bytes_ -= victim->second.blob.size();
    entries_.erase(victim);
    ++evictions_;
    c_evictions().add();
  }
}

}  // namespace statpipe::dist
