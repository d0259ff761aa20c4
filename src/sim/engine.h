// Sharded sample scheduler: the execution layer under every Monte-Carlo
// engine and optimizer fan-out in the library.
//
// A run of n_samples is cut into fixed-size shards; each shard draws from
// its own counter-derived RNG stream (stats::Rng::fork(shard.index)) and
// accumulates into its own mergeable result.  Shard boundaries and stream
// assignment depend only on (n_samples, samples_per_shard) — NEVER on the
// thread count — and shard results are merged in ascending shard order, so
// a run is bitwise-identical at 1 and N threads for the same seed.
//
// Layer contract (src/sim, see docs/ARCHITECTURE.md): owns execution only —
// the shared thread pool, shard planning and deterministic reductions.  It
// schedules work for every layer above it but must know nothing about what
// it schedules: no include of any other src/ subsystem, ever — with one
// deliberate exception, src/obs, the cross-cutting telemetry leaf that
// depends on nothing and influences nothing.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/thread_pool.h"

namespace statpipe::sim {

/// Execution knobs shared by every sharded run.
struct ExecutionOptions {
  /// Worker cap: 0 = every shared-pool thread, 1 = serial.  Results do not
  /// depend on this value, only wall-clock does.
  std::size_t threads = 0;
  /// Shard granularity.  Changing it re-partitions the RNG streams (results
  /// change deterministically); the thread count never does.
  std::size_t samples_per_shard = 1024;
  /// SoA lane width for engines with a block-vectorized sample path: a
  /// shard runs as blocks of this many samples through the block kernels,
  /// its last block narrower when the width does not divide the shard (1 =
  /// one-lane blocks; there is no scalar tail).  Engines validate it
  /// against their kernel cap — the active SIMD backend's
  /// stats::lanes::max_width() — via validate() below; a value of 0 or beyond the cap throws, it is
  /// never silently clamped.  The default of 8 is valid on every backend;
  /// stats::lanes::preferred_width() is the throughput-tuned choice.
  /// Like `threads` — and unlike `samples_per_shard` — results NEVER
  /// depend on this value: each sample's RNG stream is keyed on its
  /// shard-local index, and the block kernels are bitwise-identical per
  /// lane to the scalar path.
  std::size_t block_width = 8;

  /// Validates the options up front: samples_per_shard >= 1, block_width
  /// >= 1 and — when the caller states its kernel cap via max_block_width
  /// != 0 — block_width <= max_block_width.  Throws std::invalid_argument
  /// naming the offending field.  Engines call this before planning so a
  /// width of 0 or 64 fails loudly instead of being silently clamped into
  /// range (the sim layer knows no kernel widths itself, hence the cap
  /// parameter).
  void validate(std::size_t max_block_width = 0) const;
};

/// One contiguous slice of a sample run.  `index` doubles as the RNG
/// stream id.
struct Shard {
  std::size_t index = 0;
  std::size_t begin = 0;
  std::size_t count = 0;
};

/// Number of shards plan_shards would cut n samples into
/// (ceil(n / samples_per_shard)) without materializing them — what a run
/// or a distributed coordinator needs to size its bookkeeping.  Throws
/// std::invalid_argument when n == 0 or samples_per_shard == 0.
std::size_t shard_count(std::size_t n, std::size_t samples_per_shard);

/// Materializes only shards [shard_begin, shard_end) of the plan for n
/// samples — the shards a distributed worker actually executes, without
/// building the full O(n_shards) vector per assignment.  Validates the
/// range against the plan (check_shard_range).
std::vector<Shard> plan_shard_range(std::size_t n,
                                    std::size_t samples_per_shard,
                                    std::size_t shard_begin,
                                    std::size_t shard_end);

/// Cuts n samples into ceil(n / samples_per_shard) shards.  Throws
/// std::invalid_argument when n == 0 or samples_per_shard == 0.
std::vector<Shard> plan_shards(std::size_t n, std::size_t samples_per_shard);

/// Validates a contiguous shard subrange [begin, end) against a plan of
/// n_shards shards: throws std::invalid_argument on an empty or
/// out-of-bounds range.  The up-front range check shared by the engines'
/// subrange entry points and the distributed coordinator's assignments.
void check_shard_range(std::size_t n_shards, std::size_t begin,
                       std::size_t end);

/// Convenience forward to the shared pool.
inline void parallel_for(std::size_t n,
                         const std::function<void(std::size_t)>& fn,
                         std::size_t max_threads = 0) {
  ThreadPool::shared().parallel_for(n, fn, max_threads);
}

/// Pool of reusable per-shard workspaces, owned by the execution layer so
/// engines don't reallocate their arenas (die blocks, arrival lanes, RNG
/// lane arrays) once per shard.  A shard body acquires a lease, works in
/// the borrowed workspace and returns it on scope exit; at most one lease
/// per concurrently running shard exists, so the pool's high-water mark is
/// the worker count, not the shard count.  W must be default-constructible;
/// the pool knows nothing else about it (the sim layer stays ignorant of
/// what it schedules).  Workspaces are scratch: nothing in a reused W may
/// influence results, which every engine's determinism tests enforce.
template <class W>
class WorkspacePool {
 public:
  class Lease {
   public:
    Lease(WorkspacePool& pool, std::unique_ptr<W> ws)
        : pool_(&pool), ws_(std::move(ws)) {}
    Lease(Lease&&) = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (ws_) pool_->release(std::move(ws_));
    }
    W& operator*() noexcept { return *ws_; }
    W* operator->() noexcept { return ws_.get(); }

   private:
    WorkspacePool* pool_;
    std::unique_ptr<W> ws_;
  };

  /// Borrows a free workspace, constructing one only when none is idle.
  Lease acquire() {
    {
      std::lock_guard<std::mutex> lk(m_);
      if (!free_.empty()) {
        std::unique_ptr<W> ws = std::move(free_.back());
        free_.pop_back();
        return Lease(*this, std::move(ws));
      }
    }
    return Lease(*this, std::make_unique<W>());
  }

 private:
  void release(std::unique_ptr<W> ws) {
    std::lock_guard<std::mutex> lk(m_);
    free_.push_back(std::move(ws));
  }

  std::mutex m_;
  std::vector<std::unique_ptr<W>> free_;
};

/// Runs body(shard) for every shard in the contiguous subrange
/// [shard_begin, shard_end) of `shards` (possibly concurrently) and returns
/// the per-shard results UNMERGED, in ascending shard order — the
/// distributed building block: a remote worker executes exactly this over
/// its assigned range and ships the parts, and the coordinator folds every
/// part in ascending shard order (the same left fold run_sharded applies),
/// so a run split across processes is bitwise-identical to a local one.
template <class Result, class Body>
std::vector<Result> run_shard_subrange(const std::vector<Shard>& shards,
                                       std::size_t shard_begin,
                                       std::size_t shard_end,
                                       const ExecutionOptions& exec,
                                       Body&& body) {
  check_shard_range(shards.size(), shard_begin, shard_end);
  std::vector<Result> parts(shard_end - shard_begin);
  parallel_for(
      parts.size(),
      [&](std::size_t i) { parts[i] = body(shards[shard_begin + i]); },
      exec.threads);
  return parts;
}

/// Runs body(shard) for every shard (possibly concurrently), then folds the
/// per-shard results in ascending shard order with merge(acc, part) — the
/// deterministic reduction that makes thread count invisible in the output.
/// Composed from run_shard_subrange over the full plan, so the local and
/// distributed paths share one scheduling implementation.
template <class Result, class Body, class Merge>
Result run_sharded(std::size_t n_samples, const ExecutionOptions& exec,
                   Body&& body, Merge&& merge) {
  const std::vector<Shard> shards =
      plan_shards(n_samples, exec.samples_per_shard);
  std::vector<Result> parts = run_shard_subrange<Result>(
      shards, 0, shards.size(), exec, std::forward<Body>(body));
  Result acc = std::move(parts.front());
  for (std::size_t i = 1; i < parts.size(); ++i)
    merge(acc, std::move(parts[i]));
  return acc;
}

}  // namespace statpipe::sim
