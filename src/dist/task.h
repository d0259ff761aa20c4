// Generic distributed task layer: maps a RunDescriptor's TaskKind to unit
// planning, unit-range execution, the fold and the local reference run.
//
// A task is a sequence of n_units independent work units (Monte-Carlo
// shards, SSTA grid lanes).  Workers execute contiguous unit ranges and
// STREAM one serialized payload per unit, ascending, as units complete
// (wire v3); the service stages them (UnitStaging) and folds committed
// ranges in ascending unit index (UnitFold), which reproduces the
// single-process result bit for bit for every kind (docs/DETERMINISM.md).
// This header is the one place that knows how each TaskKind plans, runs,
// folds and encodes its result; the service, worker loop and transport
// stay kind-agnostic.
//
// Layer contract (src/dist, see docs/ARCHITECTURE.md): the distributed
// execution layer sits on top of mc/sta/sim/stats and may depend on all of
// them; nothing below src/dist may know it exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "dist/serialize.h"
#include "mc/pipeline_mc.h"
#include "sta/characterize.h"

namespace statpipe::dist {

/// What a completed task run holds.  Exactly one member is populated,
/// selected by `kind`: the folded Monte-Carlo result, or the K sweep-lane
/// characterizations in ascending lane order.
struct TaskResult {
  TaskKind kind = TaskKind::kMonteCarlo;
  mc::McResult mc;                                ///< kMonteCarlo
  std::vector<sta::StageCharacterization> lanes;  ///< kSstaGrid
};

/// Number of work units the descriptor's task plans: MC shard count
/// (sim::shard_count) or grid lane count.  Also validates the kind's plan
/// inputs — zero samples (MC), an empty grid, a multi-stage grid workload
/// or a lane whose size vector does not cover the netlist all throw
/// std::invalid_argument with the offending field named.
std::size_t task_unit_count(const RunDescriptor& desc);

/// Exact size of the plan's largest serialized unit payload (as emitted by
/// make_unit_runner, without the kResult unit index) for the frame-cap
/// check; saturates at SIZE_MAX.
std::size_t task_unit_wire_bytes(const RunDescriptor& desc);

/// Receives one serialized unit payload as it completes.  The runner calls
/// the sink once per unit, STRICTLY ASCENDING in unit index over the
/// assigned range — the contract that lets the worker stream each unit as
/// its own kResult frame and the service fold a contiguous prefix with
/// bounded memory (docs/DETERMINISM.md).
using UnitSink = std::function<void(std::size_t unit_index,
                                    const std::vector<std::uint8_t>& payload)>;

/// Executes units [unit_begin, unit_end) of the descriptor's task, emitting
/// each unit's serialized payload through `emit` in ascending unit order.
/// The factory front half (workload construction, hash verification)
/// happens in make_unit_runner; the returned runner only executes ranges.
/// Runners may batch execution internally (e.g. a few units per parallel
/// chunk) — batching is pure scheduling and never changes the bytes,
/// because units are independent and emitted in index order regardless.
using UnitRangeRunner = std::function<void(
    std::size_t unit_begin, std::size_t unit_end, const UnitSink& emit)>;

/// Builds the descriptor's workload (binding the stage registry's shared
/// netlists and verifying the structural hash — mismatch throws, the
/// worker reports kError and contributes nothing) and returns the kind's
/// range runner.
UnitRangeRunner make_unit_runner(const RunDescriptor& desc);

/// Runs the descriptor's task to completion in this process — the
/// single-process reference every distributed run is bitwise-compared
/// against: GateLevelMonteCarlo::run for kMonteCarlo,
/// SstaBatch::characterize over the whole grid for kSstaGrid.
TaskResult run_local_task(const RunDescriptor& desc);

/// The canonical result blob (serialize_mc_result or
/// serialize_characterizations) — the one form a result is cached, shipped
/// and compared in — and its inverse, which throws std::runtime_error on a
/// corrupt blob or an unknown kind.  decode ∘ encode is byte identity.
std::vector<std::uint8_t> encode_result(const TaskResult& r);
TaskResult decode_result(TaskKind kind, std::span<const std::uint8_t> bytes);

/// Acceptance predicate: equal kinds and byte-equal encode_result forms.
bool bitwise_equal(const TaskResult& a, const TaskResult& b);

/// One worker's staging of one assigned range [begin, end), decoded on
/// receipt.  Workers emit a range's units ascending and contiguous
/// (docs/WIRE_FORMAT.md), so stage() accepts only unit begin + staged():
/// out-of-order, duplicate and out-of-range units, and corrupt payloads
/// (the reader's remaining bytes), throw std::runtime_error unstaged.
class UnitStaging {
 public:
  UnitStaging() = default;
  UnitStaging(TaskKind kind, std::size_t begin, std::size_t end)
      : kind_(kind), begin_(begin), end_(end) {}
  void stage(std::uint64_t unit, ByteReader& payload);
  std::size_t staged() const noexcept { return mc_.size() + lanes_.size(); }

 private:
  friend class UnitFold;
  TaskKind kind_ = TaskKind::kMonteCarlo;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::vector<mc::McResult> mc_;
  std::vector<sta::StageCharacterization> lanes_;
};

/// One request's fold of committed ranges, in any commit order, into the
/// single-process result.  MC: the contiguous committed prefix is merged
/// in ascending unit order (GateLevelMonteCarlo::run's left fold); later
/// units wait in a pending map.  Grid: lanes are placed positionally.
class UnitFold {
 public:
  explicit UnitFold(const RunDescriptor& desc);  ///< throws like task_unit_count
  std::size_t done_units() const noexcept { return done_; }
  /// Moves a complete staging of this plan in and empties it; throws
  /// std::runtime_error, changing nothing, otherwise, when a unit was
  /// already committed, or when an MC unit's stage count is not the plan's.
  void commit(UnitStaging& s);
  /// encode_result of the folded result; std::logic_error until complete.
  std::vector<std::uint8_t> result_blob();

 private:
  TaskResult acc_;  ///< MC: the folded prefix; grid: the placed lanes
  std::vector<std::uint8_t> got_;  ///< per unit: committed
  std::size_t done_ = 0;
  std::size_t stages_ = 0;  ///< MC: stage accumulators per unit
  std::size_t folded_prefix_ = 0;
  std::map<std::size_t, mc::McResult> pending_;
};

}  // namespace statpipe::dist
