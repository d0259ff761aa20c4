#include "dist/task.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "dist/workload.h"
#include "process/variation.h"
#include "sim/engine.h"
#include "sim/thread_pool.h"
#include "sta/ssta_batch.h"

namespace statpipe::dist {

namespace {

/// Grid-task workload with stable addresses: the delay model (descriptor
/// technology, like Workload), the SstaBatch bound from the registry stage
/// — which keeps a pointer to the model for its lifetime — and the size
/// grid itself, owned here so the session's range runner does not
/// duplicate the K x G doubles in its closure.
struct GridWorkload {
  device::AlphaPowerModel model;
  sta::SstaBatch batch;
  std::vector<std::vector<double>> size_grid;

  GridWorkload(const netlist::Netlist& nl, const process::Technology& tech,
               const sta::SstaOptions& opt,
               std::vector<std::vector<double>> grid)
      : model(tech), batch(nl, model, opt), size_grid(std::move(grid)) {}
};

}  // namespace

std::size_t task_unit_count(const RunDescriptor& desc) {
  switch (desc.task_kind) {
    case TaskKind::kMonteCarlo:
      if (desc.n_samples == 0)
        throw std::invalid_argument("dist: descriptor with zero samples");
      // The engine's own planner: throws on zero samples_per_shard.
      return sim::shard_count(desc.n_samples, desc.samples_per_shard);
    case TaskKind::kSstaGrid:
      if (desc.size_grid.empty())
        throw std::invalid_argument(
            "dist: ssta-grid descriptor with an empty size grid");
      return desc.size_grid.size();
  }
  throw std::invalid_argument("dist: descriptor with unknown task kind");
}

std::size_t task_unit_wire_bytes(const RunDescriptor& desc) {
  if (desc.task_kind == TaskKind::kSstaGrid) return 48;
  // write_mc_result of one unlabeled shard (run_shard leaves the label
  // empty): str(label) + f64_vec(tp_samples) + u64 stage count + one
  // 40-byte RunningStats per stage.  The first shard is the largest.
  const std::uint64_t samples =
      std::min(desc.n_samples, desc.samples_per_shard);
  const std::size_t fixed =
      8 + 8 + 8 + 40 * split_workload_names(desc.workload).size();
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  if (samples > (kMax - fixed) / 8) return kMax;
  return fixed + static_cast<std::size_t>(samples) * 8;
}

UnitRangeRunner make_unit_runner(const RunDescriptor& desc) {
  if (desc.task_kind == TaskKind::kSstaGrid) {
    // shared_ptr: the runner outlives this call and the batch must keep
    // its model address stable for the whole session.
    sta::SstaOptions opt;
    opt.output_load = desc.output_load;
    auto wl = std::make_shared<GridWorkload>(build_grid_stage(desc),
                                             descriptor_technology(desc), opt,
                                             desc.size_grid);
    const process::VariationSpec spec = descriptor_spec(desc);
    return [wl, spec](std::size_t begin, std::size_t end,
                      const UnitSink& emit) {
      sim::check_shard_range(wl->size_grid.size(), begin, end);
      // Characterize only the assigned lanes: lane results carry no random
      // state and execute the same floating-point sequence at any lane
      // count, so a sub-grid batch is bitwise-identical to the same lanes
      // of the full local batch under any partitioning.
      std::vector<std::vector<double>> sub(
          wl->size_grid.begin() + static_cast<std::ptrdiff_t>(begin),
          wl->size_grid.begin() + static_cast<std::ptrdiff_t>(end));
      const std::vector<sta::StageCharacterization> lanes =
          wl->batch.characterize(sta::make_configs(sub, spec));
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        ByteWriter w;
        write_stage_characterization(w, lanes[i]);
        emit(begin + i, w.take());
      }
    };
  }
  std::shared_ptr<Workload> wl = Workload::make(desc);
  return [wl, desc](std::size_t begin, std::size_t end, const UnitSink& emit) {
    // Execute the range in chunks of a few shards each so completed units
    // stream out while later ones still compute, keeping both worker and
    // service memory bounded by the chunk, not the range.  Chunking is
    // pure scheduling: shard streams key on (root_seed, shard index) alone
    // and emission stays ascending, so the bytes cannot depend on it.
    const std::size_t chunk = std::max<std::size_t>(
        2 * sim::ThreadPool::shared().thread_count(), 8);
    for (std::size_t lo = begin; lo < end; lo += chunk) {
      const std::size_t hi = std::min(end, lo + chunk);
      const std::vector<mc::McResult> parts = wl->engine().run_shard_range(
          desc.n_samples, desc.root_seed, lo, hi, wl->exec(desc));
      for (std::size_t i = 0; i < parts.size(); ++i) {
        ByteWriter w;
        write_mc_result(w, parts[i]);
        emit(lo + i, w.take());
      }
    }
  };
}

TaskResult run_local_task(const RunDescriptor& desc) {
  TaskResult out;
  out.kind = desc.task_kind;
  if (desc.task_kind == TaskKind::kSstaGrid) {
    const netlist::Netlist& nl = build_grid_stage(desc);
    const device::AlphaPowerModel model{descriptor_technology(desc)};
    sta::SstaOptions opt;
    opt.output_load = desc.output_load;
    // The exact local path the optimizer layers take with an empty hook —
    // one implementation, so reference and production cannot drift.
    out.lanes = sta::characterize_grid(nl, model, desc.size_grid,
                                       descriptor_spec(desc), opt);
    return out;
  }
  out.mc = run_local(desc);
  return out;
}

std::vector<std::uint8_t> encode_result(const TaskResult& r) {
  if (r.kind == TaskKind::kSstaGrid) return serialize_characterizations(r.lanes);
  return serialize_mc_result(r.mc);
}

TaskResult decode_result(TaskKind kind, std::span<const std::uint8_t> bytes) {
  if (!is_known_task_kind(static_cast<std::uint16_t>(kind)))
    throw std::runtime_error("dist: result of unknown task kind " +
                             std::to_string(static_cast<unsigned>(kind)));
  TaskResult out;
  out.kind = kind;
  if (kind == TaskKind::kSstaGrid)
    out.lanes = deserialize_characterizations(bytes);
  else
    out.mc = deserialize_mc_result(bytes);
  return out;
}

bool bitwise_equal(const TaskResult& a, const TaskResult& b) {
  return a.kind == b.kind && encode_result(a) == encode_result(b);
}

void UnitStaging::stage(std::uint64_t unit, ByteReader& payload) {
  const std::size_t next = begin_ + staged();
  if (unit != next || next >= end_)
    throw std::runtime_error("unit " + std::to_string(unit) + " where unit " +
                             std::to_string(next) + " of [" +
                             std::to_string(begin_) + ", " +
                             std::to_string(end_) + ") was due");
  if (kind_ == TaskKind::kSstaGrid) {
    sta::StageCharacterization lane = read_stage_characterization(payload);
    payload.expect_done();
    lanes_.push_back(lane);
  } else {
    mc::McResult part = read_mc_result(payload);
    payload.expect_done();
    mc_.push_back(std::move(part));
  }
}

UnitFold::UnitFold(const RunDescriptor& desc)
    : got_(task_unit_count(desc), 0) {
  acc_.kind = desc.task_kind;
  if (acc_.kind == TaskKind::kSstaGrid)
    acc_.lanes.resize(got_.size());
  else
    stages_ = split_workload_names(desc.workload).size();
}

void UnitFold::commit(UnitStaging& s) {
  if (s.kind_ != acc_.kind || s.end_ > got_.size() ||
      s.staged() != s.end_ - s.begin_)
    throw std::runtime_error("cannot commit a staging of " +
                             std::to_string(s.staged()) + " unit(s) for [" +
                             std::to_string(s.begin_) + ", " +
                             std::to_string(s.end_) + ") to this plan");
  for (std::size_t u = s.begin_; u < s.end_; ++u)
    if (got_[u])
      throw std::runtime_error("unit " + std::to_string(u) +
                               " committed twice");
  // A parseable unit with the wrong stage count would make merge throw
  // mid-fold and poison every later commit; reject it here, unfolded.
  for (const mc::McResult& part : s.mc_)
    if (part.stage_stats.size() != stages_)
      throw std::runtime_error(
          "unit with " + std::to_string(part.stage_stats.size()) +
          " stage(s) in a " + std::to_string(stages_) + "-stage plan");
  std::fill(got_.begin() + static_cast<std::ptrdiff_t>(s.begin_),
            got_.begin() + static_cast<std::ptrdiff_t>(s.end_), 1);
  done_ += s.end_ - s.begin_;
  if (acc_.kind == TaskKind::kSstaGrid) {
    std::copy(s.lanes_.begin(), s.lanes_.end(),
              acc_.lanes.begin() + static_cast<std::ptrdiff_t>(s.begin_));
  } else {
    for (std::size_t i = 0; i < s.mc_.size(); ++i)
      pending_.emplace(s.begin_ + i, std::move(s.mc_[i]));
    // Left fold in ascending unit order — the identical fold
    // GateLevelMonteCarlo::run applies locally — consuming the pending map
    // as long as it extends the contiguous prefix.  Memory stays bounded by
    // the out-of-order window: a committed range can only wait while some
    // earlier range is still in flight.
    auto it = pending_.begin();
    while (it != pending_.end() && it->first == folded_prefix_) {
      if (folded_prefix_ == 0)
        acc_.mc = std::move(it->second);
      else
        acc_.mc.merge(std::move(it->second));
      it = pending_.erase(it);
      ++folded_prefix_;
    }
  }
  s.mc_.clear();
  s.lanes_.clear();
}

std::vector<std::uint8_t> UnitFold::result_blob() {
  if (done_ != got_.size())
    throw std::logic_error("UnitFold::result_blob: " + std::to_string(done_) +
                           "/" + std::to_string(got_.size()) +
                           " units committed");
  if (acc_.kind == TaskKind::kMonteCarlo) acc_.mc.label = "gate-level MC";
  return encode_result(acc_);
}

}  // namespace statpipe::dist
