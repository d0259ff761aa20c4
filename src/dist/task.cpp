#include "dist/task.h"

#include <algorithm>
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

/// Grid-task workload with stable addresses: the rebuilt stage netlist,
/// the delay model (descriptor technology, like Workload), the bound
/// SstaBatch — which keeps a pointer to the model for its lifetime — and
/// the size grid itself, owned here so the session's range runner does
/// not duplicate the K x G doubles in its closure.
struct GridWorkload {
  netlist::Netlist nl;
  device::AlphaPowerModel model;
  sta::SstaBatch batch;
  std::vector<std::vector<double>> size_grid;

  GridWorkload(netlist::Netlist n, const process::Technology& tech,
               const sta::SstaOptions& opt,
               std::vector<std::vector<double>> grid)
      : nl(std::move(n)),
        model(tech),
        batch(nl, model, opt),
        size_grid(std::move(grid)) {}
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
  if (desc.task_kind == TaskKind::kSstaGrid)
    return 64;  // 48-byte StageCharacterization + index and slack
  return static_cast<std::size_t>(desc.samples_per_shard) * 8;
}

UnitRangeRunner make_unit_runner(const RunDescriptor& desc) {
  if (desc.task_kind == TaskKind::kSstaGrid) {
    // shared_ptr: the runner outlives this call and the batch must keep
    // its netlist/model addresses stable for the whole session.
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
    // coordinator memory bounded by the chunk, not the range.  Chunking is
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
    const netlist::Netlist nl = build_grid_stage(desc);
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

bool bitwise_equal(const TaskResult& a, const TaskResult& b) {
  if (a.kind != b.kind) return false;
  if (a.kind == TaskKind::kSstaGrid) return bitwise_equal(a.lanes, b.lanes);
  return bitwise_equal(a.mc, b.mc);
}

}  // namespace statpipe::dist
