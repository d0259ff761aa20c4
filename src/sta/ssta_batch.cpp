#include "sta/ssta_batch.h"

#include <algorithm>
#include <stdexcept>

#include "obs/telemetry.h"
#include "sim/thread_pool.h"

namespace statpipe::sta {

std::vector<SstaConfig> make_configs(
    const std::vector<std::vector<double>>& size_grid,
    const process::VariationSpec& spec) {
  std::vector<SstaConfig> cfgs(size_grid.size());
  for (std::size_t k = 0; k < size_grid.size(); ++k) {
    cfgs[k].sizes = size_grid[k];
    cfgs[k].spec = spec;
  }
  return cfgs;
}

sim::ExecutionOptions batch_exec(std::size_t lanes) {
  sim::ExecutionOptions exec;
  const std::size_t workers =
      std::max<std::size_t>(sim::ThreadPool::shared().thread_count(), 1);
  // ~2 blocks per worker for load balance, but keep blocks narrow (<= 8
  // lanes) so the optimizer's small grids still occupy the pool.
  const std::size_t blocks = 2 * workers;
  exec.samples_per_shard =
      std::clamp<std::size_t>((lanes + blocks - 1) / blocks, 1, 8);
  return exec;
}

std::vector<StageCharacterization> characterize_grid(
    const netlist::Netlist& nl, const device::AlphaPowerModel& model,
    const std::vector<std::vector<double>>& size_grid,
    const process::VariationSpec& spec, const SstaOptions& opt,
    const GridCharacterizer& hook) {
  if (hook) return hook(nl, model, size_grid, spec, opt);
  const SstaBatch batch(nl, model, opt);
  return batch.characterize(make_configs(size_grid, spec));
}

namespace {

const netlist::Netlist& with_outputs(const netlist::Netlist& nl) {
  if (nl.outputs().empty())
    throw std::logic_error("SstaBatch: netlist has no primary outputs");
  return nl;
}

}  // namespace

SstaBatch::SstaBatch(const netlist::Netlist& nl,
                     const device::AlphaPowerModel& model,
                     const SstaOptions& opt)
    : model_(&model),
      opt_(opt),
      bound_(with_outputs(nl)),
      base_sizes_(nl.sizes()) {}

void SstaBatch::run_block(const std::vector<SstaConfig>& configs,
                          std::size_t lane_begin, std::size_t lane_count,
                          CanonicalDelay* out,
                          StageCharacterization* chars) const {
  using netlist::GateId;
  static const obs::SpanId kGridBlock("sta.grid_block");
  obs::ScopedSpan block_span(kGridBlock,
                             static_cast<std::int64_t>(lane_count));
  static obs::Counter c_lanes("sta.grid_lanes");
  c_lanes.add(lane_count);
  const std::size_t L = lane_count;
  std::vector<SstaLane> lanes(L);
  for (std::size_t k = 0; k < L; ++k) {
    const SstaConfig& c = configs[lane_begin + k];
    lanes[k] = {c.sizes.empty() ? base_sizes_.data() : c.sizes.data(),
                &c.spec};
  }
  SstaWorkspace ws;
  if (chars == nullptr) {
    walk(lanes, ws, out + lane_begin, [](auto&&...) {});
    return;
  }

  // The nominal (variation-free) arrivals ride along in the same walk,
  // from the loads and nominal delays it computes anyway.
  std::vector<double> nominal(bound_.size() * L, 0.0);
  std::vector<CanonicalDelay> d(L);
  walk(lanes, ws, d.data(),
       [&](std::size_t k, GateId id, double, double gate_nominal,
           const device::AlphaPowerModel::DelaySigmas&) {
         double in_arr = 0.0;
         for (GateId f : bound_.fanins(id))
           in_arr = std::max(in_arr, nominal[f * L + k]);
         nominal[id * L + k] = in_arr + gate_nominal;
       });
  for (std::size_t k = 0; k < L; ++k) {
    double critical = 0.0;
    for (GateId o : bound_.outputs())
      if (nominal[o * L + k] >= critical) critical = nominal[o * L + k];
    chars[lane_begin + k] =
        stage_characterization(d[k], bound_.area(lanes[k].sizes), critical);
  }
}

void SstaBatch::run(const std::vector<SstaConfig>& configs,
                    const sim::ExecutionOptions& exec, CanonicalDelay* out,
                    StageCharacterization* chars) const {
  for (const auto& c : configs)
    if (!c.sizes.empty() && c.sizes.size() != bound_.size())
      throw std::invalid_argument("SstaBatch: config size-vector length "
                                  "does not match the bound netlist");
  if (configs.empty()) return;
  const auto shards = sim::plan_shards(
      configs.size(), std::max<std::size_t>(exec.samples_per_shard, 1));
  const auto block = [&](std::size_t i) {
    run_block(configs, shards[i].begin, shards[i].count, out, chars);
  };
  if (shards.size() == 1)
    block(0);
  else
    sim::parallel_for(shards.size(), block, exec.threads);
}

std::vector<CanonicalDelay> SstaBatch::analyze(
    const std::vector<SstaConfig>& configs,
    const sim::ExecutionOptions& exec) const {
  std::vector<CanonicalDelay> out(configs.size());
  run(configs, exec, out.data(), nullptr);
  return out;
}

std::vector<StageCharacterization> SstaBatch::characterize(
    const std::vector<SstaConfig>& configs,
    const sim::ExecutionOptions& exec) const {
  std::vector<StageCharacterization> out(configs.size());
  run(configs, exec, nullptr, out.data());
  return out;
}

CanonicalDelay analyze_ssta(const netlist::Netlist& nl,
                            const device::AlphaPowerModel& model,
                            const process::VariationSpec& spec,
                            const SstaOptions& opt) {
  return SstaBatch(nl, model, opt).analyze({{{}, spec}}).front();
}

}  // namespace statpipe::sta
