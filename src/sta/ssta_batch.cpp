#include "sta/ssta_batch.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "device/gate_library.h"
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

/// Owning SoA lane storage: four parallel vectors of `gates * lanes`
/// doubles, gate-major (gate g's lanes are contiguous at [g*lanes, ...)).
struct LaneArrays {
  std::vector<double> mu, b_inter, sigma_ind, b_sys;
  std::size_t lanes = 0;

  LaneArrays(std::size_t gates, std::size_t n_lanes)
      : mu(gates * n_lanes, 0.0),
        b_inter(gates * n_lanes, 0.0),
        sigma_ind(gates * n_lanes, 0.0),
        b_sys(gates * n_lanes, 0.0),
        lanes(n_lanes) {}

  CanonicalLanes at(netlist::GateId id) {
    const std::size_t off = id * lanes;
    return {mu.data() + off, b_inter.data() + off, sigma_ind.data() + off,
            b_sys.data() + off};
  }

  /// Copies gate `src`'s lanes into the fold workspace `dst` — the "first
  /// element initializes the fold" step of both the fanin and output max.
  void copy_lanes(netlist::GateId src, const CanonicalLanes& dst) const {
    const std::size_t s = src * lanes;
    std::copy_n(mu.data() + s, lanes, dst.mu);
    std::copy_n(b_inter.data() + s, lanes, dst.b_inter);
    std::copy_n(sigma_ind.data() + s, lanes, dst.sigma_ind);
    std::copy_n(b_sys.data() + s, lanes, dst.b_sys);
  }
};

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
  static const obs::SpanId kGridBlock("sta.grid_block");
  obs::ScopedSpan block_span(kGridBlock,
                             static_cast<std::int64_t>(lane_count));
  static obs::Counter c_lanes("sta.grid_lanes");
  c_lanes.add(lane_count);
  const std::size_t n = bound_.size();
  const std::size_t L = lane_count;
  auto size_of = [&](netlist::GateId id, std::size_t k) {
    const auto& sizes = configs[lane_begin + k].sizes;
    return sizes.empty() ? base_sizes_[id] : sizes[id];
  };

  LaneArrays arrival(n, L);
  // Fold workspace for the fanin max (the scalar path's `in` accumulator).
  LaneArrays work(1, L);
  // Nominal (variation-free) arrivals ride along in the same walk when a
  // full characterization is requested; they reuse the per-lane load and
  // nominal-delay values, which the scalar path computes identically in its
  // separate sta::analyze pass.
  std::vector<double> nom_arrival;
  if (chars != nullptr) nom_arrival.assign(n * L, 0.0);

  for (netlist::GateId id : bound_.topo()) {
    if (bound_.pseudo(id)) continue;
    const device::GateKind kind = bound_.kind(id);
    const auto fanins = bound_.fanins(id);

    // in = fold canonical_max over fanins (first fanin copies).
    CanonicalLanes acc = work.at(0);
    if (fanins.empty()) {
      std::fill_n(acc.mu, L, 0.0);
      std::fill_n(acc.b_inter, L, 0.0);
      std::fill_n(acc.sigma_ind, L, 0.0);
      std::fill_n(acc.b_sys, L, 0.0);
    } else {
      arrival.copy_lanes(fanins.front(), acc);
      for (std::size_t fi = 1; fi < fanins.size(); ++fi)
        canonical_max_lanes(acc, arrival.at(fanins[fi]), L);
    }

    // arrival[id] = in + gate canonical delay, per lane.
    CanonicalLanes dst = arrival.at(id);
    for (std::size_t k = 0; k < L; ++k) {
      // load_of with this lane's sizes.
      const double load = bound_.load(
          id, [&](netlist::GateId s) { return size_of(s, k); },
          opt_.output_load);
      const double size = size_of(id, k);
      const auto sig =
          model_->delay_sigmas(kind, size, load, configs[lane_begin + k].spec);
      CanonicalDelay d;
      d.mu = model_->nominal_delay(kind, size, load);
      d.b_inter = sig.inter;
      d.b_sys = sig.systematic;
      d.sigma_ind = sig.random;
      dst.store(k, acc.load(k) + d);

      if (chars != nullptr) {
        double in_arr = 0.0;
        for (netlist::GateId f : fanins)
          in_arr = std::max(in_arr, nom_arrival[f * L + k]);
        nom_arrival[id * L + k] = in_arr + d.mu;
      }
    }
  }

  // out = fold canonical_max over primary outputs (first output copies).
  CanonicalLanes res = work.at(0);
  const auto& outputs = bound_.outputs();
  arrival.copy_lanes(outputs.front(), res);
  for (std::size_t oi = 1; oi < outputs.size(); ++oi)
    canonical_max_lanes(res, arrival.at(outputs[oi]), L);

  for (std::size_t k = 0; k < L; ++k) {
    const CanonicalDelay d = res.load(k);
    if (out != nullptr) out[lane_begin + k] = d;
    if (chars != nullptr) {
      StageCharacterization c;
      c.delay = d.as_gaussian();
      c.sigma_inter = std::abs(d.b_inter);
      // Same split as characterize_ssta: systematic is shared within the
      // stage but private across stages.
      c.sigma_private = std::sqrt(d.b_sys * d.b_sys + d.sigma_ind * d.sigma_ind);
      c.area =
          bound_.area([&](netlist::GateId id) { return size_of(id, k); });
      double critical = 0.0;
      for (netlist::GateId o : outputs)
        if (nom_arrival[o * L + k] >= critical) critical = nom_arrival[o * L + k];
      c.nominal_delay = critical;
      chars[lane_begin + k] = c;
    }
  }
}

namespace {

void validate_configs(const std::vector<SstaConfig>& configs,
                      std::size_t n_gates) {
  for (const auto& c : configs)
    if (!c.sizes.empty() && c.sizes.size() != n_gates)
      throw std::invalid_argument("SstaBatch: config size-vector length "
                                  "does not match the bound netlist");
}

}  // namespace

std::vector<CanonicalDelay> SstaBatch::analyze(
    const std::vector<SstaConfig>& configs,
    const sim::ExecutionOptions& exec) const {
  validate_configs(configs, bound_.size());
  std::vector<CanonicalDelay> out(configs.size());
  if (configs.empty()) return out;
  const auto shards = sim::plan_shards(
      configs.size(), std::max<std::size_t>(exec.samples_per_shard, 1));
  sim::parallel_for(
      shards.size(),
      [&](std::size_t i) {
        run_block(configs, shards[i].begin, shards[i].count, out.data(),
                  nullptr);
      },
      exec.threads);
  return out;
}

std::vector<StageCharacterization> SstaBatch::characterize(
    const std::vector<SstaConfig>& configs,
    const sim::ExecutionOptions& exec) const {
  validate_configs(configs, bound_.size());
  std::vector<StageCharacterization> out(configs.size());
  if (configs.empty()) return out;
  const auto shards = sim::plan_shards(
      configs.size(), std::max<std::size_t>(exec.samples_per_shard, 1));
  sim::parallel_for(
      shards.size(),
      [&](std::size_t i) {
        run_block(configs, shards[i].begin, shards[i].count, nullptr,
                  out.data());
      },
      exec.threads);
  return out;
}

}  // namespace statpipe::sta
