// The bound SSTA walk: one netlist topology, L lanes, one topological walk
// — the only canonical-form propagation in the library.
//
// Every SSTA caller runs it.  The yield/area optimizer's candidate grids
// (area-delay sweeps, the global optimizer's probe grids) run K lanes per
// walk; analyze_ssta, characterize_ssta and opt::stat_delay run one bound
// lane; the sizers' LR engine (opt/lr_engine.h) runs one lane per
// iteration and reads each gate's load and delay through the walk's gate
// hook.  SstaBatch binds the structure once (netlist::BoundNetlist) and
// propagates all L lanes together: per gate, the arrival forms are four
// contiguous L-wide vectors (mu, b_inter, sigma_ind, b_sys), and every gate
// visit performs the Clark max/add over all L lanes before moving on.
// L = 1 runs the same code.
//
// Determinism contract: per lane, the walk executes exactly the
// floating-point sequence of the per-gate Netlist reference walk kept in
// tests/ssta_oracle.h, so
//
//   SstaBatch(nl, model, opt).analyze(configs)[k]
//     == ssta_oracle::analyze_ssta(nl_with(configs[k].sizes), model,
//                                  configs[k].spec, opt)
//
// bitwise, for every k and any lane count — and likewise characterize()
// vs ssta_oracle::characterize_ssta.  Lanes carry no random state, so
// results are also independent of how the batch is sharded over the sim
// engine and of the thread count (tests/test_sta.cpp enforces all three).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "device/delay_model.h"
#include "netlist/bound_netlist.h"
#include "netlist/netlist.h"
#include "process/variation.h"
#include "sim/engine.h"
#include "sta/characterize.h"
#include "sta/ssta.h"

namespace statpipe::sta {

/// One lane of a batched SSTA run: a full per-gate size assignment plus the
/// variation spec it is evaluated under.
struct SstaConfig {
  /// Per-gate sizes (netlist::Netlist::sizes() layout).  Empty = the bound
  /// netlist's own sizes.  Any other length is an error.
  std::vector<double> sizes;
  process::VariationSpec spec;
};

/// Builds the common grid shape: one shared spec, one size vector per lane.
std::vector<SstaConfig> make_configs(
    const std::vector<std::vector<double>>& size_grid,
    const process::VariationSpec& spec);

/// Shard granularity that splits `lanes` into enough blocks to occupy the
/// shared pool.  Purely a throughput knob: lane results carry no random
/// state, so they are bitwise-identical under any partitioning.
sim::ExecutionOptions batch_exec(std::size_t lanes);

/// Pluggable whole-grid characterization backend: given one netlist
/// structure, the delay model, a K-lane size grid (every lane a FULL
/// per-gate size vector) and a shared variation spec, return one
/// StageCharacterization per lane.  The optimizer layers
/// (`opt::SweepOptions::grid`, `opt::GlobalOptimizerOptions::grid`) route
/// their candidate grids through this seam; an empty function means the
/// local SstaBatch path.  `src/dist` provides a cluster-backed
/// implementation (dist::grid_characterizer) — this typedef lives down
/// here in sta so opt and dist can compose without ever including each
/// other.
///
/// Contract for alternative backends: lane k of the returned vector must
/// be bitwise-identical to what
/// `SstaBatch(nl, model, opt).characterize(make_configs(grid, spec))[k]`
/// computes locally — which is why the model is part of the signature: a
/// backend must replay model.technology() exactly, not assume defaults
/// (tests/test_dist.cpp enforces it for the cluster backend; see
/// docs/DETERMINISM.md).
using GridCharacterizer =
    std::function<std::vector<StageCharacterization>(
        const netlist::Netlist& nl, const device::AlphaPowerModel& model,
        const std::vector<std::vector<double>>& size_grid,
        const process::VariationSpec& spec, const SstaOptions& opt)>;

/// Characterizes a whole size grid through `hook` when set, else through a
/// freshly bound local SstaBatch — the one-liner the optimizer layers call
/// at every candidate-grid site.
std::vector<StageCharacterization> characterize_grid(
    const netlist::Netlist& nl, const device::AlphaPowerModel& model,
    const std::vector<std::vector<double>>& size_grid,
    const process::VariationSpec& spec, const SstaOptions& opt,
    const GridCharacterizer& hook = {});

/// One lane of a walk: the per-gate sizes it reads (a full vector in
/// netlist::Netlist::sizes() layout) and the variation spec it is evaluated
/// under.  Both must outlive the walk.
struct SstaLane {
  const double* sizes = nullptr;
  const process::VariationSpec* spec = nullptr;
};

/// Lane storage of the walk, reusable across walks: per gate its four
/// L-wide canonical-form vectors, plus one slot for the fanin fold.
struct SstaWorkspace {
  std::vector<double> forms;
};

class SstaBatch {
 public:
  /// Binds the structural part of `nl` once (netlist::BoundNetlist:
  /// topological order, gate kinds, CSR fanin/fanout lists, the
  /// primary-output set) plus the current sizes (the fallback for configs
  /// with empty `sizes`).  `model` must outlive the batch; later structural
  /// edits to `nl` are not seen.
  /// Throws std::logic_error if `nl` has no primary outputs.
  SstaBatch(const netlist::Netlist& nl, const device::AlphaPowerModel& model,
            const SstaOptions& opt = {});

  const netlist::BoundNetlist& bound() const noexcept { return bound_; }

  /// The walk: propagates every lane through the bound structure and
  /// writes lane k's canonical arrival at the critical output to out[k].
  /// Runs on the calling thread; `ws` is resized as needed.
  ///
  /// `hook(lane, id, load, nominal, sigmas)` observes every non-pseudo gate
  /// in topological order, once per lane, with the load, nominal delay and
  /// device::AlphaPowerModel::DelaySigmas that gate's canonical delay was
  /// built from; a gate's calls come after those of all its fanins.
  template <class GateHook>
  void walk(std::span<const SstaLane> lanes, SstaWorkspace& ws,
            CanonicalDelay* out, GateHook&& hook) const;

  /// Canonical arrival at the critical output, one entry per config (see
  /// the file comment).  Lane blocks fan out over the sim engine per
  /// `exec`; a single block runs on the calling thread.
  std::vector<CanonicalDelay> analyze(const std::vector<SstaConfig>& configs,
                                      const sim::ExecutionOptions& exec) const;
  std::vector<CanonicalDelay> analyze(
      const std::vector<SstaConfig>& configs) const {
    return analyze(configs, batch_exec(configs.size()));
  }

  /// Full stage characterization per config: stage_characterization of the
  /// lane's canonical delay, area, and the nominal critical delay, which
  /// the same walk computes through its gate hook.
  std::vector<StageCharacterization> characterize(
      const std::vector<SstaConfig>& configs,
      const sim::ExecutionOptions& exec) const;
  std::vector<StageCharacterization> characterize(
      const std::vector<SstaConfig>& configs) const {
    return characterize(configs, batch_exec(configs.size()));
  }

 private:
  /// The loop analyze and characterize share: validates the configs, then
  /// walks them in lane blocks and writes canonical results to `out` or
  /// characterizations to `chars` (exactly one non-null) at their global
  /// lane indices.
  void run(const std::vector<SstaConfig>& configs,
           const sim::ExecutionOptions& exec, CanonicalDelay* out,
           StageCharacterization* chars) const;
  void run_block(const std::vector<SstaConfig>& configs,
                 std::size_t lane_begin, std::size_t lane_count,
                 CanonicalDelay* out, StageCharacterization* chars) const;

  const device::AlphaPowerModel* model_;
  SstaOptions opt_;
  netlist::BoundNetlist bound_;
  std::vector<double> base_sizes_;  ///< fallback when a config has no sizes
};

template <class GateHook>
void SstaBatch::walk(std::span<const SstaLane> lanes, SstaWorkspace& ws,
                     CanonicalDelay* out, GateHook&& hook) const {
  using netlist::GateId;
  const std::size_t L = lanes.size();
  if (L == 0) return;
  // Slot s holds [mu | b_inter | sigma_ind | b_sys], each L wide: gate id's
  // arrival at slot id, the fold accumulator in the slot past the last gate.
  const std::size_t stride = 4 * L;
  ws.forms.resize((bound_.size() + 1) * stride);
  double* const forms = ws.forms.data();
  auto at = [&](std::size_t slot) -> CanonicalLanes {
    double* p = forms + slot * stride;
    return {p, p + L, p + 2 * L, p + 3 * L};
  };
  const CanonicalLanes acc = at(bound_.size());
  // acc = canonical max over `ids`, folded in order (the first copies).
  auto fold = [&](std::span<const GateId> ids) {
    const double* first = forms + ids.front() * stride;
    for (std::size_t i = 0; i < stride; ++i) acc.mu[i] = first[i];
    for (std::size_t i = 1; i < ids.size(); ++i)
      canonical_max_lanes(acc, at(ids[i]), L);
  };

  for (GateId id : bound_.topo()) {
    const CanonicalLanes dst = at(id);
    if (bound_.pseudo(id)) {
      for (std::size_t i = 0; i < stride; ++i) dst.mu[i] = 0.0;
      continue;
    }
    const auto fanins = bound_.fanins(id);
    if (fanins.empty())
      for (std::size_t i = 0; i < stride; ++i) acc.mu[i] = 0.0;
    else
      fold(fanins);
    // arrival[id] = in + the gate's canonical delay, per lane.
    const device::GateKind kind = bound_.kind(id);
    for (std::size_t k = 0; k < L; ++k) {
      const double* sizes = lanes[k].sizes;
      const double load = bound_.load(id, sizes, opt_.output_load);
      const double nominal = model_->nominal_delay(kind, sizes[id], load);
      const auto sig =
          model_->delay_sigmas_at(nominal, sizes[id], *lanes[k].spec);
      dst.store(k, acc.load(k) + CanonicalDelay{nominal, sig.inter,
                                                sig.random, sig.systematic});
      hook(k, id, load, nominal, sig);
    }
  }

  fold(bound_.outputs());
  for (std::size_t k = 0; k < L; ++k) out[k] = acc.load(k);
}

}  // namespace statpipe::sta
