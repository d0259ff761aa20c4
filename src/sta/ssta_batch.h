// Batched gate-level SSTA: one netlist topology, K sweep configurations,
// one topological walk.
//
// The yield/area optimizer's inner loops (area-delay sweeps, the global
// optimizer's candidate grids) evaluate the *same* netlist structure under
// many per-gate size assignments.  The scalar path pays the full structural
// cost per point: a deep netlist copy, a topological walk, fanin/fanout list
// chasing and a primary-output membership scan per gate.  SstaBatch binds
// the structure once and propagates all K configurations together: gate
// arrival forms are laid out as structure-of-arrays (four K-wide vectors —
// mu, b_inter, sigma_ind, b_sys — per gate) and every gate visit performs
// the Clark max/add over all K lanes before moving on.
//
// Determinism contract: per lane, the propagation executes exactly the
// floating-point sequence of the scalar path, so
//
//   SstaBatch(nl, model, opt).analyze(configs)[k]
//     == analyze_ssta(nl_with(configs[k].sizes), model, configs[k].spec, opt)
//
// bitwise, for every k — and likewise characterize() vs characterize_ssta.
// Lanes carry no random state, so results are also independent of how the
// batch is sharded over the sim engine and of the thread count
// (tests/test_sta.cpp enforces both equalities).
#pragma once

#include <cstddef>
#include <functional>
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

  std::size_t gate_count() const noexcept { return bound_.size(); }

  /// Canonical arrival at the critical output, one entry per config —
  /// bitwise-identical to one analyze_ssta run per config (see the file
  /// comment).  Lane blocks fan out over the sim engine per `exec`.
  std::vector<CanonicalDelay> analyze(const std::vector<SstaConfig>& configs,
                                      const sim::ExecutionOptions& exec) const;
  std::vector<CanonicalDelay> analyze(
      const std::vector<SstaConfig>& configs) const {
    return analyze(configs, batch_exec(configs.size()));
  }

  /// Full stage characterization per config (delay Gaussian, inter/private
  /// sigma split, area, nominal critical delay) — bitwise-identical to one
  /// characterize_ssta run per config.
  std::vector<StageCharacterization> characterize(
      const std::vector<SstaConfig>& configs,
      const sim::ExecutionOptions& exec) const;
  std::vector<StageCharacterization> characterize(
      const std::vector<SstaConfig>& configs) const {
    return characterize(configs, batch_exec(configs.size()));
  }

 private:
  /// Propagates one contiguous lane block; writes per-lane canonical results
  /// (and, when `chars` is non-null, full characterizations) at their global
  /// lane indices.
  void run_block(const std::vector<SstaConfig>& configs, std::size_t lane_begin,
                 std::size_t lane_count, CanonicalDelay* out,
                 StageCharacterization* chars) const;

  const device::AlphaPowerModel* model_;
  SstaOptions opt_;
  netlist::BoundNetlist bound_;
  std::vector<double> base_sizes_;  ///< fallback when a config has no sizes
};

}  // namespace statpipe::sta
