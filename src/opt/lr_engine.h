// One stage's bound Lagrangian-relaxation state — the inner loop of the
// statistical sizer of [3] (see opt/sizer.h for the formulation), shared by
// the per-stage sizer (size_stage) and the whole-pipeline sizer
// (size_pipeline_simultaneous).  Internal to src/opt.
//
// The engine binds the netlist once (an sta::SstaBatch, whose
// netlist::BoundNetlist the update reuses) and keeps the sizes in a flat
// vector; the netlist itself is never written.  Each iteration is one
// single-lane SstaBatch walk — its gate hook caches the loads and builds
// the padded deterministic arrival in the same pass — followed by one
// update: the flow-conserving criticality weights, then a serial
// Gauss-Seidel closed-form size update under a caller-given multiplier.
// No thread-pool calls and no random numbers: a pure function of its
// inputs, safe to run on independent stages concurrently.
#pragma once

#include <vector>

#include "device/delay_model.h"
#include "netlist/netlist.h"
#include "opt/sizer.h"
#include "process/variation.h"
#include "sta/ssta_batch.h"

namespace statpipe::opt::detail {

class StageLrEngine {
 public:
  /// Binds `nl` and copies its sizes.  `z` scales each gate's sigma share
  /// in the padded arrival (z * sigma / sqrt(depth)); the size bounds,
  /// damping, softmax temperature and output load come from `opt`, which
  /// must outlive the engine, as must `model` and `spec`.  Throws
  /// std::invalid_argument on bad size bounds (min_size <= 0 or
  /// max_size < min_size) or a damping outside (0, 1], and
  /// std::logic_error on a netlist without primary outputs.
  StageLrEngine(const netlist::Netlist& nl,
                const device::AlphaPowerModel& model,
                const process::VariationSpec& spec, const SizerOptions& opt,
                double z);

  /// One walk at the current sizes: caches the loads and padded arrivals
  /// for update() and returns the canonical delay at the critical output
  /// (sta::analyze_ssta of the netlist at these sizes, bitwise).
  sta::CanonicalDelay walk();

  /// LR projection on the last walk's padded arrivals, then the
  /// closed-form coordinate update of every size in topological order
  /// (a gate reads its fanins' already-updated sizes and its cached load;
  /// every fanout comes later in the order, so that load is exact).
  /// `lambda` multiplies the criticality weights against area.
  void update(double lambda);

  /// Total cell area at the current sizes (Netlist::total_area, bitwise).
  double area() const { return ssta_.bound().area(x_.data()); }
  const std::vector<double>& sizes() const noexcept { return x_; }

 private:
  const device::AlphaPowerModel& model_;
  const process::VariationSpec& spec_;
  const SizerOptions& opt_;
  double z_;
  sta::SstaBatch ssta_;
  double sqrt_depth_;
  std::vector<double> x_;                   ///< per-gate sizes
  std::vector<double> load_;                ///< loads of the last walk
  std::vector<double> arrival_;             ///< padded; pseudo gates stay 0
  std::vector<double> w_;                   ///< criticality weights
  sta::SstaWorkspace ws_;                   ///< walk lane storage
};

}  // namespace statpipe::opt::detail
