// One stage's bound Lagrangian-relaxation state — the inner loop of the
// statistical sizer of [3] (see opt/sizer.h for the formulation), shared by
// the per-stage sizer (size_stage) and the whole-pipeline sizer
// (size_pipeline_simultaneous).  Internal to src/opt.
//
// The engine binds the netlist structure once (netlist::BoundNetlist) and
// keeps the sizes in a flat vector; the netlist itself is never written.
// Each iteration is one fused topological walk (loads, the padded
// deterministic arrival and the canonical SSTA arrival together) followed
// by one update: the flow-conserving criticality weights, then a serial
// Gauss-Seidel closed-form size update under a caller-given multiplier.
// No thread-pool calls and no random numbers: a pure function of its
// inputs, safe to run on independent stages concurrently.
#pragma once

#include <vector>

#include "device/delay_model.h"
#include "netlist/bound_netlist.h"
#include "netlist/netlist.h"
#include "opt/sizer.h"
#include "process/variation.h"
#include "sta/ssta.h"

namespace statpipe::opt::detail {

class StageLrEngine {
 public:
  /// Binds `nl` and copies its sizes.  `z` scales each gate's sigma share
  /// in the padded arrival (z * sigma / sqrt(depth)); the size bounds,
  /// damping, softmax temperature and output load come from `opt`, which
  /// must outlive the engine, as must `model` and `spec`.  Throws
  /// std::logic_error on a netlist without primary outputs.
  StageLrEngine(const netlist::Netlist& nl,
                const device::AlphaPowerModel& model,
                const process::VariationSpec& spec, const SizerOptions& opt,
                double z);

  /// One fused walk at the current sizes: caches the loads and padded
  /// arrivals for update() and returns the canonical delay at the critical
  /// output — sta::analyze_ssta of the netlist at these sizes, bitwise.
  sta::CanonicalDelay walk();

  /// LR projection on the last walk's padded arrivals, then the
  /// closed-form coordinate update of every size in topological order
  /// (a gate reads its fanins' already-updated sizes and its cached load;
  /// every fanout comes later in the order, so that load is exact).
  /// `lambda` multiplies the criticality weights against area.
  void update(double lambda);

  /// Total cell area at the current sizes (Netlist::total_area, bitwise).
  double area() const { return b_.area(x_.data()); }
  const std::vector<double>& sizes() const noexcept { return x_; }

 private:
  const device::AlphaPowerModel& model_;
  const process::VariationSpec& spec_;
  const SizerOptions& opt_;
  double z_;
  netlist::BoundNetlist b_;
  double sqrt_depth_;
  std::vector<double> x_;                   ///< per-gate sizes
  std::vector<double> load_;                ///< loads of the last walk
  std::vector<double> arrival_;             ///< padded; pseudo gates stay 0
  std::vector<sta::CanonicalDelay> carrival_;
  std::vector<double> w_;                   ///< criticality weights
};

}  // namespace statpipe::opt::detail
