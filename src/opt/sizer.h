// Statistical gate sizing under a yield/delay constraint — the subroutine
// the paper imports from [3] (Choi et al., "Novel Sizing Algorithm for
// Yield Improvement under Process Variation", DAC 2004): an iterative
// Lagrangian-relaxation loop that minimizes total cell area subject to a
// statistical delay target.
//
// Formulation.  With per-gate sizes x and the stage's canonical-SSTA delay
// D(x) ~ N(mu(x), sigma(x)), the stage meets yield y at target T iff
//
//   D_stat(x) = mu(x) + z * sigma(x) <= T,   z = Phi^-1(y)
//
// The solver relaxes the arrival-time constraints with per-gate multipliers
// lambda (flow-conserving: each gate's lambda is the sum of its share of
// every fanout's criticality, distributed over fanins by an arrival-time
// softmax — the projection step of LR subgradient methods), then updates
// each size by the closed-form stationary point of the local Lagrangian:
//
//   dL/dx_g = area_g - lambda_g * tau * C_g / x_g^2
//           + sum_{p in fanin} lambda_p * tau * g_le,g / x_p  = 0
//
// Upsizing also *reduces* sigma (RDF ~ 1/sqrt(x)) — the statistical effect
// that distinguishes [3] from deterministic sizing; it enters through the
// z * sigma term of the per-gate effective delay.
//
// Execution.  size_stage runs one per-stage LR engine (opt/lr_engine.h,
// shared with size_pipeline_simultaneous): the netlist structure is bound
// once per call (sta::SstaBatch) and each iteration is one SSTA walk over
// a single lane — whose gate hook also caches the loads and builds the
// padded deterministic arrivals — followed by a serial Gauss-Seidel size
// update in topological order.  It makes no thread-pool calls and draws no
// random numbers, so its result is a pure function of its inputs:
// thread-count invariant by construction, and safe to run concurrently on
// independent netlists (the optimizers parallelize across candidates and
// stages).
#pragma once

#include <cstddef>

#include "device/delay_model.h"
#include "netlist/netlist.h"
#include "process/variation.h"
#include "sta/characterize.h"
#include "stats/gaussian.h"

namespace statpipe::opt {

struct SizerOptions {
  double t_target = 100.0;     ///< statistical delay target [ps]
  double yield_target = 0.95;  ///< per-stage yield -> z = Phi^-1(y)
  double min_size = 0.5;
  double max_size = 20.0;
  std::size_t max_iterations = 60;
  double softmax_theta_ps = 1.5;  ///< criticality smoothing temperature
  double damping = 0.5;           ///< size-update damping in (0,1]
  double output_load = 2.0;
  double tolerance_ps = 0.05;     ///< convergence window on D_stat
};

struct SizerResult {
  bool feasible = false;       ///< D_stat <= t_target at exit
  double area = 0.0;           ///< final cell area
  stats::Gaussian delay;       ///< final SSTA (mu, sigma)
  /// mu + z*sigma at exit: bitwise stat_delay(nl, model, spec,
  /// yield_target, output_load) on the returned sizes.
  double stat_delay = 0.0;
  std::size_t iterations = 0;
};

/// Sizes `nl` in place: minimizes area subject to
/// mu + Phi^-1(yield)*sigma <= t_target.  If the target is unreachable even
/// at maximum sizes, returns feasible=false with the fastest sizing found.
/// With max_iterations == 0 it leaves `nl` unchanged and reports its SSTA
/// (iterations == 0).  Throws std::invalid_argument on bad options and
/// std::logic_error if `nl` has no primary outputs, before touching a size.
SizerResult size_stage(netlist::Netlist& nl,
                       const device::AlphaPowerModel& model,
                       const process::VariationSpec& spec,
                       const SizerOptions& opt);

/// Statistical delay mu + z*sigma of a stage at its current sizes.
double stat_delay(const netlist::Netlist& nl,
                  const device::AlphaPowerModel& model,
                  const process::VariationSpec& spec, double yield_target,
                  double output_load = 2.0);

}  // namespace statpipe::opt
