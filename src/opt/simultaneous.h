// Simultaneous whole-pipeline sizing — the reference the paper's
// divide-and-conquer flow is measured against (section 4: sizing all m
// stages' gates jointly costs O(m^2 n^2) with the LR sizer, vs O(m n^2)
// for one-stage-at-a-time with incremental pipeline timing).
//
// All gates of all stages are updated in every iteration under a single
// Lagrange multiplier on the *pipeline-level* statistical delay; each
// stage's gate weights are scaled by the stage's criticality (a softmax of
// how close its statistical delay is to the pipeline max).  This is the
// honest "size everything at once" formulation — used by the ablation
// bench and available to users who prefer one joint solve.
//
// Execution.  Each stage runs the same LR engine as size_stage
// (opt/lr_engine.h), padded with the pipeline's z.  An iteration is one
// SSTA lane walk per stage — its canonical delay is sta::analyze_ssta's
// and it is split by sta::stage_characterization, so the pipeline model
// assembled from it (core::assemble_pipeline) is
// core::build_pipeline_ssta's, bitwise — then one Gauss-Seidel update per
// stage under the stage's share of the joint multiplier.  Stages are timed
// at sizer.output_load.  The netlists are written once, with the best
// sizes, at exit; no thread-pool calls, no random numbers.
#pragma once

#include <vector>

#include "device/latch.h"
#include "netlist/netlist.h"
#include "opt/sizer.h"

namespace statpipe::opt {

struct SimultaneousOptions {
  double t_target = 200.0;     ///< pipeline delay target (incl. latch) [ps]
  double yield_target = 0.80;  ///< pipeline yield target
  SizerOptions sizer;  ///< per-gate update knobs (t_target, yield_target
                       ///< and tolerance_ps ignored)
  double stage_softmax_theta = 0.02;  ///< stage-criticality temperature,
                                      ///< relative to the target
};

struct SimultaneousResult {
  bool feasible = false;
  double area = 0.0;
  double pipeline_yield = 0.0;
  std::size_t iterations = 0;
};

/// Sizes all stages in place to minimize total area subject to the
/// pipeline yield target at t_target.
SimultaneousResult size_pipeline_simultaneous(
    std::vector<netlist::Netlist*>& stages,
    const device::AlphaPowerModel& model, const process::VariationSpec& spec,
    const device::LatchModel& latch, const SimultaneousOptions& opt);

}  // namespace statpipe::opt
