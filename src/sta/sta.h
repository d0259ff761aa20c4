// Deterministic static timing analysis over a gate-level netlist.
//
// Arrival times propagate in topological order; the critical (maximum)
// arrival over primary outputs is the combinational delay T_comb that the
// paper's stage-delay decomposition SD = Tc-q + T_comb + T_setup consumes.
//
// Layer contract (src/sta, see docs/ARCHITECTURE.md): owns timing analysis
// over one netlist — deterministic STA, canonical-form SSTA, the batched
// SstaBatch and stage characterization.  May depend on stats/process/
// device/netlist, and on src/sim only to fan batched lanes out; must not
// know about Monte-Carlo engines, pipeline models or optimizers.
#pragma once

#include <vector>

#include "device/delay_model.h"
#include "netlist/netlist.h"
#include "process/variation.h"

namespace statpipe::sta {

struct StaOptions {
  double output_load = 2.0;  ///< cap on primary outputs [inv-cap units]
};

struct StaResult {
  double critical_delay = 0.0;          ///< max arrival over outputs [ps]
  std::vector<double> arrival;          ///< per-gate arrival [ps]
  netlist::GateId critical_output = netlist::kInvalidGate;

  /// Gates on the critical path, input-side first.
  std::vector<netlist::GateId> critical_path(const netlist::Netlist& nl) const;
};

/// Nominal (variation-free) STA.
StaResult analyze(const netlist::Netlist& nl,
                  const device::AlphaPowerModel& model,
                  const StaOptions& opt = {});

/// Caller-owned arrival-time arena for tight sample-STA loops (one per
/// Monte-Carlo shard): steady-state sample STA then allocates nothing.
struct StaWorkspace {
  std::vector<double> arrival;
};

/// Reentrant sample STA under a sampled die: per-gate delays scaled by the
/// alpha-power variation factor at each gate's site, returning only the
/// critical delay and propagating through the caller's workspace.
/// `site_of_gate[i]` maps gate id to the DieSample site index (identity
/// when the netlist was sampled alone).  Const-safe for concurrent use on
/// the same netlist provided its topological order has been materialized
/// first (call nl.topological_order() — or any STA entry point — once
/// before fanning out; the lazy cache is the one mutable member).
double critical_delay_sample(const netlist::Netlist& nl,
                             const device::AlphaPowerModel& model,
                             const process::DieSample& die,
                             const std::vector<std::size_t>& site_of_gate,
                             const StaOptions& opt, StaWorkspace& ws);

struct StaBlockWorkspace;

/// Bind-once half of the block sample STA: one stage's lane-invariant
/// structure — topo order with pseudo gates skipped, and per bound gate its
/// site, nominal delay, sqrt(size) and CSR fanin span.  Every value is
/// exactly what critical_delay_sample recomputes per die, so streaming any
/// number of blocks through one BlockStage cannot change a result bit.
/// The bind reads each value once, straight off the Netlist: a
/// netlist::BoundNetlist would add a transient fanout CSR that costs the
/// Monte-Carlo engine's set-up more than it saves here.
///
/// Immutable: the netlist's sizes, topology and the site map are read once
/// here (later edits to the netlist are not seen), so one BlockStage is
/// shared read-only by any number of concurrent walks.  The model must
/// outlive it.  Throws std::invalid_argument on a site map whose length is
/// not nl.size() and std::logic_error on a netlist without outputs.
class BlockStage {
 public:
  BlockStage(const netlist::Netlist& nl, const device::AlphaPowerModel& model,
             const std::vector<std::size_t>& site_of_gate,
             const StaOptions& opt = {});

 private:
  friend void critical_delay_sample_block(const BlockStage&,
                                          const process::DieBlock&,
                                          StaBlockWorkspace&, double*);

  const device::AlphaPowerModel* model_;
  std::size_t n_gates_;                   ///< nl.size(): arrival row count
  std::vector<netlist::GateId> outputs_;  ///< output fold order
  std::vector<netlist::GateId> gate_ids_; ///< topo order, pseudo skipped
  std::vector<std::size_t> site_;         ///< per bound gate
  std::vector<double> nominal_;           ///< nominal delay per bound gate
  std::vector<double> sqrt_size_;         ///< sqrt(gate size) per bound gate
  std::vector<std::size_t> fanin_begin_;  ///< CSR offsets, gate_ids_+1
  std::vector<netlist::GateId> fanins_;   ///< CSR fanin ids
};

/// Caller-owned lane scratch for the block sample STA (one per Monte-Carlo
/// shard): gate-major arrival lanes plus per-gate lane rows, reused so
/// steady-state block STA allocates nothing.  Holds no stage state, so one
/// workspace serves any sequence of stages.
struct StaBlockWorkspace {
  std::vector<double> arrival;  ///< [gates * width], gate-major lane rows
  std::vector<double> dvth;     ///< [width] per-gate Vth shifts
  std::vector<double> dl;       ///< [width] per-gate dL/L shifts
  std::vector<double> vf;       ///< [width] per-gate variation factors
};

/// Block sample STA: evaluates the alpha-power delay model and the topo max
/// for all `block.width` dies of one SoA DieBlock in a single walk over
/// `stage`, writing the per-die critical delays to critical[0 .. width).
/// The walk runs as one kernel of the active SIMD backend (stats/simd.h;
/// width validated against the backend's max_width()).  Per die the
/// operation order is unchanged from the scalar path — lane-invariant work
/// is hoisted into the BlockStage but produces the exact values the scalar
/// path computes per call — so each die's delay is bitwise-identical to
/// critical_delay_sample on that die under every backend.
void critical_delay_sample_block(const BlockStage& stage,
                                 const process::DieBlock& block,
                                 StaBlockWorkspace& ws, double* critical);

}  // namespace statpipe::sta
