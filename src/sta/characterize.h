// Stage characterization: turns a stage netlist into the (mu_i, sigma_i)
// Gaussian the paper's analytical pipeline model consumes — the role SPICE
// Monte-Carlo plays in section 2.4.
#pragma once

#include <cstddef>
#include <vector>

#include "device/delay_model.h"
#include "netlist/netlist.h"
#include "process/variation.h"
#include "sta/ssta.h"
#include "sta/sta.h"
#include "stats/gaussian.h"
#include "stats/rng.h"

namespace statpipe::sta {

/// Combinational-delay statistics of one stage netlist.
struct StageCharacterization {
  stats::Gaussian delay;        ///< total T_comb distribution [ps]
  double sigma_inter = 0.0;     ///< shared (inter-die) sigma component
  double sigma_private = 0.0;   ///< stage-private sigma component
  double area = 0.0;            ///< total cell area [min-inv areas]
  double nominal_delay = 0.0;   ///< variation-free critical delay [ps]
};

/// The stage split of a canonical critical-output delay — the one place a
/// StageCharacterization is filled from a CanonicalDelay.  The inter-die
/// coefficient is the shared sigma; the systematic part is shared within
/// the stage but private across stages (the spatial field decorrelates
/// between stage placements), so it joins the independent residual.
StageCharacterization stage_characterization(const CanonicalDelay& d,
                                             double area,
                                             double nominal_delay);

struct CharacterizeOptions {
  std::size_t mc_samples = 2000;
  double output_load = 2.0;
};

/// Monte-Carlo characterization (the SPICE stand-in): samples dies, runs
/// sample STA, returns mean/sigma.  The inter/private split is estimated by
/// regressing delay on the inter-die draw.
StageCharacterization characterize_mc(const netlist::Netlist& nl,
                                      const device::AlphaPowerModel& model,
                                      const process::VariationSpec& spec,
                                      stats::Rng& rng,
                                      const CharacterizeOptions& opt = {});

/// Analytical characterization via canonical-form SSTA — orders of
/// magnitude faster; used inside the sizing optimizer's inner loop.  One
/// bound lane of sta::SstaBatch::characterize (the nominal critical delay
/// rides along in the same walk).
StageCharacterization characterize_ssta(const netlist::Netlist& nl,
                                        const device::AlphaPowerModel& model,
                                        const process::VariationSpec& spec,
                                        const CharacterizeOptions& opt = {});

}  // namespace statpipe::sta
