// Netlist-level power analysis: nominal totals, per-die sampled leakage,
// and the joint frequency/leakage view (fast dies leak more) that turns
// the paper's delay-only yield into a two-sided power-performance yield.
#pragma once

#include <cstddef>
#include <vector>

#include "device/delay_model.h"
#include "device/power.h"
#include "netlist/netlist.h"
#include "process/variation.h"
#include "stats/rng.h"

namespace statpipe::sta {

struct PowerReport {
  double dynamic_uw = 0.0;
  double leakage_uw = 0.0;
  double total_uw() const { return dynamic_uw + leakage_uw; }
};

/// Nominal (variation-free) power of a netlist at clock `f_ghz`.
PowerReport analyze_power(const netlist::Netlist& nl,
                          const device::PowerModel& power, double f_ghz);

/// Leakage of a netlist on one sampled die (per-gate Vth shifts applied;
/// RDF scaled by each gate's size).  `site_of_gate` as in
/// critical_delay_sample.
double sample_leakage_uw(const netlist::Netlist& nl,
                         const device::PowerModel& power,
                         const process::DieSample& die,
                         const std::vector<std::size_t>& site_of_gate);

/// Joint Monte-Carlo of circuit delay and leakage over dies: the material
/// for a frequency-vs-leakage scatter (Bowman-style FMAX picture).  Returns
/// per-die (delay_ps, leakage_uw) pairs.
struct DelayLeakageSample {
  double delay_ps;
  double leakage_uw;
};
std::vector<DelayLeakageSample> delay_leakage_mc(
    const netlist::Netlist& nl, const device::AlphaPowerModel& delay_model,
    const device::PowerModel& power, const process::VariationSpec& spec,
    std::size_t n_samples, stats::Rng& rng, double output_load = 2.0);

}  // namespace statpipe::sta
