#include "sta/power_analysis.h"

#include <numeric>
#include <stdexcept>

#include "sta/sta.h"

namespace statpipe::sta {

PowerReport analyze_power(const netlist::Netlist& nl,
                          const device::PowerModel& power, double f_ghz) {
  PowerReport r;
  for (const auto& g : nl.gates()) {
    if (g.is_pseudo()) continue;
    r.dynamic_uw += power.dynamic_uw(g.kind, g.size, f_ghz);
    r.leakage_uw += power.leakage_uw(g.kind, g.size);
  }
  return r;
}

double sample_leakage_uw(const netlist::Netlist& nl,
                         const device::PowerModel& power,
                         const process::DieSample& die,
                         const std::vector<std::size_t>& site_of_gate) {
  if (site_of_gate.size() != nl.size())
    throw std::invalid_argument("sample_leakage_uw: site map size mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const auto& g = nl.gate(i);
    if (g.is_pseudo()) continue;
    total += power.leakage_uw(g.kind, g.size,
                              die.dvth_at(site_of_gate[i], g.size));
  }
  return total;
}

std::vector<DelayLeakageSample> delay_leakage_mc(
    const netlist::Netlist& nl, const device::AlphaPowerModel& delay_model,
    const device::PowerModel& power, const process::VariationSpec& spec,
    std::size_t n_samples, stats::Rng& rng, double output_load) {
  if (n_samples == 0)
    throw std::invalid_argument("delay_leakage_mc: zero samples");
  std::vector<double> positions;
  positions.reserve(nl.size());
  for (const auto& g : nl.gates()) positions.push_back(g.position);
  process::VariationSampler sampler(delay_model.technology(), spec,
                                    positions);
  StaOptions opt;
  opt.output_load = output_load;

  std::vector<std::size_t> identity(nl.size());
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  StaWorkspace ws;
  std::vector<DelayLeakageSample> out;
  out.reserve(n_samples);
  for (std::size_t k = 0; k < n_samples; ++k) {
    const auto die = sampler.sample(rng);
    out.push_back(
        {critical_delay_sample(nl, delay_model, die, identity, opt, ws),
         sample_leakage_uw(nl, power, die, identity)});
  }
  return out;
}

}  // namespace statpipe::sta
