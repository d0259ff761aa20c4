#include "sta/characterize.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "sta/ssta_batch.h"
#include "stats/descriptive.h"

namespace statpipe::sta {

StageCharacterization characterize_mc(const netlist::Netlist& nl,
                                      const device::AlphaPowerModel& model,
                                      const process::VariationSpec& spec,
                                      stats::Rng& rng,
                                      const CharacterizeOptions& opt) {
  if (opt.mc_samples < 2)
    throw std::invalid_argument("characterize_mc: need >= 2 samples");

  std::vector<double> positions;
  positions.reserve(nl.size());
  for (const auto& g : nl.gates()) positions.push_back(g.position);
  process::VariationSampler sampler(model.technology(), spec, positions);

  StaOptions sta_opt;
  sta_opt.output_load = opt.output_load;

  std::vector<std::size_t> identity(nl.size());
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  StaWorkspace ws;
  std::vector<double> delays, inters;
  delays.reserve(opt.mc_samples);
  inters.reserve(opt.mc_samples);
  for (std::size_t i = 0; i < opt.mc_samples; ++i) {
    const auto die = sampler.sample(rng);
    delays.push_back(
        critical_delay_sample(nl, model, die, identity, sta_opt, ws));
    inters.push_back(die.dvth_inter);
  }

  StageCharacterization c;
  c.delay = {stats::mean(delays), stats::stddev(delays)};
  c.area = nl.total_area();
  c.nominal_delay = analyze(nl, model, sta_opt).critical_delay;

  // Split sigma into the part explained by the shared inter-die draw
  // (slope * sigma_inter) and the residual.
  if (spec.sigma_vth_inter > 0.0) {
    const double r = stats::pearson(delays, inters);
    c.sigma_inter = std::abs(r) * c.delay.sigma;
    const double resid = c.delay.variance() - c.sigma_inter * c.sigma_inter;
    c.sigma_private = resid > 0.0 ? std::sqrt(resid) : 0.0;
  } else {
    c.sigma_inter = 0.0;
    c.sigma_private = c.delay.sigma;
  }
  return c;
}

StageCharacterization stage_characterization(const CanonicalDelay& d,
                                             double area,
                                             double nominal_delay) {
  StageCharacterization c;
  c.delay = d.as_gaussian();
  c.sigma_inter = std::abs(d.b_inter);
  c.sigma_private = std::sqrt(d.b_sys * d.b_sys + d.sigma_ind * d.sigma_ind);
  c.area = area;
  c.nominal_delay = nominal_delay;
  return c;
}

StageCharacterization characterize_ssta(const netlist::Netlist& nl,
                                        const device::AlphaPowerModel& model,
                                        const process::VariationSpec& spec,
                                        const CharacterizeOptions& opt) {
  SstaOptions ssta_opt;
  ssta_opt.output_load = opt.output_load;
  return SstaBatch(nl, model, ssta_opt).characterize({{{}, spec}}).front();
}

}  // namespace statpipe::sta
