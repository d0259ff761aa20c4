#include "opt/sweep.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "sim/engine.h"
#include "sta/characterize.h"
#include "sta/ssta_batch.h"
#include "stats/gaussian.h"

namespace statpipe::opt {

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

bool bitwise_equal(const SweepResult& a, const SweepResult& b) {
  if (!same_bits(a.min_stat_delay, b.min_stat_delay)) return false;
  const auto& pa = a.curve.points();
  const auto& pb = b.curve.points();
  if (pa.size() != pb.size() || a.sizes.size() != b.sizes.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i)
    if (!same_bits(pa[i].delay, pb[i].delay) ||
        !same_bits(pa[i].area, pb[i].area))
      return false;
  for (std::size_t i = 0; i < a.sizes.size(); ++i) {
    if (a.sizes[i].size() != b.sizes[i].size()) return false;
    for (std::size_t g = 0; g < a.sizes[i].size(); ++g)
      if (!same_bits(a.sizes[i][g], b.sizes[i][g])) return false;
  }
  return true;
}


SweepResult area_delay_sweep(netlist::Netlist& nl,
                             const device::AlphaPowerModel& model,
                             const process::VariationSpec& spec,
                             const SweepOptions& opt) {
  if (opt.points < 2)
    throw std::invalid_argument("area_delay_sweep: need >= 2 points");
  if (opt.slow_factor <= 1.0)
    throw std::invalid_argument("area_delay_sweep: slow_factor must be > 1");

  // Find the fastest achievable statistical delay: size everything at an
  // aggressive (tiny) target; the sizer saturates at its speed limit.
  SizerOptions fast = opt.sizer;
  fast.yield_target = opt.yield_target;
  fast.t_target = 1e-3;
  const double d_min = size_stage(nl, model, spec, fast).stat_delay;

  // Candidate delay targets all size independent copies of the fast-point
  // netlist, so the design-space points evaluate concurrently and the
  // outcome does not depend on sweep (or thread) order.
  (void)nl.topological_order();  // warm the cache the copies inherit
  const double d_max = d_min * opt.slow_factor;
  auto target_at = [&](std::size_t k) {
    return d_min * 1.02 + (d_max - d_min * 1.02) * static_cast<double>(k) /
                              static_cast<double>(opt.points - 1);
  };
  std::vector<std::vector<double>> cand_sizes(opt.points);
  sim::parallel_for(opt.points, [&](std::size_t k) {
    netlist::Netlist work = nl;
    SizerOptions so = opt.sizer;
    so.yield_target = opt.yield_target;
    so.t_target = target_at(k);
    (void)size_stage(work, model, spec, so);
    cand_sizes[k] = work.sizes();
  });

  // Score the whole candidate grid in one batched SSTA pass: one topological
  // walk, opt.points size lanes.  Stat-delay, area and feasibility are
  // bitwise-equal to what each sizer run reported (its stat delay is the
  // one-lane walk of the returned sizes, and feasibility is the same
  // tolerance test against the candidate's target).  With opt.grid set the
  // same grid runs on a cluster instead — bitwise-identical either way.
  sta::SstaOptions ssta_opt;
  ssta_opt.output_load = opt.sizer.output_load;
  const auto chars =
      sta::characterize_grid(nl, model, cand_sizes, spec, ssta_opt, opt.grid);
  const double z = stats::normal_icdf(opt.yield_target);

  // Deterministic selection in target order with the usual monotone filter:
  // accept only points that trade delay for strictly less area.
  std::vector<core::AreaDelayCurve::Point> pts;
  std::vector<std::vector<double>> all_sizes;
  for (std::size_t k = 0; k < cand_sizes.size(); ++k) {
    const double sd = chars[k].delay.mean + z * chars[k].delay.sigma;
    const double area = chars[k].area;
    if (sd > target_at(k) + opt.sizer.tolerance_ps) continue;  // infeasible
    if (!pts.empty() && area >= pts.back().area) continue;
    if (!pts.empty() && sd <= pts.back().delay) continue;
    pts.push_back({sd, area});
    all_sizes.push_back(std::move(cand_sizes[k]));
  }
  if (pts.size() < 2)
    throw std::runtime_error(
        "area_delay_sweep: fewer than two feasible sweep points for '" +
        nl.name() + "'");

  // Leave the netlist at the fastest point.
  nl.set_sizes(all_sizes.front());

  SweepResult out{core::AreaDelayCurve(pts), d_min, std::move(all_sizes)};
  return out;
}

core::StageFamily stage_family_from_sweep(netlist::Netlist& nl,
                                          const device::AlphaPowerModel& model,
                                          const process::VariationSpec& spec,
                                          const SweepOptions& opt) {
  const std::vector<double> saved = nl.sizes();

  const auto sweep = area_delay_sweep(nl, model, spec, opt);

  // Re-characterize every sweep point in terms of (mu, sigma, inter frac) —
  // one batched SSTA pass over all points (one topological walk, one size
  // lane per point) instead of a netlist copy, bind and walk per point.
  sta::SstaOptions ssta_opt;
  ssta_opt.output_load = opt.sizer.output_load;
  const auto chars =
      sta::characterize_grid(nl, model, sweep.sizes, spec, ssta_opt, opt.grid);
  nl.set_sizes(saved);

  std::vector<double> mus, sigmas;
  std::vector<core::AreaDelayCurve::Point> mu_curve;
  double inter_frac_sum = 0.0;
  for (const auto& c : chars) {
    // Guard monotonicity in mu (stat-delay monotone does not strictly
    // imply mu monotone when sigma shrinks with upsizing).
    if (!mu_curve.empty() && (c.delay.mean <= mu_curve.back().delay ||
                              c.area >= mu_curve.back().area))
      continue;
    mu_curve.push_back({c.delay.mean, c.area});
    mus.push_back(c.delay.mean);
    sigmas.push_back(c.delay.sigma);
    inter_frac_sum += c.delay.sigma > 0.0 ? c.sigma_inter / c.delay.sigma : 0.0;
  }
  if (mu_curve.size() < 2)
    throw std::runtime_error("stage_family_from_sweep: degenerate curve for '" +
                             nl.name() + "'");

  auto sigma_of_mu = [mus, sigmas](double mu) {
    if (mu <= mus.front()) return sigmas.front();
    if (mu >= mus.back()) return sigmas.back();
    const auto it = std::lower_bound(mus.begin(), mus.end(), mu);
    const std::size_t hi = static_cast<std::size_t>(it - mus.begin());
    const std::size_t lo = hi - 1;
    const double t = (mu - mus[lo]) / (mus[hi] - mus[lo]);
    return sigmas[lo] + t * (sigmas[hi] - sigmas[lo]);
  };

  return core::StageFamily{
      nl.name(), core::AreaDelayCurve(std::move(mu_curve)),
      std::move(sigma_of_mu),
      inter_frac_sum / static_cast<double>(mus.size())};
}

}  // namespace statpipe::opt
