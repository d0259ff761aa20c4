#include "opt/sizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "obs/telemetry.h"
#include "opt/lr_engine.h"
#include "sta/ssta.h"

namespace statpipe::opt {

using netlist::Netlist;

double stat_delay(const Netlist& nl, const device::AlphaPowerModel& model,
                  const process::VariationSpec& spec, double yield_target,
                  double output_load) {
  sta::SstaOptions so;
  so.output_load = output_load;
  const auto d = sta::analyze_ssta(nl, model, spec, so);
  const double z = stats::normal_icdf(yield_target);
  return d.mu + z * d.sigma();
}

SizerResult size_stage(Netlist& nl, const device::AlphaPowerModel& model,
                       const process::VariationSpec& spec,
                       const SizerOptions& opt) {
  if (!(opt.yield_target > 0.0 && opt.yield_target < 1.0))
    throw std::invalid_argument("size_stage: yield_target outside (0,1)");

  const double z = stats::normal_icdf(opt.yield_target);
  // Binds the structure once and checks the size bounds and damping; the
  // sizes live in the engine until the best ones are written back.
  detail::StageLrEngine lr(nl, model, spec, opt, z);

  // Lagrange multiplier on the delay constraint: scales the criticality
  // weights against area in the size update; grown/shrunk by subgradient
  // steps on the constraint violation.
  double lambda_scale = 1.0;
  double best_stat = std::numeric_limits<double>::infinity();
  sta::CanonicalDelay best_delay{};
  std::vector<double> best_sizes = lr.sizes();
  SizerResult result;

  auto record_if_best = [&](double ds, const sta::CanonicalDelay& d) {
    // Track the closest-to-target feasible point, or the fastest seen.
    const bool feas = ds <= opt.t_target + opt.tolerance_ps;
    const bool best_feas = best_stat <= opt.t_target + opt.tolerance_ps;
    const double area = lr.area();
    bool take = false;
    if (feas && best_feas)
      take = area < result.area;   // both meet target: prefer smaller area
    else if (feas != best_feas)
      take = feas;                 // feasibility first
    else
      take = ds < best_stat;       // both infeasible: prefer faster
    if (take || result.iterations == 1) {  // first evaluation always recorded
      best_stat = ds;
      best_delay = d;
      result.area = area;
      best_sizes = lr.sizes();
    }
  };

  for (std::size_t iter = 0; iter < opt.max_iterations; ++iter) {
    const sta::CanonicalDelay d = lr.walk();
    const double ds = d.mu + z * d.sigma();
    ++result.iterations;
    static obs::Counter c_iters("opt.sizer.iterations");
    c_iters.add();
    record_if_best(ds, d);
    if (std::abs(ds - opt.t_target) <= opt.tolerance_ps) break;

    // --- subgradient step on the constraint multiplier.
    const double violation = (ds - opt.t_target) / std::max(opt.t_target, 1.0);
    lambda_scale *= std::exp(std::clamp(2.0 * violation, -0.7, 0.7));
    lambda_scale = std::clamp(lambda_scale, 1e-4, 1e6);

    // --- LR projection and closed-form Gauss-Seidel size update.
    lr.update(lambda_scale);
  }

  // No iteration ran (max_iterations == 0): report the unchanged stage.
  if (result.iterations == 0) best_delay = lr.walk();

  // Restore the best sizes seen; their SSTA is the one recorded with them.
  nl.set_sizes(best_sizes);
  result.delay = best_delay.as_gaussian();
  result.stat_delay = best_delay.mu + z * best_delay.sigma();
  result.area = nl.total_area();
  result.feasible = result.stat_delay <= opt.t_target + opt.tolerance_ps;
  return result;
}

}  // namespace statpipe::opt
