#include "opt/sizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "netlist/bound_netlist.h"
#include "obs/telemetry.h"
#include "sta/ssta.h"

namespace statpipe::opt {

namespace {

using netlist::BoundNetlist;
using netlist::GateId;
using netlist::Netlist;

/// Flow-conserving criticality multipliers: seed every primary output with
/// weight softmax(arrival), then push each gate's weight back onto its
/// fanins proportional to exp(arrival/theta) — the LR projection step.
void criticality_weights(const BoundNetlist& b,
                         const std::vector<double>& arrival, double theta,
                         std::vector<double>& w) {
  std::fill(w.begin(), w.end(), 0.0);

  // Output seeding.
  double amax = 0.0;
  for (GateId o : b.outputs()) amax = std::max(amax, arrival[o]);
  double norm = 0.0;
  for (GateId o : b.outputs()) norm += std::exp((arrival[o] - amax) / theta);
  for (GateId o : b.outputs())
    w[o] += std::exp((arrival[o] - amax) / theta) / norm;

  // Reverse-topological back-propagation.
  const auto& topo = b.topo();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId id = *it;
    const auto fanins = b.fanins(id);
    if (w[id] <= 0.0 || fanins.empty()) continue;
    double fmax = 0.0;
    for (GateId f : fanins) fmax = std::max(fmax, arrival[f]);
    double fsum = 0.0;
    for (GateId f : fanins) fsum += std::exp((arrival[f] - fmax) / theta);
    for (GateId f : fanins)
      w[f] += w[id] * std::exp((arrival[f] - fmax) / theta) / fsum;
  }
}

}  // namespace

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
  if (opt.min_size <= 0.0 || opt.max_size < opt.min_size)
    throw std::invalid_argument("size_stage: bad size bounds");
  if (opt.damping <= 0.0 || opt.damping > 1.0)
    throw std::invalid_argument("size_stage: damping outside (0,1]");
  if (nl.outputs().empty())
    throw std::logic_error("size_stage: netlist has no primary outputs");

  const double z = stats::normal_icdf(opt.yield_target);
  const double tau = model.technology().tau_ps;

  // Structure and padding divisor are fixed across iterations (only sizes
  // change inside the loop); the sizes live in a flat vector until the
  // best one is written back.
  const BoundNetlist b(nl);
  const std::size_t n = b.size();
  const double sqrt_depth = std::sqrt(
      static_cast<double>(std::max<std::size_t>(nl.depth(), 1)));
  std::vector<double> x = nl.sizes();
  std::vector<double> load(n, 0.0);
  std::vector<double> arrival(n, 0.0);  // pseudo gates stay at 0
  std::vector<sta::CanonicalDelay> carrival(n);
  std::vector<double> w(n, 0.0);

  // One topological walk at the current sizes x.  Per gate it computes
  // the load (cached for the size update), then from the same nominal
  // delay and sigmas both
  //  - the deterministic arrival padded with the gate's z*sigma share (the
  //    statistical effect of [3]) that drives the criticality weights, and
  //  - the canonical SSTA arrival, folded over fanins exactly as
  //    sta::analyze_ssta folds it.
  // Returns the canonical delay at the critical output: analyze_ssta(nl)
  // with nl at sizes x, bitwise.
  auto time_stage = [&]() {
    for (GateId id : b.topo()) {
      if (b.pseudo(id)) continue;
      const device::GateKind kind = b.kind(id);
      const double size = x[id];
      const double ld = b.load(id, x.data(), opt.output_load);
      load[id] = ld;
      const auto sig = model.delay_sigmas(kind, size, ld, spec);
      const double nominal = model.nominal_delay(kind, size, ld);
      double in_arr = 0.0;
      sta::CanonicalDelay in{};
      bool first = true;
      for (GateId f : b.fanins(id)) {
        in_arr = std::max(in_arr, arrival[f]);
        in = first ? carrival[f] : sta::canonical_max(in, carrival[f]);
        first = false;
      }
      arrival[id] = in_arr + nominal + z * sig.total() / sqrt_depth;
      carrival[id] = in + sta::CanonicalDelay{nominal, sig.inter, sig.random,
                                              sig.systematic};
    }
    sta::CanonicalDelay out{};
    bool first = true;
    for (GateId o : b.outputs()) {
      out = first ? carrival[o] : sta::canonical_max(out, carrival[o]);
      first = false;
    }
    return out;
  };

  // Lagrange multiplier on the delay constraint: scales the criticality
  // weights against area in the size update; grown/shrunk by subgradient
  // steps on the constraint violation.
  double lambda_scale = 1.0;
  double best_stat = std::numeric_limits<double>::infinity();
  sta::CanonicalDelay best_delay{};
  std::vector<double> best_sizes = x;
  SizerResult result;

  auto record_if_best = [&](double ds, const sta::CanonicalDelay& d) {
    // Track the closest-to-target feasible point, or the fastest seen.
    const bool feas = ds <= opt.t_target + opt.tolerance_ps;
    const bool best_feas = best_stat <= opt.t_target + opt.tolerance_ps;
    const double area = b.area(x.data());
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
      best_sizes = x;
    }
  };

  for (std::size_t iter = 0; iter < opt.max_iterations; ++iter) {
    const sta::CanonicalDelay d = time_stage();
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

    // --- LR projection: flow-conserving criticality weights.
    criticality_weights(b, arrival, opt.softmax_theta_ps, w);

    // --- closed-form coordinate update of every size, Gauss-Seidel in
    //     topological order: a gate reads its fanins' already-updated
    //     sizes and its cached load.  Every fanout comes later in the
    //     order, so the cached load is exactly the pre-update load.
    for (GateId id : b.topo()) {
      if (b.pseudo(id)) continue;
      const auto& t = device::traits(b.kind(id));
      const double lam_g = lambda_scale * w[id];

      // Pressure from this gate's own delay: lam_g * tau * load / x^2.
      // Pressure from loading predecessors: sum over fanins p of
      //   lam_p * tau * g_le / x_p  (per unit of our size).
      double pred_cost = 0.0;
      for (GateId f : b.fanins(id)) {
        if (b.pseudo(f)) continue;
        pred_cost += lambda_scale * w[f] * tau * t.logical_effort / x[f];
      }
      const double denom = t.area + pred_cost;
      const double x_star = std::sqrt(
          std::max(lam_g * tau * std::max(load[id], 1e-6) / denom, 1e-12));
      const double x_new = std::clamp(x_star, opt.min_size, opt.max_size);
      x[id] = x[id] * (1.0 - opt.damping) + x_new * opt.damping;
    }
  }

  // No iteration ran (max_iterations == 0): report the unchanged stage.
  if (result.iterations == 0) best_delay = time_stage();

  // Restore the best sizes seen; their SSTA is the one recorded with them.
  nl.set_sizes(best_sizes);
  result.delay = best_delay.as_gaussian();
  result.stat_delay = best_delay.mu + z * best_delay.sigma();
  result.area = nl.total_area();
  result.feasible = result.stat_delay <= opt.t_target + opt.tolerance_ps;
  return result;
}

}  // namespace statpipe::opt
