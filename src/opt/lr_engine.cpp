#include "opt/lr_engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace statpipe::opt::detail {

namespace {

using netlist::BoundNetlist;
using netlist::GateId;

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

const SizerOptions& checked(const SizerOptions& opt) {
  if (!(opt.min_size > 0.0 && opt.max_size >= opt.min_size))
    throw std::invalid_argument(
        "opt: bad size bounds (need 0 < min_size <= max_size)");
  if (!(opt.damping > 0.0 && opt.damping <= 1.0))
    throw std::invalid_argument("opt: damping outside (0,1]");
  return opt;
}

}  // namespace

StageLrEngine::StageLrEngine(const netlist::Netlist& nl,
                             const device::AlphaPowerModel& model,
                             const process::VariationSpec& spec,
                             const SizerOptions& opt, double z)
    : model_(model),
      spec_(spec),
      opt_(checked(opt)),
      z_(z),
      ssta_(nl, model, {opt.output_load}),
      sqrt_depth_(std::sqrt(
          static_cast<double>(std::max<std::size_t>(nl.depth(), 1)))),
      x_(nl.sizes()),
      load_(x_.size(), 0.0),
      arrival_(x_.size(), 0.0),
      w_(x_.size(), 0.0) {}

sta::CanonicalDelay StageLrEngine::walk() {
  // Per gate, from the walk's load, nominal delay and sigmas: the load
  // (cached for the update) and the deterministic arrival padded with the
  // gate's z*sigma share (the statistical effect of [3]) that drives the
  // criticality weights.
  const BoundNetlist& b = ssta_.bound();
  const sta::SstaLane lane{x_.data(), &spec_};
  sta::CanonicalDelay out;
  ssta_.walk({&lane, 1}, ws_, &out,
             [&](std::size_t, GateId id, double ld, double nominal,
                 const auto& sig) {
               load_[id] = ld;
               double in_arr = 0.0;
               for (GateId f : b.fanins(id))
                 in_arr = std::max(in_arr, arrival_[f]);
               arrival_[id] =
                   in_arr + nominal + z_ * sig.total() / sqrt_depth_;
             });
  return out;
}

void StageLrEngine::update(double lambda) {
  const BoundNetlist& b = ssta_.bound();
  criticality_weights(b, arrival_, opt_.softmax_theta_ps, w_);
  const double tau = model_.technology().tau_ps;
  for (GateId id : b.topo()) {
    if (b.pseudo(id)) continue;
    const auto& t = device::traits(b.kind(id));
    const double lam_g = lambda * w_[id];

    // Pressure from this gate's own delay: lam_g * tau * load / x^2.
    // Pressure from loading predecessors: sum over fanins p of
    //   lam_p * tau * g_le / x_p  (per unit of our size).
    double pred_cost = 0.0;
    for (GateId f : b.fanins(id)) {
      if (b.pseudo(f)) continue;
      pred_cost += lambda * w_[f] * tau * t.logical_effort / x_[f];
    }
    const double denom = t.area + pred_cost;
    const double x_star = std::sqrt(
        std::max(lam_g * tau * std::max(load_[id], 1e-6) / denom, 1e-12));
    const double x_new = std::clamp(x_star, opt_.min_size, opt_.max_size);
    x_[id] = x_[id] * (1.0 - opt_.damping) + x_new * opt_.damping;
  }
}

}  // namespace statpipe::opt::detail
