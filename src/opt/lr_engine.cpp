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

}  // namespace

StageLrEngine::StageLrEngine(const netlist::Netlist& nl,
                             const device::AlphaPowerModel& model,
                             const process::VariationSpec& spec,
                             const SizerOptions& opt, double z)
    : model_(model),
      spec_(spec),
      opt_(opt),
      z_(z),
      b_(nl),
      sqrt_depth_(std::sqrt(
          static_cast<double>(std::max<std::size_t>(nl.depth(), 1)))),
      x_(nl.sizes()),
      load_(b_.size(), 0.0),
      arrival_(b_.size(), 0.0),
      carrival_(b_.size()),
      w_(b_.size(), 0.0) {
  if (b_.outputs().empty())
    throw std::logic_error("opt: stage netlist has no primary outputs");
}

sta::CanonicalDelay StageLrEngine::walk() {
  // Per gate: the load (cached for the update), then from the same nominal
  // delay and sigmas both
  //  - the deterministic arrival padded with the gate's z*sigma share (the
  //    statistical effect of [3]) that drives the criticality weights, and
  //  - the canonical SSTA arrival, folded over fanins exactly as
  //    sta::analyze_ssta folds it.
  for (GateId id : b_.topo()) {
    if (b_.pseudo(id)) continue;
    const device::GateKind kind = b_.kind(id);
    const double size = x_[id];
    const double ld = b_.load(id, x_.data(), opt_.output_load);
    load_[id] = ld;
    const auto sig = model_.delay_sigmas(kind, size, ld, spec_);
    const double nominal = model_.nominal_delay(kind, size, ld);
    double in_arr = 0.0;
    sta::CanonicalDelay in{};
    bool first = true;
    for (GateId f : b_.fanins(id)) {
      in_arr = std::max(in_arr, arrival_[f]);
      in = first ? carrival_[f] : sta::canonical_max(in, carrival_[f]);
      first = false;
    }
    arrival_[id] = in_arr + nominal + z_ * sig.total() / sqrt_depth_;
    carrival_[id] = in + sta::CanonicalDelay{nominal, sig.inter, sig.random,
                                             sig.systematic};
  }
  sta::CanonicalDelay out{};
  bool first = true;
  for (GateId o : b_.outputs()) {
    out = first ? carrival_[o] : sta::canonical_max(out, carrival_[o]);
    first = false;
  }
  return out;
}

void StageLrEngine::update(double lambda) {
  criticality_weights(b_, arrival_, opt_.softmax_theta_ps, w_);
  const double tau = model_.technology().tau_ps;
  for (GateId id : b_.topo()) {
    if (b_.pseudo(id)) continue;
    const auto& t = device::traits(b_.kind(id));
    const double lam_g = lambda * w_[id];

    // Pressure from this gate's own delay: lam_g * tau * load / x^2.
    // Pressure from loading predecessors: sum over fanins p of
    //   lam_p * tau * g_le / x_p  (per unit of our size).
    double pred_cost = 0.0;
    for (GateId f : b_.fanins(id)) {
      if (b_.pseudo(f)) continue;
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
