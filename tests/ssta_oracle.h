// Reference SSTA for the bitwise tests: the per-gate Netlist walk that
// sta::SstaBatch's bound lane walk must reproduce.
//
// analyze_ssta folds sta::canonical_max over each gate's Gate::fanins in
// topological order, reading every load through Netlist::load_of, and
// characterize_ssta adds sta::analyze's nominal critical delay and the
// inter/private split on top.  Nothing here is bound, batched or shared with
// the library's walk, so a test that compares the library against these
// functions never compares the walk with itself.
#pragma once

#include <cmath>
#include <stdexcept>
#include <vector>

#include "device/delay_model.h"
#include "netlist/netlist.h"
#include "process/variation.h"
#include "sta/characterize.h"
#include "sta/ssta.h"
#include "sta/sta.h"

namespace statpipe::ssta_oracle {

using sta::CanonicalDelay;
using sta::SstaOptions;
using sta::canonical_max;

/// Canonical delay of one cell instance under the variation spec.
inline CanonicalDelay gate_canonical_delay(const netlist::Netlist& nl,
                                           netlist::GateId id,
                                           const device::AlphaPowerModel& model,
                                           const process::VariationSpec& spec,
                                           const SstaOptions& opt = {}) {
  const auto& g = nl.gate(id);
  if (g.is_pseudo()) return {};
  const double load = nl.load_of(id, opt.output_load);
  const auto sig = model.delay_sigmas(g.kind, g.size, load, spec);
  CanonicalDelay d;
  d.mu = model.nominal_delay(g.kind, g.size, load);
  d.b_inter = sig.inter;
  d.b_sys = sig.systematic;  // stage-wide shared (correlation length >> stage)
  d.sigma_ind = sig.random;
  return d;
}

/// Full-netlist SSTA: canonical arrival at the critical output.
inline CanonicalDelay analyze_ssta(const netlist::Netlist& nl,
                                   const device::AlphaPowerModel& model,
                                   const process::VariationSpec& spec,
                                   const SstaOptions& opt = {}) {
  if (nl.outputs().empty())
    throw std::logic_error("ssta: netlist has no primary outputs");
  std::vector<CanonicalDelay> arrival(nl.size());
  for (netlist::GateId id : nl.topological_order()) {
    const auto& g = nl.gate(id);
    if (g.is_pseudo()) continue;
    CanonicalDelay in{};
    bool first = true;
    for (netlist::GateId f : g.fanins) {
      in = first ? arrival[f] : canonical_max(in, arrival[f]);
      first = false;
    }
    arrival[id] = in + gate_canonical_delay(nl, id, model, spec, opt);
  }
  CanonicalDelay out{};
  bool first = true;
  for (netlist::GateId o : nl.outputs()) {
    out = first ? arrival[o] : canonical_max(out, arrival[o]);
    first = false;
  }
  return out;
}

/// Stage characterization from the oracle's canonical delay, sta::analyze's
/// nominal critical delay and the stage split (systematic is shared within
/// the stage but private across stages).
inline sta::StageCharacterization characterize_ssta(
    const netlist::Netlist& nl, const device::AlphaPowerModel& model,
    const process::VariationSpec& spec,
    const sta::CharacterizeOptions& opt = {}) {
  SstaOptions ssta_opt;
  ssta_opt.output_load = opt.output_load;
  const CanonicalDelay d =
      ssta_oracle::analyze_ssta(nl, model, spec, ssta_opt);

  sta::StaOptions sta_opt;
  sta_opt.output_load = opt.output_load;

  sta::StageCharacterization c;
  c.delay = d.as_gaussian();
  c.sigma_inter = std::abs(d.b_inter);
  c.sigma_private =
      std::sqrt(d.b_sys * d.b_sys + d.sigma_ind * d.sigma_ind);
  c.area = nl.total_area();
  c.nominal_delay = sta::analyze(nl, model, sta_opt).critical_delay;
  return c;
}

}  // namespace statpipe::ssta_oracle
