#include "sta/sta.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/simd.h"

namespace statpipe::sta {

namespace {

// Core arrival propagation into a caller-owned arrival buffer; returns the
// critical output (arrival-breaking ties toward later outputs, as before).
template <typename DelayFn>
netlist::GateId propagate_into(const netlist::Netlist& nl,
                               DelayFn&& gate_delay,
                               std::vector<double>& arrival,
                               double& critical_delay) {
  arrival.assign(nl.size(), 0.0);
  for (netlist::GateId id : nl.topological_order()) {
    const auto& g = nl.gate(id);
    if (g.is_pseudo()) continue;
    double in_arr = 0.0;
    for (netlist::GateId f : g.fanins)
      in_arr = std::max(in_arr, arrival[f]);
    arrival[id] = in_arr + gate_delay(id);
  }
  if (nl.outputs().empty())
    throw std::logic_error("sta: netlist has no primary outputs");
  critical_delay = 0.0;
  netlist::GateId critical_output = netlist::kInvalidGate;
  for (netlist::GateId o : nl.outputs()) {
    if (arrival[o] >= critical_delay) {
      critical_delay = arrival[o];
      critical_output = o;
    }
  }
  return critical_output;
}

template <typename DelayFn>
StaResult propagate(const netlist::Netlist& nl, DelayFn&& gate_delay) {
  StaResult r;
  r.critical_output = propagate_into(nl, gate_delay, r.arrival, r.critical_delay);
  return r;
}

double sample_gate_delay(const netlist::Netlist& nl,
                         const device::AlphaPowerModel& model,
                         const process::DieSample& die,
                         const std::vector<std::size_t>& site_of_gate,
                         const StaOptions& opt, netlist::GateId id) {
  const auto& g = nl.gate(id);
  const std::size_t site = site_of_gate[id];
  const double dvth = die.dvth_at(site, g.size);
  const double dl = die.dl_rel_at(site);
  return model.delay(g.kind, g.size, nl.load_of(id, opt.output_load), dvth, dl);
}

}  // namespace

StaResult analyze(const netlist::Netlist& nl,
                  const device::AlphaPowerModel& model,
                  const StaOptions& opt) {
  return propagate(nl, [&](netlist::GateId id) {
    const auto& g = nl.gate(id);
    return model.nominal_delay(g.kind, g.size, nl.load_of(id, opt.output_load));
  });
}

double critical_delay_sample(const netlist::Netlist& nl,
                             const device::AlphaPowerModel& model,
                             const process::DieSample& die,
                             const std::vector<std::size_t>& site_of_gate,
                             const StaOptions& opt, StaWorkspace& ws) {
  if (site_of_gate.size() != nl.size())
    throw std::invalid_argument("critical_delay_sample: site map size mismatch");
  double critical = 0.0;
  (void)propagate_into(
      nl,
      [&](netlist::GateId id) {
        return sample_gate_delay(nl, model, die, site_of_gate, opt, id);
      },
      ws.arrival, critical);
  return critical;
}

BlockStage::BlockStage(const netlist::Netlist& nl,
                       const device::AlphaPowerModel& model,
                       const std::vector<std::size_t>& site_of_gate,
                       const StaOptions& opt)
    : model_(&model), n_gates_(nl.size()), outputs_(nl.outputs()) {
  if (site_of_gate.size() != nl.size())
    throw std::invalid_argument("BlockStage: site map size mismatch");
  if (outputs_.empty())
    throw std::logic_error("sta: netlist has no primary outputs");
  // Each cached value is computed exactly as sample_gate_delay computes it
  // per die (same load_of, nominal_delay and sqrt expressions), so one
  // binding streams any number of blocks without changing a result bit.
  const std::vector<netlist::GateId>& topo = nl.topological_order();
  gate_ids_.reserve(topo.size());
  site_.reserve(topo.size());
  nominal_.reserve(topo.size());
  sqrt_size_.reserve(topo.size());
  fanin_begin_.reserve(topo.size() + 1);
  fanin_begin_.push_back(0);
  for (netlist::GateId id : topo) {
    const auto& g = nl.gate(id);
    if (g.is_pseudo()) continue;
    gate_ids_.push_back(id);
    site_.push_back(site_of_gate[id]);
    nominal_.push_back(model.nominal_delay(g.kind, g.size,
                                           nl.load_of(id, opt.output_load)));
    sqrt_size_.push_back(std::sqrt(g.size));
    fanins_.insert(fanins_.end(), g.fanins.begin(), g.fanins.end());
    fanin_begin_.push_back(fanins_.size());
  }
}

void critical_delay_sample_block(const BlockStage& stage,
                                 const process::DieBlock& block,
                                 StaBlockWorkspace& ws, double* critical) {
  // Single source of truth for the kernel width rule (throws on 0 or
  // beyond kMaxWidth — validated, never clamped).
  const std::size_t W = stats::lanes::validated_width(block.width);
  ws.arrival.assign(stage.n_gates_ * W, 0.0);
  ws.dvth.resize(W);
  ws.dl.resize(W);
  ws.vf.resize(W);

  // The whole walk — fanin max fold, SoA parameter gather, variation-factor
  // pow sweep, output fold — runs as one dispatched kernel of the active
  // SIMD backend (stats/simd.h; body in stats/lanes_kernels.inl).  Per die
  // the operation order is the scalar path's, per gate the domain checks
  // are the scalar variation_factor's in the same lane order, so results
  // and rejections are unchanged from the pre-dispatch walk.
  stats::simd::StaWalkArgs args;
  args.width = W;
  args.n_gates = stage.gate_ids_.size();
  args.gate_ids = stage.gate_ids_.data();
  args.site = stage.site_.data();
  args.nominal = stage.nominal_.data();
  args.sqrt_size = stage.sqrt_size_.data();
  args.fanin_begin = stage.fanin_begin_.data();
  args.fanins = stage.fanins_.data();
  args.dvth_inter = block.dvth_inter.data();
  args.dl_inter = block.dl_inter_rel.data();
  args.dvth_sys = block.dvth_systematic.empty()
                      ? nullptr
                      : block.dvth_systematic.data();
  args.dvth_rnd =
      block.dvth_random.empty() ? nullptr : block.dvth_random.data();
  args.dl_sys = block.dl_systematic_rel.empty()
                    ? nullptr
                    : block.dl_systematic_rel.data();
  const auto vp = stage.model_->variation_kernel_params();
  args.drive0 = vp.drive0;
  args.alpha = vp.alpha;
  args.min_ratio = vp.min_ratio;
  args.max_ratio = vp.max_ratio;
  args.arrival = ws.arrival.data();
  args.dvth = ws.dvth.data();
  args.dl = ws.dl.data();
  args.vf = ws.vf.data();
  args.outputs = stage.outputs_.data();
  args.n_outputs = stage.outputs_.size();
  args.critical = critical;

  const std::size_t fault = stats::simd::kernels().sta_block_walk(args);
  if (fault != stats::simd::kNoFault) {
    // The kernel stopped on the first gate whose lane row violates the
    // variation-factor domain, leaving that row's shifts in ws.dvth/ws.dl.
    // Regenerate the exact scalar exception (same message, same lane
    // precedence) by replaying the scalar check on those shifts.
    for (std::size_t j = 0; j < W; ++j)
      (void)stage.model_->variation_factor(ws.dvth[j], ws.dl[j]);
    throw std::logic_error(
        "critical_delay_sample_block: walk kernel reported a domain fault "
        "the scalar variation_factor does not reproduce");
  }
}

std::vector<netlist::GateId> StaResult::critical_path(
    const netlist::Netlist& nl) const {
  std::vector<netlist::GateId> path;
  if (critical_output == netlist::kInvalidGate) return path;
  netlist::GateId cur = critical_output;
  for (;;) {
    path.push_back(cur);
    const auto& g = nl.gate(cur);
    if (g.fanins.empty()) break;
    // Predecessor with the largest arrival determined this gate's arrival.
    netlist::GateId best = g.fanins.front();
    for (netlist::GateId f : g.fanins)
      if (arrival[f] > arrival[best]) best = f;
    cur = best;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace statpipe::sta
