#include "netlist/bound_netlist.h"

namespace statpipe::netlist {

BoundNetlist::BoundNetlist(const Netlist& nl)
    : topo_(nl.topological_order()), outputs_(nl.outputs()) {
  const std::size_t n = nl.size();
  kind_.resize(n);
  pseudo_.resize(n);
  drives_output_.assign(n, 0);
  fanin_off_.reserve(n + 1);
  fanout_off_.reserve(n + 1);
  fanin_off_.push_back(0);
  fanout_off_.push_back(0);
  for (GateId id = 0; id < n; ++id) {
    const Gate& g = nl.gate(id);
    kind_[id] = g.kind;
    pseudo_[id] = g.is_pseudo() ? 1 : 0;
    fanin_idx_.insert(fanin_idx_.end(), g.fanins.begin(), g.fanins.end());
    fanout_idx_.insert(fanout_idx_.end(), g.fanouts.begin(), g.fanouts.end());
    fanin_off_.push_back(fanin_idx_.size());
    fanout_off_.push_back(fanout_idx_.size());
  }
  for (GateId o : outputs_) drives_output_[o] = 1;
}

}  // namespace statpipe::netlist
