// Bind-once flat view of a netlist's structure for the hot loops that walk
// one topology many times with changing sizes: the statistical sizer's LR
// iterations and the batched SSTA's lane blocks.
//
// Netlist keeps each gate's fanin/fanout lists as separate heap vectors
// next to its name string, and answers "does this gate drive an output?"
// with a linear scan of the output list.  BoundNetlist flattens that once:
// the topological order, CSR (offset + index arrays) fanin and fanout
// lists in the netlist's own list order, and per-gate kind, pseudo and
// drives-output flags.  Sizes are not bound — callers pass them per call —
// so one binding serves any number of size assignments.
//
// Every quantity computed here replays the Netlist function it mirrors in
// the same floating-point order (load() is Netlist::load_of, area() is
// Netlist::total_area), so swapping a bound walk in for a per-gate one
// cannot change a result bit.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "device/gate_library.h"
#include "netlist/netlist.h"

namespace statpipe::netlist {

class BoundNetlist {
 public:
  /// Binds `nl`'s structure.  Later structural edits to `nl` are not seen.
  /// Throws std::logic_error on a combinational cycle (topological_order).
  explicit BoundNetlist(const Netlist& nl);

  std::size_t size() const noexcept { return kind_.size(); }
  const std::vector<GateId>& topo() const noexcept { return topo_; }
  /// Primary outputs in the netlist's order (fold order of the output max).
  const std::vector<GateId>& outputs() const noexcept { return outputs_; }

  device::GateKind kind(GateId id) const { return kind_[id]; }
  bool pseudo(GateId id) const { return pseudo_[id] != 0; }

  std::span<const GateId> fanins(GateId id) const {
    return {fanin_idx_.data() + fanin_off_[id],
            fanin_off_[id + 1] - fanin_off_[id]};
  }
  std::span<const GateId> fanouts(GateId id) const {
    return {fanout_idx_.data() + fanout_off_[id],
            fanout_off_[id + 1] - fanout_off_[id]};
  }

  /// Netlist::load_of with sizes from `size_of(gate id)`: fanout input caps
  /// summed in fanout-list order, then `output_load` if the gate drives a
  /// primary output.
  template <std::invocable<GateId> SizeOf>
  double load(GateId id, const SizeOf& size_of, double output_load) const {
    double c = 0.0;
    for (GateId s : fanouts(id)) c += device::input_cap(kind_[s], size_of(s));
    if (drives_output_[id] != 0) c += output_load;
    return c;
  }
  double load(GateId id, const double* sizes, double output_load) const {
    return load(id, [sizes](GateId s) { return sizes[s]; }, output_load);
  }

  /// Netlist::total_area with sizes from `size_of(gate id)` (id order).
  template <std::invocable<GateId> SizeOf>
  double area(const SizeOf& size_of) const {
    double a = 0.0;
    for (GateId id = 0; id < size(); ++id)
      a += device::cell_area(kind_[id], size_of(id));
    return a;
  }
  double area(const double* sizes) const {
    return area([sizes](GateId id) { return sizes[id]; });
  }

 private:
  std::vector<GateId> topo_;
  std::vector<GateId> outputs_;
  std::vector<device::GateKind> kind_;
  std::vector<std::uint8_t> pseudo_;
  std::vector<std::uint8_t> drives_output_;
  std::vector<std::size_t> fanin_off_;   ///< size()+1 offsets into fanin_idx_
  std::vector<GateId> fanin_idx_;
  std::vector<std::size_t> fanout_off_;  ///< size()+1 offsets into fanout_idx_
  std::vector<GateId> fanout_idx_;
};

}  // namespace statpipe::netlist
