// Gate-level combinational netlist: a DAG of cell instances.
//
// This is the substrate on which per-stage statistical timing and the
// paper's gate-sizing optimization run.  Nodes are gates (including
// primary-input/output pseudo-gates); edges are driver -> fanout.
//
// Layer contract (src/netlist, see docs/ARCHITECTURE.md): owns circuit
// structure — the DAG, .bench parsing and deterministic generators — plus
// purely structural quantities (loads, areas, levels).  May depend on
// src/device (for GateKind and cell traits) and src/stats; must not
// compute timing, sample variation, or reach into sta/sim/mc/core/opt.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "device/gate_library.h"

namespace statpipe::netlist {

using GateId = std::size_t;
inline constexpr GateId kInvalidGate = std::numeric_limits<GateId>::max();

/// 64-bit FNV-1a fold of one value's 8 bytes (low byte first) into a
/// running hash.  Seed new hashes with kFnvOffsetBasis.  Shared by
/// Netlist::structural_hash and the distributed workload identity
/// (dist/workload.h) — both sides of the cross-process hash check MUST
/// fold with this exact function.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t fnv1a_fold(std::uint64_t h, std::uint64_t v) noexcept {
  constexpr std::uint64_t kPrime = 0x00000100000001b3ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kPrime;
  }
  return h;
}

struct Gate {
  std::string name;
  device::GateKind kind = device::GateKind::kNot;
  std::vector<GateId> fanins;
  std::vector<GateId> fanouts;
  double size = 1.0;       ///< continuous sizing factor (optimizer variable)
  double position = 0.5;   ///< normalized die coordinate (spatial correlation)

  bool is_pseudo() const { return device::traits(kind).is_pseudo; }
};

class Netlist {
 public:
  explicit Netlist(std::string name = "netlist") : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  /// Adds a primary input; returns its id.
  GateId add_input(const std::string& name);
  /// Adds a gate driven by `fanins`; returns its id.
  GateId add_gate(const std::string& name, device::GateKind kind,
                  const std::vector<GateId>& fanins, double size = 1.0);
  /// Marks an existing gate as driving a primary output.
  void mark_output(GateId id);

  std::size_t size() const noexcept { return gates_.size(); }
  const Gate& gate(GateId id) const { return gates_.at(id); }
  Gate& gate(GateId id) { return gates_.at(id); }
  const std::vector<Gate>& gates() const noexcept { return gates_; }

  const std::vector<GateId>& inputs() const noexcept { return inputs_; }
  const std::vector<GateId>& outputs() const noexcept { return outputs_; }

  /// Gate ids in topological order (inputs first).  Cached; invalidated by
  /// structural edits.  Throws std::logic_error on a combinational cycle.
  const std::vector<GateId>& topological_order() const;

  /// Logic level of each gate: inputs at 0, gate = 1 + max(fanin levels).
  std::vector<std::size_t> levels() const;

  /// Maximum logic level over all gates (the netlist's logic depth).
  std::size_t depth() const;

  /// Number of real (non-pseudo) gates.
  std::size_t gate_count() const;

  /// Total cell area given current sizes [min-inverter areas].
  double total_area() const;

  /// Capacitive load seen by gate `id`: sum of fanout input caps plus
  /// `output_load` for primary-output drivers [inverter-cap units].
  double load_of(GateId id, double output_load = 2.0) const;

  /// Assigns evenly spaced positions along [0,1] in topological order —
  /// a simple placement so spatial correlation has geometry to act on.
  void assign_linear_positions();

  /// Multiplies every gate size by `s` (area-delay curve sweeps).
  void scale_sizes(double s);

  /// Snapshot of every gate's size — the optimizers' checkpoint format.
  std::vector<double> sizes() const;

  /// Restores a snapshot taken by sizes().  Throws std::invalid_argument
  /// on length mismatch.
  void set_sizes(const std::vector<double>& sizes);

  /// Structural sanity check: fanin/fanout symmetry, arity within cell
  /// limits, pseudo-gates wired legally.  Throws std::logic_error on
  /// violation; returns gate count on success.
  std::size_t validate() const;

  /// Lookup by name (linear scan; netlists here are small).
  GateId find(const std::string& name) const;

  /// Order-sensitive FNV-1a digest of everything that affects timing and
  /// sampling: per-gate kind, size and position bit patterns, fanin lists,
  /// and the input/output id lists.  Gate names are display-only and
  /// excluded.  Two netlists with equal hashes are (up to a 2^-64 collision)
  /// interchangeable as simulation workloads — the check a distributed
  /// worker runs to prove it rebuilt the coordinator's exact circuit before
  /// contributing shards.
  std::uint64_t structural_hash() const;

  /// True when `other` has this netlist's structure: everything
  /// structural_hash covers except sizes — per-gate kind, position bit
  /// pattern and fanin list, and the input/output id lists.  Compared in
  /// place, so checking a resized copy of a circuit copies nothing.
  bool same_structure(const Netlist& other) const noexcept;

 private:
  std::string name_;
  std::vector<Gate> gates_;
  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  mutable std::vector<GateId> topo_cache_;
  mutable bool topo_valid_ = false;
};

}  // namespace statpipe::netlist
