#include "netlist/netlist.h"

#include <algorithm>
#include <bit>
#include <queue>
#include <stdexcept>

namespace statpipe::netlist {

GateId Netlist::add_input(const std::string& name) {
  Gate g;
  g.name = name;
  g.kind = device::GateKind::kInput;
  gates_.push_back(std::move(g));
  const GateId id = gates_.size() - 1;
  inputs_.push_back(id);
  topo_valid_ = false;
  return id;
}

GateId Netlist::add_gate(const std::string& name, device::GateKind kind,
                         const std::vector<GateId>& fanins, double size) {
  if (device::traits(kind).is_pseudo && kind != device::GateKind::kOutput)
    throw std::invalid_argument("add_gate: use add_input for inputs");
  if (size <= 0.0) throw std::invalid_argument("add_gate: size <= 0");
  Gate g;
  g.name = name;
  g.kind = kind;
  g.fanins = fanins;
  g.size = size;
  gates_.push_back(std::move(g));
  const GateId id = gates_.size() - 1;
  for (GateId f : fanins) {
    if (f >= id) throw std::invalid_argument("add_gate: fanin id out of range");
    gates_[f].fanouts.push_back(id);
  }
  topo_valid_ = false;
  return id;
}

void Netlist::mark_output(GateId id) {
  if (id >= gates_.size()) throw std::out_of_range("mark_output: bad id");
  if (std::find(outputs_.begin(), outputs_.end(), id) == outputs_.end())
    outputs_.push_back(id);
}

const std::vector<GateId>& Netlist::topological_order() const {
  if (topo_valid_) return topo_cache_;
  const std::size_t n = gates_.size();
  std::vector<std::size_t> indeg(n, 0);
  for (std::size_t i = 0; i < n; ++i) indeg[i] = gates_[i].fanins.size();
  std::queue<GateId> ready;
  for (std::size_t i = 0; i < n; ++i)
    if (indeg[i] == 0) ready.push(i);
  topo_cache_.clear();
  topo_cache_.reserve(n);
  while (!ready.empty()) {
    const GateId id = ready.front();
    ready.pop();
    topo_cache_.push_back(id);
    for (GateId s : gates_[id].fanouts)
      if (--indeg[s] == 0) ready.push(s);
  }
  if (topo_cache_.size() != n)
    throw std::logic_error("Netlist: combinational cycle detected");
  topo_valid_ = true;
  return topo_cache_;
}

std::vector<std::size_t> Netlist::levels() const {
  std::vector<std::size_t> lvl(gates_.size(), 0);
  for (GateId id : topological_order()) {
    std::size_t m = 0;
    for (GateId f : gates_[id].fanins) m = std::max(m, lvl[f] + 1);
    lvl[id] = gates_[id].fanins.empty() ? 0 : m;
  }
  return lvl;
}

std::size_t Netlist::depth() const {
  const auto lvl = levels();
  std::size_t d = 0;
  for (std::size_t i = 0; i < gates_.size(); ++i)
    if (!gates_[i].is_pseudo()) d = std::max(d, lvl[i]);
  return d;
}

std::size_t Netlist::gate_count() const {
  return static_cast<std::size_t>(
      std::count_if(gates_.begin(), gates_.end(),
                    [](const Gate& g) { return !g.is_pseudo(); }));
}

double Netlist::total_area() const {
  double a = 0.0;
  for (const auto& g : gates_) a += device::cell_area(g.kind, g.size);
  return a;
}

double Netlist::load_of(GateId id, double output_load) const {
  const Gate& g = gates_.at(id);
  double c = 0.0;
  for (GateId s : g.fanouts) {
    const Gate& snk = gates_[s];
    c += device::input_cap(snk.kind, snk.size);
  }
  if (std::find(outputs_.begin(), outputs_.end(), id) != outputs_.end())
    c += output_load;
  return c;
}

void Netlist::assign_linear_positions() {
  const auto& topo = topological_order();
  const double n = static_cast<double>(topo.size());
  for (std::size_t i = 0; i < topo.size(); ++i)
    gates_[topo[i]].position =
        n > 1 ? static_cast<double>(i) / (n - 1.0) : 0.5;
}

void Netlist::scale_sizes(double s) {
  if (s <= 0.0) throw std::invalid_argument("scale_sizes: s <= 0");
  for (auto& g : gates_)
    if (!g.is_pseudo()) g.size *= s;
}

std::vector<double> Netlist::sizes() const {
  std::vector<double> sizes(gates_.size());
  for (std::size_t i = 0; i < gates_.size(); ++i) sizes[i] = gates_[i].size;
  return sizes;
}

void Netlist::set_sizes(const std::vector<double>& sizes) {
  if (sizes.size() != gates_.size())
    throw std::invalid_argument("set_sizes: size-vector length mismatch");
  for (std::size_t i = 0; i < gates_.size(); ++i) gates_[i].size = sizes[i];
}

std::size_t Netlist::validate() const {
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    const auto& t = device::traits(g.kind);
    if (g.kind == device::GateKind::kInput && !g.fanins.empty())
      throw std::logic_error("validate: input '" + g.name + "' has fanins");
    if (!t.is_pseudo && g.fanins.empty())
      throw std::logic_error("validate: gate '" + g.name + "' has no fanins");
    if (!t.is_pseudo && t.max_fanin > 0 &&
        g.fanins.size() > static_cast<std::size_t>(t.max_fanin))
      throw std::logic_error("validate: gate '" + g.name +
                             "' exceeds cell arity");
    if (g.size <= 0.0 && !t.is_pseudo)
      throw std::logic_error("validate: gate '" + g.name + "' has size <= 0");
    for (GateId f : g.fanins) {
      if (f >= gates_.size())
        throw std::logic_error("validate: dangling fanin");
      const auto& fo = gates_[f].fanouts;
      if (std::find(fo.begin(), fo.end(), i) == fo.end())
        throw std::logic_error("validate: fanin/fanout asymmetry at '" +
                               g.name + "'");
    }
  }
  (void)topological_order();  // throws on cycles
  return gates_.size();
}

GateId Netlist::find(const std::string& name) const {
  for (std::size_t i = 0; i < gates_.size(); ++i)
    if (gates_[i].name == name) return i;
  return kInvalidGate;
}

std::uint64_t Netlist::structural_hash() const {
  std::uint64_t h = kFnvOffsetBasis;
  h = fnv1a_fold(h, gates_.size());
  for (const Gate& g : gates_) {
    h = fnv1a_fold(h, static_cast<std::uint64_t>(g.kind));
    h = fnv1a_fold(h, std::bit_cast<std::uint64_t>(g.size));
    h = fnv1a_fold(h, std::bit_cast<std::uint64_t>(g.position));
    h = fnv1a_fold(h, g.fanins.size());
    for (GateId f : g.fanins) h = fnv1a_fold(h, f);
  }
  h = fnv1a_fold(h, inputs_.size());
  for (GateId i : inputs_) h = fnv1a_fold(h, i);
  h = fnv1a_fold(h, outputs_.size());
  for (GateId o : outputs_) h = fnv1a_fold(h, o);
  return h;
}

bool Netlist::same_structure(const Netlist& other) const noexcept {
  if (gates_.size() != other.gates_.size() || inputs_ != other.inputs_ ||
      outputs_ != other.outputs_)
    return false;
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& a = gates_[i];
    const Gate& b = other.gates_[i];
    if (a.kind != b.kind ||
        std::bit_cast<std::uint64_t>(a.position) !=
            std::bit_cast<std::uint64_t>(b.position) ||
        a.fanins != b.fanins)
      return false;
  }
  return true;
}

}  // namespace statpipe::netlist
