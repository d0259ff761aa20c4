#include "netlist/bench_parser.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace statpipe::netlist {

namespace {

std::string strip(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

[[noreturn]] void fail(std::size_t line, const std::string& msg) {
  throw std::runtime_error("bench parse error at line " +
                           std::to_string(line) + ": " + msg);
}

// Widen a generic NAND/NOR/AND/OR to the cell matching the actual fanin
// count (the .bench dialect is arity-free).
device::GateKind widen(device::GateKind k, std::size_t fanin,
                       std::size_t line) {
  using device::GateKind;
  auto pick = [&](GateKind k2, GateKind k3, GateKind k4) {
    switch (fanin) {
      case 1: return GateKind::kBuf;  // degenerate single-input AND/OR
      case 2: return k2;
      case 3: return k3;
      case 4: return k4;
      default:
        fail(line, "fanin " + std::to_string(fanin) +
                       " exceeds library arity (max 4)");
    }
  };
  switch (k) {
    case GateKind::kNand2: return pick(GateKind::kNand2, GateKind::kNand3,
                                       GateKind::kNand4);
    case GateKind::kNor2:
      return pick(GateKind::kNor2, GateKind::kNor3, GateKind::kNor4);
    case GateKind::kAnd2:
      if (fanin > 3) fail(line, "AND fanin > 3 unsupported");
      return fanin == 3 ? GateKind::kAnd3 : GateKind::kAnd2;
    case GateKind::kOr2:
      if (fanin > 3) fail(line, "OR fanin > 3 unsupported");
      return fanin == 3 ? GateKind::kOr3 : GateKind::kOr2;
    case GateKind::kNot:
    case GateKind::kBuf:
      if (fanin != 1) fail(line, "NOT/BUFF must have exactly one fanin");
      return k;
    case GateKind::kXor2:
    case GateKind::kXnor2:
      if (fanin != 2) fail(line, "XOR/XNOR must have exactly two fanins");
      return k;
    // Arity-explicit names (NAND3, NOR4, ...) pass through after a check.
    case GateKind::kNand3:
    case GateKind::kNor3:
    case GateKind::kAnd3:
    case GateKind::kOr3:
      if (fanin != 3) fail(line, "3-input cell with fanin != 3");
      return k;
    case GateKind::kNand4:
    case GateKind::kNor4:
      if (fanin != 4) fail(line, "4-input cell with fanin != 4");
      return k;
    default:
      fail(line, "unsupported cell in .bench");
  }
}

struct PendingGate {
  std::string name;
  device::GateKind kind;
  std::vector<std::string> fanins;
  std::size_t line;
};

}  // namespace

Netlist parse_bench(std::istream& in, const std::string& name) {
  Netlist nl(name);
  std::unordered_map<std::string, GateId> defined;  // inputs, then gates
  std::unordered_map<std::string, std::size_t> producer;  // gate -> pending
  std::vector<std::string> output_names;
  std::vector<PendingGate> pending;
  auto check_new = [&](const std::string& sig, std::size_t line) {
    if (defined.count(sig) || producer.count(sig))
      fail(line, "duplicate definition of " + sig);
  };

  std::string raw;
  std::size_t lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    std::string line = strip(raw);
    if (auto pos = line.find('#'); pos != std::string::npos)
      line = strip(line.substr(0, pos));
    if (line.empty()) continue;

    // INPUT(x) / OUTPUT(x)
    auto paren = line.find('(');
    auto eq = line.find('=');
    if (eq == std::string::npos) {
      if (paren == std::string::npos || line.back() != ')')
        fail(lineno, "expected INPUT(...), OUTPUT(...) or assignment");
      const std::string head = strip(line.substr(0, paren));
      const std::string arg =
          strip(line.substr(paren + 1, line.size() - paren - 2));
      if (arg.empty()) fail(lineno, "empty signal name");
      if (head == "INPUT") {
        check_new(arg, lineno);
        defined[arg] = nl.add_input(arg);
      } else if (head == "OUTPUT") {
        output_names.push_back(arg);
      } else {
        fail(lineno, "unknown directive '" + head + "'");
      }
      continue;
    }

    // name = KIND(a, b, ...)
    const std::string lhs = strip(line.substr(0, eq));
    std::string rhs = strip(line.substr(eq + 1));
    paren = rhs.find('(');
    if (lhs.empty() || paren == std::string::npos || rhs.back() != ')')
      fail(lineno, "malformed assignment");
    const std::string kind_name = strip(rhs.substr(0, paren));
    if (kind_name == "DFF" || kind_name == "dff")
      fail(lineno,
           "DFF not supported: stage netlists are combinational; model "
           "latches with device::LatchModel");
    device::GateKind kind;
    try {
      kind = device::gate_kind_from_string(kind_name);
    } catch (const std::invalid_argument& e) {
      fail(lineno, e.what());
    }
    std::vector<std::string> fanins;
    std::string args = rhs.substr(paren + 1, rhs.size() - paren - 2);
    std::istringstream as(args);
    std::string tok;
    while (std::getline(as, tok, ',')) {
      tok = strip(tok);
      if (tok.empty()) fail(lineno, "empty fanin name");
      fanins.push_back(tok);
    }
    if (fanins.empty()) fail(lineno, "gate with no fanins");
    check_new(lhs, lineno);
    producer[lhs] = pending.size();
    pending.push_back({lhs, kind, std::move(fanins), lineno});
  }

  // Resolve gates in dependency order (bench files may reference forward).
  // Gate ids follow a pass-by-pass scan of the file — pass-major, file
  // order within a pass — where gate i resolves in pass
  //   pass(i) = max(1, max over gate fanins f of pass(f) + [f > i]),
  // since a fanin defined later in the file only exists from the next pass
  // on.  One topological sweep computes every pass and a counting sort
  // orders the gates: O(gates + edges).
  const std::size_t n = pending.size();
  std::vector<std::size_t> pass(n, 1), waiting(n, 0);
  std::vector<std::vector<std::size_t>> consumers(n);
  for (std::size_t i = 0; i < n; ++i)
    for (const auto& f : pending[i].fanins) {
      if (defined.count(f)) continue;  // a primary input
      const auto it = producer.find(f);
      // An undefined fanin keeps its gate waiting forever.
      if (it != producer.end()) consumers[it->second].push_back(i);
      ++waiting[i];
    }
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i)
    if (waiting[i] == 0) ready.push_back(i);
  std::size_t max_pass = 1;
  for (std::size_t r = 0; r < ready.size(); ++r) {
    const std::size_t p = ready[r];
    max_pass = std::max(max_pass, pass[p]);
    for (std::size_t c : consumers[p]) {
      pass[c] = std::max(pass[c], pass[p] + (p > c ? 1 : 0));
      if (--waiting[c] == 0) ready.push_back(c);
    }
  }
  std::vector<std::size_t> slot(max_pass + 2, 0);
  for (std::size_t p : ready) ++slot[pass[p] + 1];
  for (std::size_t k = 1; k < slot.size(); ++k) slot[k] += slot[k - 1];
  std::vector<std::size_t> order(ready.size());
  for (std::size_t i = 0; i < n; ++i)
    if (waiting[i] == 0) order[slot[pass[i]]++] = i;

  for (std::size_t i : order) {
    const auto& pg = pending[i];
    std::vector<GateId> ids;
    ids.reserve(pg.fanins.size());
    for (const auto& f : pg.fanins) ids.push_back(defined.at(f));
    const auto kind = widen(pg.kind, ids.size(), pg.line);
    defined[pg.name] = nl.add_gate(pg.name, kind, ids);
  }
  // Either an undefined signal or a combinational cycle.
  for (std::size_t i = 0; i < n; ++i)
    if (waiting[i] != 0)
      fail(pending[i].line, "undefined signal or cycle involving '" +
                                pending[i].name + "'");

  for (const auto& on : output_names) {
    auto it = defined.find(on);
    if (it == defined.end())
      throw std::runtime_error("bench parse error: OUTPUT(" + on +
                               ") never defined");
    nl.mark_output(it->second);
  }
  nl.assign_linear_positions();
  nl.validate();
  return nl;
}

Netlist parse_bench_string(const std::string& text, const std::string& name) {
  std::istringstream is(text);
  return parse_bench(is, name);
}

Netlist parse_bench_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open bench file: " + path);
  auto slash = path.find_last_of('/');
  return parse_bench(f, slash == std::string::npos ? path
                                                   : path.substr(slash + 1));
}

std::string write_bench(const Netlist& nl) {
  std::ostringstream os;
  os << "# " << nl.name() << " (" << nl.gate_count() << " gates)\n";
  for (GateId id : nl.inputs()) os << "INPUT(" << nl.gate(id).name << ")\n";
  for (GateId id : nl.outputs()) os << "OUTPUT(" << nl.gate(id).name << ")\n";
  for (GateId id : nl.topological_order()) {
    const auto& g = nl.gate(id);
    if (g.is_pseudo()) continue;
    os << g.name << " = " << device::to_string(g.kind) << "(";
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      if (i) os << ", ";
      os << nl.gate(g.fanins[i]).name;
    }
    os << ")\n";
  }
  return os.str();
}

}  // namespace statpipe::netlist
