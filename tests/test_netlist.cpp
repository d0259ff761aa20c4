// Unit tests for the netlist DAG, the .bench parser and the generators.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

#include "netlist/bench_parser.h"
#include "netlist/bound_netlist.h"
#include "netlist/generators.h"
#include "netlist/netlist.h"

namespace nl = statpipe::netlist;
using statpipe::device::GateKind;

// ----------------------------------------------------------------- netlist

namespace {

nl::Netlist tiny() {
  // in -> inv -> nand(in, inv) -> out
  nl::Netlist n("tiny");
  const auto in = n.add_input("in");
  const auto inv = n.add_gate("inv", GateKind::kNot, {in});
  const auto nand = n.add_gate("nand", GateKind::kNand2, {in, inv});
  n.mark_output(nand);
  return n;
}

}  // namespace

TEST(Netlist, BasicConstruction) {
  auto n = tiny();
  EXPECT_EQ(n.size(), 3u);
  EXPECT_EQ(n.gate_count(), 2u);
  EXPECT_EQ(n.inputs().size(), 1u);
  EXPECT_EQ(n.outputs().size(), 1u);
  EXPECT_EQ(n.validate(), 3u);
}

TEST(Netlist, TopologicalOrderRespectsEdges) {
  auto n = tiny();
  const auto& topo = n.topological_order();
  std::vector<std::size_t> pos(n.size());
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (std::size_t id = 0; id < n.size(); ++id)
    for (auto f : n.gate(id).fanins) EXPECT_LT(pos[f], pos[id]);
}

TEST(Netlist, LevelsAndDepth) {
  auto n = tiny();
  const auto lvl = n.levels();
  EXPECT_EQ(lvl[n.find("in")], 0u);
  EXPECT_EQ(lvl[n.find("inv")], 1u);
  EXPECT_EQ(lvl[n.find("nand")], 2u);
  EXPECT_EQ(n.depth(), 2u);
}

TEST(Netlist, AreaAndLoad) {
  auto n = tiny();
  // inv size 1 (area 1.0) + nand2 size 1 (area 1.6).
  EXPECT_NEAR(n.total_area(), 2.6, 1e-12);
  // inv drives one nand2 input: load = g_nand2 = 4/3.
  EXPECT_NEAR(n.load_of(n.find("inv")), 4.0 / 3.0, 1e-12);
  // nand drives the primary output load (default 2.0).
  EXPECT_NEAR(n.load_of(n.find("nand")), 2.0, 1e-12);
}

TEST(Netlist, ScaleSizes) {
  auto n = tiny();
  n.scale_sizes(2.0);
  EXPECT_NEAR(n.total_area(), 5.2, 1e-12);
  EXPECT_THROW(n.scale_sizes(0.0), std::invalid_argument);
}

TEST(Netlist, ValidateCatchesArityViolation) {
  nl::Netlist n("bad");
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto c = n.add_input("c");
  // NOT with 3 fanins: legal to construct, caught by validate.
  n.add_gate("bad_not", GateKind::kNot, {a, b, c});
  EXPECT_THROW(n.validate(), std::logic_error);
}

TEST(Netlist, FindMissingReturnsInvalid) {
  auto n = tiny();
  EXPECT_EQ(n.find("nonexistent"), nl::kInvalidGate);
}

TEST(Netlist, PositionsAssigned) {
  auto n = tiny();
  n.assign_linear_positions();
  EXPECT_DOUBLE_EQ(n.gate(n.topological_order().front()).position, 0.0);
  EXPECT_DOUBLE_EQ(n.gate(n.topological_order().back()).position, 1.0);
}

TEST(BoundNetlist, MirrorsStructureLoadsAndAreaBitwise) {
  // The bound view must be the netlist, flattened: same topo order and
  // outputs, CSR spans equal to the fanin/fanout lists, and load()/area()
  // bitwise Netlist::load_of/total_area at any size assignment.
  auto net = nl::iscas_like("c880", 3);
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> u(0.5, 6.0);
  for (nl::GateId id = 0; id < net.size(); ++id)
    if (!net.gate(id).is_pseudo()) net.gate(id).size = u(rng);
  const nl::BoundNetlist b(net);
  ASSERT_EQ(b.size(), net.size());
  EXPECT_EQ(b.topo(), net.topological_order());
  EXPECT_EQ(b.outputs(), net.outputs());
  const std::vector<double> x = net.sizes();
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (nl::GateId id = 0; id < net.size(); ++id) {
    const auto& g = net.gate(id);
    EXPECT_EQ(b.kind(id), g.kind);
    EXPECT_EQ(b.pseudo(id), g.is_pseudo());
    const auto fi = b.fanins(id);
    const auto fo = b.fanouts(id);
    ASSERT_EQ(std::vector<nl::GateId>(fi.begin(), fi.end()), g.fanins);
    ASSERT_EQ(std::vector<nl::GateId>(fo.begin(), fo.end()), g.fanouts);
    for (const double out_load : {2.0, 3.25})
      ASSERT_EQ(bits(b.load(id, x.data(), out_load)),
                bits(net.load_of(id, out_load)))
          << "gate " << id;
  }
  EXPECT_EQ(bits(b.area(x.data())), bits(net.total_area()));
}

// ------------------------------------------------------------------- bench

TEST(BenchParser, ParsesSmallCircuit) {
  const std::string text = R"(
# small test circuit
INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NAND(a, b)
y = NOT(n1)
)";
  const auto n = nl::parse_bench_string(text, "small");
  EXPECT_EQ(n.inputs().size(), 2u);
  EXPECT_EQ(n.outputs().size(), 1u);
  EXPECT_EQ(n.gate_count(), 2u);
  EXPECT_EQ(n.gate(n.find("n1")).kind, GateKind::kNand2);
}

TEST(BenchParser, WidensArityFreeNames) {
  const std::string text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
y = NAND(a, b, c)
)";
  const auto n = nl::parse_bench_string(text);
  EXPECT_EQ(n.gate(n.find("y")).kind, GateKind::kNand3);
}

TEST(BenchParser, HandlesForwardReferences) {
  // y is defined before its fanin n1 appears — legal in .bench files.
  const std::string text = R"(
INPUT(a)
OUTPUT(y)
y = NOT(n1)
n1 = NOT(a)
)";
  const auto n = nl::parse_bench_string(text);
  EXPECT_EQ(n.gate_count(), 2u);
}

TEST(BenchParser, ForwardReferencesKeepPassMajorIds) {
  // Gate ids follow a pass-by-pass scan: pass-major, file order within a
  // pass.  A fanin later in the file is only seen on the next pass, one
  // earlier in the same pass is seen at once:
  //   pass 1: n, m (after n), k     pass 2: y, z, w, u     pass 3: v
  const std::string text = R"(
INPUT(a)
OUTPUT(v)
y = NOT(m)
n = NOT(a)
m = NOT(n)
z = NOT(y)
w = NOT(k)
k = NOT(a)
v = NOT(u)
u = NOT(w)
)";
  const auto n = nl::parse_bench_string(text);
  const char* expected[] = {"a", "n", "m", "k", "y", "z", "w", "u", "v"};
  for (std::size_t id = 0; id < std::size(expected); ++id)
    EXPECT_EQ(n.find(expected[id]), id) << expected[id];
}

TEST(BenchParser, ReverseOrderedChainParsesInLinearTime) {
  // Every gate's fanin is defined on the NEXT line: one gate resolves per
  // pass of a rescanning resolver (50 000 passes).  A linear resolver
  // parses it in milliseconds.
  constexpr std::size_t kGates = 50000;
  std::string text = "INPUT(g0)\nOUTPUT(g" + std::to_string(kGates) + ")\n";
  for (std::size_t i = kGates; i >= 1; --i)
    text += "g" + std::to_string(i) + " = NOT(g" + std::to_string(i - 1) +
            ")\n";
  const auto t0 = std::chrono::steady_clock::now();
  const auto n = nl::parse_bench_string(text);
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_LT(secs, 5.0);
  ASSERT_EQ(n.gate_count(), kGates);
  EXPECT_EQ(n.find("g1"), 1u);
  EXPECT_EQ(n.find("g" + std::to_string(kGates)), kGates);
}

TEST(BenchParser, MutatedInputThrowsRuntimeErrorOrRoundTrips) {
  // Deterministic mutation fuzz of an untrusted-text input: byte
  // substitutions, deletions and insertions on a real netlist's .bench
  // text.  Every mutant either fails with std::runtime_error or parses to
  // a netlist whose .bench text is a fixed point of parse∘write.  (The
  // text, not structural_hash: the hash depends on id order, which a
  // valid reparse may change.)
  const std::string base = nl::write_bench(nl::iscas_like("c432"));
  std::mt19937_64 rng(0xbe9c4);
  std::size_t parsed = 0;
  for (int m = 0; m < 4096; ++m) {
    std::string text = base;
    const int edits = 1 + static_cast<int>(rng() % 3);
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng() % (text.size() + 1);
      const char byte = static_cast<char>(rng() & 0xff);
      switch (rng() % 3) {
        case 0:
          if (pos < text.size()) text[pos] = byte;
          break;
        case 1:
          if (pos < text.size()) text.erase(pos, 1);
          break;
        default:
          text.insert(pos, 1, byte);
      }
    }
    nl::Netlist n("unparsed");
    try {
      n = nl::parse_bench_string(text);
    } catch (const std::runtime_error&) {
      continue;
    }
    ++parsed;
    const std::string once = nl::write_bench(n);
    const std::string twice = nl::write_bench(nl::parse_bench_string(once));
    ASSERT_EQ(once, twice) << "mutant " << m;
  }
  EXPECT_GT(parsed, 0u);
}

TEST(BenchParser, RejectsUndefinedSignal) {
  const std::string text = "INPUT(a)\nOUTPUT(y)\ny = NOT(ghost)\n";
  EXPECT_THROW(nl::parse_bench_string(text), std::runtime_error);
}

TEST(BenchParser, RejectsDuplicateDefinition) {
  const std::string text =
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n";
  EXPECT_THROW(nl::parse_bench_string(text), std::runtime_error);
}

TEST(BenchParser, RejectsDff) {
  const std::string text = "INPUT(a)\nOUTPUT(y)\ny = DFF(a)\n";
  EXPECT_THROW(nl::parse_bench_string(text), std::runtime_error);
}

TEST(BenchParser, RejectsMalformedLine) {
  EXPECT_THROW(nl::parse_bench_string("INPUT a\n"), std::runtime_error);
  EXPECT_THROW(nl::parse_bench_string("x = NAND(a\n"), std::runtime_error);
}

TEST(BenchParser, RoundTripsThroughWriter) {
  const auto original = nl::iscas_like("c432");
  const auto text = nl::write_bench(original);
  const auto reparsed = nl::parse_bench_string(text);
  EXPECT_EQ(reparsed.gate_count(), original.gate_count());
  EXPECT_EQ(reparsed.inputs().size(), original.inputs().size());
  EXPECT_EQ(reparsed.outputs().size(), original.outputs().size());
  EXPECT_EQ(reparsed.depth(), original.depth());
}

// -------------------------------------------------------------- generators

TEST(Generators, InverterChainShape) {
  const auto n = nl::inverter_chain(10);
  EXPECT_EQ(n.gate_count(), 10u);
  EXPECT_EQ(n.depth(), 10u);
  EXPECT_EQ(n.outputs().size(), 1u);
  EXPECT_EQ(n.validate(), 11u);
  EXPECT_THROW(nl::inverter_chain(0), std::invalid_argument);
}

TEST(Generators, InverterGridShape) {
  const auto n = nl::inverter_grid(4, 6);
  EXPECT_EQ(n.gate_count(), 24u);
  EXPECT_EQ(n.depth(), 6u);
  EXPECT_EQ(n.outputs().size(), 4u);
}

TEST(Generators, IscasStatsKnownValues) {
  EXPECT_EQ(nl::iscas_stats("c432").gates, 160u);
  EXPECT_EQ(nl::iscas_stats("c3540").gates, 1669u);
  // The paper's "c1980" typo maps to c1908.
  EXPECT_EQ(nl::iscas_stats("c1980").name, "c1908");
  EXPECT_THROW(nl::iscas_stats("c9999"), std::invalid_argument);
}

class IscasLikeShape : public ::testing::TestWithParam<const char*> {};

TEST_P(IscasLikeShape, MatchesPublishedStats) {
  const auto stats = nl::iscas_stats(GetParam());
  const auto n = nl::iscas_like(GetParam());
  EXPECT_EQ(n.gate_count(), stats.gates);
  EXPECT_EQ(n.inputs().size(), stats.inputs);
  EXPECT_EQ(n.outputs().size(), stats.outputs);
  EXPECT_EQ(n.depth(), stats.depth);
  EXPECT_NO_THROW(n.validate());
}

INSTANTIATE_TEST_SUITE_P(PaperCircuits, IscasLikeShape,
                         ::testing::Values("c432", "c1908", "c2670", "c3540"));

TEST(Generators, DeterministicForSeed) {
  const auto a = nl::iscas_like("c432", 7);
  const auto b = nl::iscas_like("c432", 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.gate(i).kind, b.gate(i).kind);
    EXPECT_EQ(a.gate(i).fanins, b.gate(i).fanins);
  }
}

TEST(Generators, DifferentSeedsDiffer) {
  const auto a = nl::iscas_like("c432", 1);
  const auto b = nl::iscas_like("c432", 2);
  bool any_diff = false;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    if (a.gate(i).kind != b.gate(i).kind || a.gate(i).fanins != b.gate(i).fanins)
      any_diff = true;
  EXPECT_TRUE(any_diff);
}
