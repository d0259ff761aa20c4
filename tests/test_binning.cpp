// Tests for frequency binning and the embedded c17 reference netlist.
#include <gtest/gtest.h>

#include <numeric>

#include "core/binning.h"
#include "device/delay_model.h"
#include "netlist/bench_parser.h"
#include "netlist/generators.h"
#include "sta/sta.h"

namespace sp = statpipe;
using sp::stats::Gaussian;

// ------------------------------------------------------------------ binning

TEST(Binning, FractionsSumToOne) {
  const Gaussian tp{500.0, 25.0};
  const auto bins = sp::core::bin_dies(tp, {2.2, 2.0, 1.8});
  ASSERT_EQ(bins.size(), 4u);  // 3 grades + scrap
  double total = 0.0;
  for (const auto& b : bins) {
    EXPECT_GE(b.fraction, 0.0);
    total += b.fraction;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Binning, GradesSortedFastestFirst) {
  const Gaussian tp{500.0, 25.0};
  const auto bins = sp::core::bin_dies(tp, {1.8, 2.2, 2.0});  // any order in
  EXPECT_DOUBLE_EQ(bins[0].f_min_ghz, 2.2);
  EXPECT_DOUBLE_EQ(bins[1].f_min_ghz, 2.0);
  EXPECT_DOUBLE_EQ(bins[2].f_min_ghz, 1.8);
  EXPECT_DOUBLE_EQ(bins[3].f_min_ghz, 0.0);
}

TEST(Binning, FractionsMatchYieldDifferences) {
  const Gaussian tp{500.0, 25.0};
  const auto bins = sp::core::bin_dies(tp, {2.2, 2.0});
  // Top bin = Pr{T <= 1000/2.2}; second = Pr{T <= 500} - top.
  EXPECT_NEAR(bins[0].fraction, tp.cdf(1000.0 / 2.2), 1e-12);
  EXPECT_NEAR(bins[1].fraction, tp.cdf(500.0) - tp.cdf(1000.0 / 2.2), 1e-12);
}

TEST(Binning, TighterDistributionEarnsMoreUnderConcavePrices) {
  // Speed-grade price ladders are concave (the top grade carries a small
  // premium, the slow grades a big discount), so spreading dies away from
  // the mid bin loses money: lower sigma earns more at the same mean.
  const std::vector<double> grades{2.2, 2.0, 1.8};
  const std::vector<double> prices{250.0, 200.0, 100.0};
  const double r_tight = sp::core::expected_revenue(
      sp::core::bin_dies({475.0, 8.0}, grades), prices);
  const double r_wide = sp::core::expected_revenue(
      sp::core::bin_dies({475.0, 40.0}, grades), prices);
  EXPECT_GT(r_tight, r_wide);
}

TEST(Binning, TighterDistributionScrapsFewer) {
  // With the mean comfortably above the slowest grade, scrap is a pure
  // tail loss: lower sigma always scraps fewer dies.
  const std::vector<double> grades{2.2, 2.0, 1.8};
  const double scrap_tight =
      sp::core::bin_dies({475.0, 8.0}, grades).back().fraction;
  const double scrap_wide =
      sp::core::bin_dies({475.0, 40.0}, grades).back().fraction;
  EXPECT_LT(scrap_tight, scrap_wide);
}

TEST(Binning, MarketableFrequencyInvertsYield) {
  const Gaussian tp{500.0, 25.0};
  const double f90 = sp::core::marketable_frequency_ghz(tp, 0.90);
  // 90% of dies meet the period 1000/f90.
  EXPECT_NEAR(tp.cdf(1000.0 / f90), 0.90, 1e-9);
  // Higher yield demand -> slower marketable grade.
  EXPECT_LT(sp::core::marketable_frequency_ghz(tp, 0.99), f90);
}

TEST(Binning, RejectsBadInputs) {
  const Gaussian tp{500.0, 25.0};
  EXPECT_THROW(sp::core::bin_dies(tp, {}), std::invalid_argument);
  EXPECT_THROW(sp::core::bin_dies(tp, {0.0}), std::invalid_argument);
  EXPECT_THROW(sp::core::expected_revenue(sp::core::bin_dies(tp, {2.0}),
                                          {1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(sp::core::marketable_frequency_ghz(tp, 1.0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------- c17

TEST(C17, MatchesPublishedStructure) {
  const auto nl = sp::netlist::iscas_c17();
  EXPECT_EQ(nl.gate_count(), 6u);
  EXPECT_EQ(nl.inputs().size(), 5u);
  EXPECT_EQ(nl.outputs().size(), 2u);
  EXPECT_EQ(nl.depth(), 3u);
  for (const auto& g : nl.gates()) {
    if (!g.is_pseudo()) {
      EXPECT_EQ(g.kind, sp::device::GateKind::kNand2);
    }
  }
}

TEST(C17, RoundTripsThroughBenchFormat) {
  const auto nl = sp::netlist::iscas_c17();
  const auto reparsed =
      sp::netlist::parse_bench_string(sp::netlist::write_bench(nl));
  EXPECT_EQ(reparsed.gate_count(), 6u);
  const sp::device::AlphaPowerModel m{sp::process::Technology{}};
  EXPECT_NEAR(sp::sta::analyze(nl, m).critical_delay,
              sp::sta::analyze(reparsed, m).critical_delay, 1e-12);
}

TEST(C17, CriticalPathIsThreeNands) {
  const auto nl = sp::netlist::iscas_c17();
  const sp::device::AlphaPowerModel m{sp::process::Technology{}};
  const auto r = sp::sta::analyze(nl, m);
  const auto path = r.critical_path(nl);
  // input + 3 levels of NAND2.
  EXPECT_EQ(path.size(), 4u);
}
