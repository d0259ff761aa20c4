// Parameterized property tests: invariants that must hold across wide
// sweeps of inputs, complementing the example-based unit tests.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/pipeline_model.h"
#include "netlist/generators.h"
#include "opt/sizer.h"
#include "sta/ssta.h"
#include "ssta_oracle.h"
#include "stats/clark.h"
#include "stats/gaussian.h"

namespace sp = statpipe;
using sp::stats::Gaussian;

// ---------------------------------------------------------- Clark vs exact
// For two Gaussians the Clark moments are EXACT (the approximation only
// enters on iteration).  Check against high-resolution numerical
// integration of E[max] and E[max^2] over a (mu-gap, sigma-ratio, rho)
// grid.

namespace {

// Numerical E[max^k] via 2-D Gauss-Legendre-ish trapezoid on the joint
// density of correlated standard normals, transformed to the target
// marginals.
std::pair<double, double> numeric_max_moments(const Gaussian& a,
                                              const Gaussian& b, double rho) {
  const int n = 400;
  const double lim = 8.0;
  const double h = 2.0 * lim / n;
  double m1 = 0.0, m2 = 0.0;
  const double s = std::sqrt(1.0 - rho * rho);
  for (int i = 0; i < n; ++i) {
    const double z1 = -lim + (i + 0.5) * h;
    const double x1 = a.mean + a.sigma * z1;
    const double w1 = sp::stats::normal_pdf(z1) * h;
    for (int j = 0; j < n; ++j) {
      const double u = -lim + (j + 0.5) * h;
      const double z2 = rho * z1 + s * u;
      const double x2 = b.mean + b.sigma * z2;
      const double w = w1 * sp::stats::normal_pdf(u) * h;
      const double mx = std::max(x1, x2);
      m1 += w * mx;
      m2 += w * mx * mx;
    }
  }
  return {m1, m2};
}

}  // namespace

class ClarkExactness
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(ClarkExactness, PairwiseMomentsMatchNumericIntegration) {
  const auto [gap, sratio, rho] = GetParam();
  const Gaussian a{100.0, 5.0};
  const Gaussian b{100.0 + gap, 5.0 * sratio};
  const auto cm = sp::stats::clark_max(a, b, rho);
  const auto [m1, m2] = numeric_max_moments(a, b, rho);
  const double var = m2 - m1 * m1;
  EXPECT_NEAR(cm.max.mean, m1, 5e-3) << "gap=" << gap;
  EXPECT_NEAR(cm.max.variance(), var, 0.02 * var + 5e-3);
}

INSTANTIATE_TEST_SUITE_P(
    GapSigmaRhoGrid, ClarkExactness,
    ::testing::Combine(::testing::Values(0.0, 2.0, 10.0),
                       ::testing::Values(0.5, 1.0, 2.0),
                       ::testing::Values(-0.5, 0.0, 0.5, 0.9)));

// ------------------------------------------------------ icdf/cdf inverses

class IcdfRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(IcdfRoundTrip, CdfOfIcdfIsIdentity) {
  const double p = GetParam();
  EXPECT_NEAR(sp::stats::normal_cdf(sp::stats::normal_icdf(p)), p, 1e-11);
}

INSTANTIATE_TEST_SUITE_P(ProbabilityGrid, IcdfRoundTrip,
                         ::testing::Values(1e-10, 1e-6, 1e-3, 0.05, 0.25, 0.5,
                                           0.75, 0.9283, 0.99, 1.0 - 1e-6,
                                           1.0 - 1e-10));

// ------------------------------------------------- pipeline model invariants

class PipelineInvariants
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(PipelineInvariants, MaxDominanceAndMonotonicity) {
  const auto [n_stages, rho] = GetParam();
  std::vector<sp::core::StageModel> s;
  for (int i = 0; i < n_stages; ++i)
    s.emplace_back("s" + std::to_string(i),
                   Gaussian{100.0 + 3.0 * (i % 5), 4.0 + 0.3 * (i % 3)}, 0.0,
                   10.0);
  sp::core::PipelineModel p(std::move(s), sp::core::LatchOverhead{30.0, 0.0,
                                                                  0.5});
  p.set_uniform_correlation(rho);

  const auto tp = p.delay_distribution();
  // Jensen: E[max] >= max of means (eq. 3).
  EXPECT_GE(tp.mean, p.mean_lower_bound() - 1e-9);
  // Union bound: yield >= 1 - sum of stage miss probabilities.
  const double t = tp.mean + tp.sigma;
  double union_lb = 1.0;
  for (std::size_t i = 0; i < p.stage_count(); ++i)
    union_lb -= 1.0 - p.stage_delay(i).cdf(t);
  EXPECT_GE(p.yield(t), union_lb - 0.03);
  // Yield bounded by the best single stage (max >= each stage).
  double best_stage = 1.0;
  for (std::size_t i = 0; i < p.stage_count(); ++i)
    best_stage = std::min(best_stage, p.stage_delay(i).cdf(t));
  EXPECT_LE(p.yield(t), best_stage + 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    StagesRhoGrid, PipelineInvariants,
    ::testing::Combine(::testing::Values(2, 3, 5, 8, 16),
                       ::testing::Values(0.0, 0.3, 0.7)));

// --------------------------------------------------------- SSTA invariants

class SstaInvariants : public ::testing::TestWithParam<const char*> {};

TEST_P(SstaInvariants, SigmaDecomposesAndMeanDominatesNominal) {
  const auto nl = sp::netlist::iscas_like(GetParam(), 3);
  const sp::device::AlphaPowerModel m{sp::process::Technology{}};
  const auto spec = sp::process::VariationSpec::inter_intra(0.02, 0.01, 0.5);
  const auto d = sp::sta::analyze_ssta(nl, m, spec);
  const auto o = sp::ssta_oracle::analyze_ssta(nl, m, spec);
  EXPECT_EQ(d.mu, o.mu);
  EXPECT_EQ(d.b_inter, o.b_inter);
  EXPECT_EQ(d.sigma_ind, o.sigma_ind);
  EXPECT_EQ(d.b_sys, o.b_sys);
  // Total variance == sum of component variances.
  EXPECT_NEAR(d.variance(),
              d.b_inter * d.b_inter + d.b_sys * d.b_sys +
                  d.sigma_ind * d.sigma_ind,
              1e-9);
  // SSTA mean >= deterministic critical delay (max operations only add).
  EXPECT_GE(d.mu, sp::sta::analyze(nl, m).critical_delay - 1e-6);
  // All components non-negative and finite.
  EXPECT_GE(d.b_inter, 0.0);
  EXPECT_GE(d.sigma_ind, 0.0);
  EXPECT_TRUE(std::isfinite(d.mu));
}

INSTANTIATE_TEST_SUITE_P(Circuits, SstaInvariants,
                         ::testing::Values("c432", "c499", "c880", "c1355"));

// --------------------------------------------------------- sizer invariants

class SizerInvariants : public ::testing::TestWithParam<const char*> {};

TEST_P(SizerInvariants, FeasibleResultsRespectTargetAndBounds) {
  auto nl = sp::netlist::iscas_like(GetParam(), 4);
  const sp::device::AlphaPowerModel m{sp::process::Technology{}};
  const auto spec = sp::process::VariationSpec::inter_intra(0.01, 0.02, 0.3);

  sp::opt::SizerOptions so;
  so.t_target = sp::opt::stat_delay(nl, m, spec, so.yield_target) * 0.9;
  const auto r = sp::opt::size_stage(nl, m, spec, so);
  if (r.feasible) {
    EXPECT_LE(r.stat_delay, so.t_target + so.tolerance_ps + 1e-9);
    // Reported stat delay consistent with a fresh SSTA.
    EXPECT_NEAR(r.stat_delay,
                sp::opt::stat_delay(nl, m, spec, so.yield_target), 1e-6);
  }
  for (const auto& g : nl.gates()) {
    if (g.is_pseudo()) continue;
    EXPECT_GE(g.size, so.min_size - 1e-9);
    EXPECT_LE(g.size, so.max_size + 1e-9);
  }
  // Area accounting is consistent.
  EXPECT_NEAR(r.area, nl.total_area(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Circuits, SizerInvariants,
                         ::testing::Values("c432", "c499", "c880"));
