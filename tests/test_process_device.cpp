// Unit tests for the process-variation model and the alpha-power device
// delay model (the SPICE stand-in).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "device/delay_model.h"
#include "device/gate_library.h"
#include "device/latch.h"
#include "process/variation.h"
#include "stats/descriptive.h"
#include "stats/ks.h"
#include "stats/matrix.h"
#include "stats/rng.h"

namespace sp = statpipe;
using sp::device::AlphaPowerModel;
using sp::device::GateKind;
using sp::process::Technology;
using sp::process::VariationSpec;

// ----------------------------------------------------------------- process

TEST(Technology, RdfSigmaScalesInverseSqrtWidth) {
  Technology t;
  const double s1 = t.sigma_vth_rdf(1.0);
  const double s4 = t.sigma_vth_rdf(4.0);
  EXPECT_NEAR(s1 / s4, 2.0, 1e-12);
  EXPECT_NEAR(s1, 0.030, 1e-4);  // calibrated to ~30mV at min size
  EXPECT_THROW(t.sigma_vth_rdf(0.0), std::invalid_argument);
}

TEST(VariationSpec, Presets) {
  const auto intra = VariationSpec::intra_only();
  EXPECT_EQ(intra.sigma_vth_inter, 0.0);
  EXPECT_TRUE(intra.enable_rdf);

  const auto inter = VariationSpec::inter_only(0.040);
  EXPECT_DOUBLE_EQ(inter.sigma_vth_inter, 0.040);
  EXPECT_FALSE(inter.enable_rdf);

  const auto both = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  EXPECT_DOUBLE_EQ(both.sigma_vth_inter, 0.020);
  EXPECT_DOUBLE_EQ(both.sigma_vth_systematic, 0.010);
  EXPECT_TRUE(both.enable_rdf);
}

TEST(VariationSampler, InterDieShiftSharedAcrossSites) {
  Technology tech;
  sp::process::VariationSampler s(tech, VariationSpec::inter_only(0.040),
                                  sp::process::linear_sites(8));
  sp::stats::Rng rng(1);
  const auto die = s.sample(rng);
  // Inter-only: every site sees exactly the same shift.
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_DOUBLE_EQ(die.dvth_at(i, 1.0), die.dvth_inter);
}

TEST(VariationSampler, InterDieSigmaMatchesSpec) {
  Technology tech;
  sp::process::VariationSampler s(tech, VariationSpec::inter_only(0.040),
                                  sp::process::linear_sites(2));
  sp::stats::Rng rng(2);
  sp::stats::RunningStats rs;
  for (int i = 0; i < 20000; ++i) rs.add(s.sample(rng).dvth_inter);
  EXPECT_NEAR(rs.mean(), 0.0, 1e-3);
  EXPECT_NEAR(rs.stddev(), 0.040, 1e-3);
}

TEST(VariationSampler, RdfIndependentAcrossSites) {
  Technology tech;
  sp::process::VariationSampler s(tech, VariationSpec::intra_only(),
                                  sp::process::linear_sites(2));
  sp::stats::Rng rng(3);
  std::vector<double> a, b;
  for (int i = 0; i < 20000; ++i) {
    const auto die = s.sample(rng);
    a.push_back(die.dvth_random[0]);
    b.push_back(die.dvth_random[1]);
  }
  EXPECT_NEAR(sp::stats::pearson(a, b), 0.0, 0.02);
  EXPECT_NEAR(sp::stats::stddev(a), tech.sigma_vth_rdf(1.0), 0.001);
}

TEST(VariationSampler, SystematicFieldSpatiallyCorrelated) {
  Technology tech;
  auto spec = VariationSpec::inter_intra(0.0, 0.020, 0.5);
  spec.enable_rdf = false;
  sp::process::VariationSampler s(tech, spec, sp::process::linear_sites(10));
  sp::stats::Rng rng(4);
  std::vector<double> first, second, last;
  for (int i = 0; i < 20000; ++i) {
    const auto die = s.sample(rng);
    first.push_back(die.dvth_systematic[0]);
    second.push_back(die.dvth_systematic[1]);
    last.push_back(die.dvth_systematic[9]);
  }
  const double rho_near = sp::stats::pearson(first, second);
  const double rho_far = sp::stats::pearson(first, last);
  EXPECT_GT(rho_near, 0.7);           // neighbours strongly correlated
  EXPECT_LT(rho_far, rho_near - 0.2); // correlation decays with distance
  EXPECT_NEAR(rho_far, std::exp(-2.0), 0.1);  // exp(-d/L), d=1, L=0.5
}

namespace {

// Shuffled site positions with repeated values — the order and the ties the
// field scan has to sort out (gate-level layouts are not position-sorted,
// and a stage's latch site ties with the next stage's first gate).
std::vector<double> shuffled_sites_with_ties(std::size_t n,
                                             std::uint64_t seed) {
  std::vector<double> p = sp::process::linear_sites(n);
  for (std::size_t i = 0; i + 1 < n; i += 5) p[i + 1] = p[i];
  std::mt19937_64 g(seed);
  std::shuffle(p.begin(), p.end(), g);
  return p;
}

}  // namespace

TEST(VariationSampler, FieldScanFactorReproducesSpatialCorrelationExactly) {
  // Feed the n unit vectors through the scan at width n: lane j of the
  // output is column j of the implied factor F, so F F^T must equal the
  // exp(-d/L) correlation matrix at every pair — ties included.
  Technology tech;
  const std::size_t n = 48;
  const auto pos = shuffled_sites_with_ties(n, 11);
  for (const double len : {0.05, 0.5, 4.0}) {
    auto spec = VariationSpec::inter_intra(0.0, 0.010, len);
    const sp::process::VariationSampler s(tech, spec, pos);
    std::vector<double> z(n * n, 0.0), f(n * n, 0.0);
    for (std::size_t k = 0; k < n; ++k) z[k * n + k] = 1.0;
    s.correlate_field(z.data(), n, f.data());
    const auto c = sp::stats::spatial_correlation(pos, len);
    double worst = 0.0;
    for (std::size_t a = 0; a < n; ++a)
      for (std::size_t b = 0; b < n; ++b) {
        double ffT = 0.0;
        for (std::size_t j = 0; j < n; ++j) ffT += f[a * n + j] * f[b * n + j];
        worst = std::max(worst, std::fabs(ffT - c(a, b)));
      }
    EXPECT_LE(worst, 1e-12) << "L=" << len;
    // A tie is exact: tied sites carry the bitwise-identical field.
    for (std::size_t a = 0; a < n; ++a)
      for (std::size_t b = 0; b < n; ++b) {
        if (pos[a] != pos[b]) continue;
        for (std::size_t j = 0; j < n; ++j)
          ASSERT_EQ(f[a * n + j], f[b * n + j]);
      }
  }
}

TEST(VariationSampler, SampledFieldMatchesCovarianceAndNormalMarginals) {
  // Sampling end to end: empirical correlation at every site pair against
  // exp(-d/L), and a KS test of each site's marginal against N(0, 1).
  Technology tech;
  const std::size_t n = 14;
  const double len = 0.3;
  const double sigma = 0.02;
  auto spec = VariationSpec::inter_intra(0.0, sigma, len);
  spec.enable_rdf = false;
  const auto pos = shuffled_sites_with_ties(n, 5);
  const sp::process::VariationSampler s(tech, spec, pos);
  const int kDies = 20000;
  std::vector<std::vector<double>> x(n);
  sp::stats::Rng rng(2024);
  sp::process::DieSample die;
  sp::process::DieWorkspace ws;
  for (int k = 0; k < kDies; ++k) {
    s.sample_into(rng, die, ws);
    for (std::size_t i = 0; i < n; ++i)
      x[i].push_back(die.dvth_systematic[i] / sigma);
  }
  const double root_n = std::sqrt(static_cast<double>(kDies));
  for (std::size_t i = 0; i < n; ++i) {
    // 1.95/sqrt(N): the alpha = 0.001 KS critical value.
    EXPECT_LT(sp::stats::ks_distance(x[i], sp::stats::Gaussian{0.0, 1.0}),
              1.95 / root_n)
        << "site " << i;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double rho = std::exp(-std::fabs(pos[i] - pos[j]) / len);
      // Sample-correlation SE is (1 - rho^2)/sqrt(N); allow 5 SE, plus a
      // floor for the exactly tied (rho = 1) pairs.
      EXPECT_NEAR(sp::stats::pearson(x[i], x[j]), rho,
                  5.0 * (1.0 - rho * rho) / root_n + 1e-12)
          << "sites " << i << "," << j;
    }
  }
}

TEST(VariationSampler, FieldStateIsLinearInSites) {
  // 200 000 sites: a dense factor would need 8*n^2 = 320 GB, so this only
  // runs with O(n) field state — a guard against O(n^2) storage returning.
  Technology tech;
  const std::size_t n = 200000;
  const sp::process::VariationSampler s(
      tech, VariationSpec::inter_intra(0.020, 0.010, 0.5),
      sp::process::linear_sites(n));
  sp::stats::Rng root(3);
  std::vector<sp::stats::Rng> lanes{root.fork(0), root.fork(1)};
  sp::process::DieBlock block;
  sp::process::BlockWorkspace ws;
  s.sample_block_into(lanes.data(), 2, block, ws);
  ASSERT_EQ(block.dvth_systematic.size(), 2 * n);
  for (const double v : block.dvth_systematic) ASSERT_TRUE(std::isfinite(v));
}

TEST(VariationSampler, RejectsNonFiniteFieldInputs) {
  Technology tech;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto sites = sp::process::linear_sites(6);
  for (const double len : {nan, inf, -inf, 0.0, -0.5}) {
    EXPECT_THROW(sp::process::VariationSampler(
                     tech, VariationSpec::inter_intra(0.02, 0.01, len), sites),
                 std::invalid_argument)
        << "L=" << len;
    // The L-only systematic component turns the field on as well.
    auto l_only = VariationSpec::inter_only(0.02);
    l_only.sigma_l_systematic_rel = 0.01;
    l_only.correlation_length = len;
    EXPECT_THROW(sp::process::VariationSampler(tech, l_only, sites),
                 std::invalid_argument);
  }
  for (const double bad : {nan, inf}) {
    auto p = sites;
    p[3] = bad;
    EXPECT_THROW(sp::process::VariationSampler(
                     tech, VariationSpec::inter_intra(0.02, 0.01, 0.5), p),
                 std::invalid_argument);
    // Field off: neither input is consulted, so neither is rejected.
    EXPECT_NO_THROW(sp::process::VariationSampler(
        tech, VariationSpec::inter_intra(0.02, 0.0, bad), p));
  }
}

TEST(VariationSampler, RdfScalesWithDeviceWidth) {
  Technology tech;
  sp::process::VariationSampler s(tech, VariationSpec::intra_only(),
                                  sp::process::linear_sites(1));
  sp::stats::Rng rng(5);
  const auto die = s.sample(rng);
  EXPECT_NEAR(die.dvth_at(0, 4.0), die.dvth_random[0] / 2.0, 1e-15);
}

TEST(VariationBlock, BlockSamplingBitwiseMatchesScalarLanes) {
  // sample_block_into's contract: lane j of a width-W block, drawn from
  // lane_rngs[j], is bitwise-identical to one scalar sample_into call on an
  // identically forked Rng.  Exercise every component at once (inter Vth+L,
  // systematic Vth+L, RDF) across widths 1/8/16.
  Technology tech;
  auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  spec.sigma_l_inter_rel = 0.015;
  spec.sigma_l_systematic_rel = 0.008;
  const auto sites = sp::process::linear_sites(9);
  const sp::process::VariationSampler sampler(tech, spec, sites);

  for (const std::size_t width : {std::size_t{1}, std::size_t{8},
                                  std::size_t{16}}) {
    const sp::stats::Rng root(77);
    std::vector<sp::stats::Rng> lane_rngs(width);
    for (std::size_t j = 0; j < width; ++j) lane_rngs[j] = root.fork(j);

    sp::process::DieBlock block;
    sp::process::BlockWorkspace ws;
    sampler.sample_block_into(lane_rngs.data(), width, block, ws);
    ASSERT_EQ(block.width, width);
    ASSERT_EQ(block.sites, sites.size());

    for (std::size_t j = 0; j < width; ++j) {
      sp::stats::Rng scalar_rng = root.fork(j);
      sp::process::DieSample die;
      sp::process::DieWorkspace die_ws;
      sampler.sample_into(scalar_rng, die, die_ws);
      for (std::size_t i = 0; i < sites.size(); ++i) {
        EXPECT_EQ(block.dvth_at(i, j, 1.0), die.dvth_at(i, 1.0))
            << "w=" << width << " lane " << j << " site " << i;
        EXPECT_EQ(block.dvth_at(i, j, 2.5), die.dvth_at(i, 2.5));
        EXPECT_EQ(block.dvth_shared_at(i, j), die.dvth_shared_at(i));
        EXPECT_EQ(block.dl_rel_at(i, j), die.dl_rel_at(i));
      }
    }
  }
}

TEST(VariationBlock, ComponentPresenceMirrorsSpec) {
  Technology tech;
  const auto spec = VariationSpec::inter_only(0.040);  // no RDF, no field
  const sp::process::VariationSampler sampler(tech, spec,
                                              sp::process::linear_sites(4));
  sp::stats::Rng rng(5);
  std::vector<sp::stats::Rng> lanes{rng.fork(0), rng.fork(1)};
  sp::process::DieBlock block;
  sp::process::BlockWorkspace ws;
  sampler.sample_block_into(lanes.data(), 2, block, ws);
  EXPECT_TRUE(block.dvth_systematic.empty());
  EXPECT_TRUE(block.dvth_random.empty());
  EXPECT_TRUE(block.dl_systematic_rel.empty());
  EXPECT_EQ(block.dvth_inter.size(), 2u);

  EXPECT_THROW(sampler.sample_block_into(lanes.data(), 0, block, ws),
               std::invalid_argument);
  EXPECT_THROW(
      sampler.sample_block_into(lanes.data(),
                                statpipe::stats::lanes::max_width() + 1,
                                block, ws),
      std::invalid_argument);
}

TEST(LinearSites, EvenSpacing) {
  const auto p = sp::process::linear_sites(5);
  EXPECT_DOUBLE_EQ(p.front(), 0.0);
  EXPECT_DOUBLE_EQ(p.back(), 1.0);
  EXPECT_DOUBLE_EQ(p[2], 0.5);
  EXPECT_THROW(sp::process::linear_sites(0), std::invalid_argument);
}

TEST(ImpliedCorrelation, VarianceRatio) {
  using sp::process::VariationSampler;
  EXPECT_DOUBLE_EQ(VariationSampler::implied_correlation(1.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(VariationSampler::implied_correlation(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(VariationSampler::implied_correlation(1.0, 1.0), 0.5);
}

// ------------------------------------------------------------------ device

TEST(GateLibrary, TraitsSane) {
  const auto& inv = sp::device::traits(GateKind::kNot);
  EXPECT_DOUBLE_EQ(inv.logical_effort, 1.0);
  EXPECT_DOUBLE_EQ(inv.area, 1.0);
  // NAND2 has higher effort than inverter, NOR2 higher still.
  EXPECT_GT(sp::device::traits(GateKind::kNand2).logical_effort, 1.0);
  EXPECT_GT(sp::device::traits(GateKind::kNor2).logical_effort,
            sp::device::traits(GateKind::kNand2).logical_effort);
}

TEST(GateLibrary, NameRoundTrip) {
  for (auto k : {GateKind::kNot, GateKind::kNand2, GateKind::kNand3,
                 GateKind::kNor2, GateKind::kXor2, GateKind::kBuf}) {
    EXPECT_EQ(sp::device::gate_kind_from_string(
                  std::string(sp::device::to_string(k))),
              k);
  }
  EXPECT_THROW(sp::device::gate_kind_from_string("FROB"),
               std::invalid_argument);
}

TEST(GateLibrary, CapAndAreaScaleWithSize) {
  EXPECT_DOUBLE_EQ(sp::device::input_cap(GateKind::kNot, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(sp::device::cell_area(GateKind::kNot, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(sp::device::input_cap(GateKind::kInput, 5.0), 0.0);
}

TEST(AlphaPower, NominalFactorIsOne) {
  AlphaPowerModel m{Technology{}};
  EXPECT_DOUBLE_EQ(m.variation_factor(0.0, 0.0), 1.0);
}

TEST(AlphaPower, RejectsUnphysicalAlpha) {
  // The constructor's alpha cap is what makes variation_factor's fixed
  // drive-ratio window a sound guard for the pow core's exponent range.
  Technology t;
  t.alpha = 5.0;
  EXPECT_THROW(AlphaPowerModel{t}, std::invalid_argument);
  t.alpha = 0.0;
  EXPECT_THROW(AlphaPowerModel{t}, std::invalid_argument);
  t.alpha = -1.3;
  EXPECT_THROW(AlphaPowerModel{t}, std::invalid_argument);
  t.alpha = 2.0;
  EXPECT_NO_THROW(AlphaPowerModel{t});
}

TEST(AlphaPower, SlowsWithHigherVthFasterWithLower) {
  AlphaPowerModel m{Technology{}};
  EXPECT_GT(m.variation_factor(+0.040), 1.0);
  EXPECT_LT(m.variation_factor(-0.040), 1.0);
  EXPECT_GT(m.variation_factor(+0.040), 1.0 / m.variation_factor(-0.040) - 0.05);
}

TEST(AlphaPower, LengthIncreasesDelayQuadratically) {
  AlphaPowerModel m{Technology{}};
  EXPECT_NEAR(m.variation_factor(0.0, 0.10), 1.21, 1e-12);
}

TEST(AlphaPower, ThrowsOutOfSaturation) {
  AlphaPowerModel m{Technology{}};
  EXPECT_THROW(m.variation_factor(0.9), std::domain_error);
  EXPECT_THROW(m.variation_factor(0.0, -1.0), std::domain_error);
}

TEST(AlphaPower, LaneFactorBitwiseEqualsScalar) {
  // The vectorized pow sweep must be indistinguishable from n scalar
  // calls — this is the contract that lets the block sample STA share the
  // scalar path's results bit for bit.
  AlphaPowerModel m{Technology{}};
  sp::stats::Rng rng(31415);
  constexpr std::size_t kN = 16;
  double dvth[kN], dl[kN], out[kN];
  for (int rep = 0; rep < 200; ++rep) {
    for (std::size_t j = 0; j < kN; ++j) {
      dvth[j] = rng.normal(0.0, 0.030);
      dl[j] = rng.normal(0.0, 0.04);
    }
    m.variation_factor_lanes(dvth, dl, kN, out);
    for (std::size_t j = 0; j < kN; ++j)
      ASSERT_EQ(out[j], m.variation_factor(dvth[j], dl[j]));
  }
}

TEST(AlphaPower, LaneFactorRejectsBadLaneBeforeWriting) {
  AlphaPowerModel m{Technology{}};
  double dvth[4] = {0.0, 0.01, 0.9, 0.0};  // lane 2 out of saturation
  double dl[4] = {0.0, 0.0, 0.0, 0.0};
  double out[4] = {-1.0, -1.0, -1.0, -1.0};
  EXPECT_THROW(m.variation_factor_lanes(dvth, dl, 4, out), std::domain_error);
  for (double v : out) EXPECT_EQ(v, -1.0);  // nothing written
  dvth[2] = 0.0;
  dl[1] = -1.5;  // lane 1: negative channel length
  EXPECT_THROW(m.variation_factor_lanes(dvth, dl, 4, out), std::domain_error);
}

TEST(AlphaPower, FactorAgreesWithLibmPow) {
  // variation_factor now runs on the shared polynomial pow core; it must
  // still track the libm formula to ~1e-13 relative over the sampling
  // domain.
  AlphaPowerModel m{Technology{}};
  const Technology t{};
  sp::stats::Rng rng(2718);
  for (int i = 0; i < 20000; ++i) {
    const double dvth = rng.normal(0.0, 0.040);
    const double drive0 = t.vdd - t.vth0;
    if (drive0 - dvth <= 0.0) continue;
    const double ref = std::pow(drive0 / (drive0 - dvth), t.alpha);
    EXPECT_NEAR(m.variation_factor(dvth), ref, 1e-13 * ref);
  }
}

TEST(AlphaPower, DelayDecreasesWithSizeIncreasesWithLoad) {
  AlphaPowerModel m{Technology{}};
  const double d1 = m.nominal_delay(GateKind::kNot, 1.0, 4.0);
  const double d2 = m.nominal_delay(GateKind::kNot, 2.0, 4.0);
  const double d3 = m.nominal_delay(GateKind::kNot, 1.0, 8.0);
  EXPECT_LT(d2, d1);
  EXPECT_GT(d3, d1);
  EXPECT_THROW(m.nominal_delay(GateKind::kNot, 0.0, 1.0),
               std::invalid_argument);
}

TEST(AlphaPower, SensitivityMatchesFiniteDifference) {
  AlphaPowerModel m{Technology{}};
  const double d0 = m.nominal_delay(GateKind::kNand2, 2.0, 6.0);
  const double eps = 1e-5;
  const double fd =
      (m.delay(GateKind::kNand2, 2.0, 6.0, eps) - d0) / eps;
  EXPECT_NEAR(m.dvth_sensitivity(GateKind::kNand2, 2.0, 6.0), fd,
              std::abs(fd) * 1e-3);
}

TEST(AlphaPower, SigmaDecompositionRespectsSpec) {
  AlphaPowerModel m{Technology{}};
  const auto s_intra =
      m.delay_sigmas(GateKind::kNot, 1.0, 4.0, VariationSpec::intra_only());
  EXPECT_EQ(s_intra.inter, 0.0);
  EXPECT_GT(s_intra.random, 0.0);

  const auto s_inter = m.delay_sigmas(GateKind::kNot, 1.0, 4.0,
                                      VariationSpec::inter_only(0.040));
  EXPECT_GT(s_inter.inter, 0.0);
  EXPECT_EQ(s_inter.random, 0.0);
  EXPECT_NEAR(s_inter.total(), s_inter.inter, 1e-15);
}

TEST(AlphaPower, UpsizingShrinksRandomSigma) {
  AlphaPowerModel m{Technology{}};
  const auto spec = VariationSpec::intra_only();
  // Compare relative (per-ps) random sigma: RDF falls as 1/sqrt(size).
  const auto s1 = m.delay_sigmas(GateKind::kNot, 1.0, 4.0, spec);
  const auto s4 = m.delay_sigmas(GateKind::kNot, 4.0, 4.0, spec);
  const double rel1 = s1.random / m.nominal_delay(GateKind::kNot, 1.0, 4.0);
  const double rel4 = s4.random / m.nominal_delay(GateKind::kNot, 4.0, 4.0);
  EXPECT_NEAR(rel1 / rel4, 2.0, 1e-9);
}

// ------------------------------------------------------------------- latch

TEST(Latch, OverheadScalesWithVth) {
  AlphaPowerModel m{Technology{}};
  sp::device::LatchModel latch({}, m);
  const double nominal = latch.timing().nominal_overhead();
  EXPECT_DOUBLE_EQ(latch.overhead_at(0.0), nominal);
  EXPECT_GT(latch.overhead_at(0.040), nominal);
}

TEST(Latch, DistributionDecomposition) {
  AlphaPowerModel m{Technology{}};
  sp::device::LatchModel latch({}, m);
  const auto d = latch.overhead_distribution(VariationSpec::inter_only(0.040));
  EXPECT_DOUBLE_EQ(d.mean, latch.timing().nominal_overhead());
  EXPECT_GT(d.sigma, 0.0);
  // With no inter-die variation only the private component remains.
  const auto d0 = latch.overhead_distribution(VariationSpec::intra_only());
  EXPECT_NEAR(d0.sigma,
              latch.timing().nominal_overhead() *
                  latch.timing().random_sigma_rel,
              1e-12);
  EXPECT_LT(d0.sigma, d.sigma);
}

TEST(Latch, SampledOverheadMatchesDistribution) {
  AlphaPowerModel m{Technology{}};
  sp::device::LatchModel latch({}, m);
  sp::stats::Rng rng(77);
  sp::stats::RunningStats rs;
  for (int i = 0; i < 20000; ++i) rs.add(latch.sample_overhead(0.0, rng));
  EXPECT_NEAR(rs.mean(), latch.timing().nominal_overhead(), 0.05);
  EXPECT_NEAR(rs.stddev(),
              latch.timing().nominal_overhead() *
                  latch.timing().random_sigma_rel,
              0.02);
}
