// Tests for the Monte-Carlo engines — and the paper's section-2.4 model
// verification: analytical (mu_T, sigma_T, yield) vs MC at both stage and
// gate granularity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>

#include "core/characterized_pipeline.h"
#include "core/pipeline_model.h"
#include "mc/pipeline_mc.h"
#include "netlist/generators.h"
#include "stats/ks.h"
#include "stats/lanes.h"

namespace sp = statpipe;
using sp::core::LatchOverhead;
using sp::core::PipelineModel;
using sp::core::StageModel;
using sp::stats::Gaussian;

namespace {

PipelineModel small_pipeline(double sigma_inter_frac) {
  std::vector<StageModel> s;
  for (int i = 0; i < 5; ++i) {
    const double mu = 150.0 + 5.0 * i;
    const double sg = 6.0;
    s.emplace_back("s" + std::to_string(i), Gaussian{mu, sg},
                   sigma_inter_frac * sg, 50.0);
  }
  return PipelineModel(std::move(s), LatchOverhead{40.0, 0.0, 0.5});
}

}  // namespace

// ------------------------------------------------------------- stage level

TEST(StageMc, EstimateMatchesAnalyticalIndependent) {
  const auto p = small_pipeline(0.0);
  sp::mc::StageLevelMonteCarlo mc(p);
  sp::stats::Rng rng(101);
  const auto r = mc.run(100000, rng);
  const auto analytic = p.delay_distribution();
  const auto est = r.tp_estimate();
  EXPECT_NEAR(analytic.mean, est.mean, 0.003 * est.mean);
  EXPECT_NEAR(analytic.sigma, est.sigma, 0.06 * est.sigma);
}

TEST(StageMc, EstimateMatchesAnalyticalCorrelated) {
  const auto p = small_pipeline(0.8);
  sp::mc::StageLevelMonteCarlo mc(p);
  sp::stats::Rng rng(102);
  const auto r = mc.run(100000, rng);
  const auto analytic = p.delay_distribution();
  const auto est = r.tp_estimate();
  EXPECT_NEAR(analytic.mean, est.mean, 0.003 * est.mean);
  EXPECT_NEAR(analytic.sigma, est.sigma, 0.08 * est.sigma);
}

TEST(StageMc, YieldMatchesEq9) {
  const auto p = small_pipeline(0.5);
  sp::mc::StageLevelMonteCarlo mc(p);
  sp::stats::Rng rng(103);
  const auto r = mc.run(100000, rng);
  for (double t : {195.0, 200.0, 205.0, 210.0}) {
    EXPECT_NEAR(p.yield(t), r.yield_at(t), 0.02) << "t=" << t;
  }
}

TEST(StageMc, PerStageStatsMatchInputs) {
  const auto p = small_pipeline(0.3);
  sp::mc::StageLevelMonteCarlo mc(p);
  sp::stats::Rng rng(104);
  const auto r = mc.run(50000, rng);
  ASSERT_EQ(r.stage_stats.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto sd = p.stage_delay(i);
    EXPECT_NEAR(r.stage_stats[i].mean(), sd.mean, 0.005 * sd.mean);
    EXPECT_NEAR(r.stage_stats[i].stddev(), sd.sigma, 0.05 * sd.sigma);
  }
}

TEST(StageMc, CiShrinksWithSamples) {
  const auto p = small_pipeline(0.0);
  sp::mc::StageLevelMonteCarlo mc(p);
  sp::stats::Rng rng(105);
  const auto small = mc.run(1000, rng);
  const auto large = mc.run(16000, rng);
  const double t = 205.0;
  EXPECT_NEAR(small.yield_ci95(t) / large.yield_ci95(t), 4.0, 1.5);
}

TEST(StageMc, DistributionIsApproximatelyGaussian) {
  // The basis of eq. (9): T_P is well-approximated by a Gaussian.
  const auto p = small_pipeline(0.5);
  sp::mc::StageLevelMonteCarlo mc(p);
  sp::stats::Rng rng(106);
  const auto r = mc.run(50000, rng);
  const double ks = sp::stats::ks_distance(r.tp_samples, r.tp_estimate());
  EXPECT_LT(ks, 0.03);
}

// -------------------------------------------------------------- gate level

namespace {

struct GateLevelFixture {
  std::vector<sp::netlist::Netlist> stages;
  sp::device::AlphaPowerModel model{sp::process::Technology{}};
  sp::device::LatchModel latch{{}, model};

  explicit GateLevelFixture(std::size_t n_stages, std::size_t depth) {
    for (std::size_t i = 0; i < n_stages; ++i) {
      stages.push_back(sp::netlist::inverter_chain(depth));
      stages.back().set_name("stage" + std::to_string(i));
    }
  }
  std::vector<const sp::netlist::Netlist*> views() const {
    std::vector<const sp::netlist::Netlist*> v;
    for (const auto& s : stages) v.push_back(&s);
    return v;
  }
};

}  // namespace

TEST(GateMc, AnalyticalModelTracksGateLevelTruth_IntraOnly) {
  // Fig. 2(a): random intra-die only.
  GateLevelFixture f(5, 8);
  const auto spec = sp::process::VariationSpec::intra_only();
  sp::mc::GateLevelMonteCarlo mc(f.views(), f.model, spec, f.latch);
  sp::stats::Rng rng(111);
  const auto r = mc.run(3000, rng);

  sp::stats::Rng rng2(112);
  const auto pipe = sp::core::build_pipeline_mc(f.views(), f.model, spec,
                                                f.latch, rng2);
  const auto analytic = pipe.delay_distribution();
  const auto est = r.tp_estimate();
  EXPECT_NEAR(analytic.mean, est.mean, 0.01 * est.mean);
  EXPECT_NEAR(analytic.sigma, est.sigma, 0.25 * est.sigma);
}

TEST(GateMc, AnalyticalModelTracksGateLevelTruth_InterOnly) {
  // Fig. 2(b): inter-die only — stage delays fully correlated.
  GateLevelFixture f(5, 8);
  const auto spec = sp::process::VariationSpec::inter_only(0.040);
  sp::mc::GateLevelMonteCarlo mc(f.views(), f.model, spec, f.latch);
  sp::stats::Rng rng(113);
  const auto r = mc.run(3000, rng);

  sp::stats::Rng rng2(114);
  const auto pipe = sp::core::build_pipeline_mc(f.views(), f.model, spec,
                                                f.latch, rng2);
  const auto analytic = pipe.delay_distribution();
  const auto est = r.tp_estimate();
  EXPECT_NEAR(analytic.mean, est.mean, 0.01 * est.mean);
  // Inter-only sigma is large (Table I: ~29ps); model should track it.
  EXPECT_NEAR(analytic.sigma, est.sigma, 0.15 * est.sigma);
}

TEST(GateMc, InterOnlyStagesPerfectlyCorrelated) {
  GateLevelFixture f(3, 6);
  const auto spec = sp::process::VariationSpec::inter_only(0.040);
  sp::mc::GateLevelMonteCarlo mc(f.views(), f.model, spec, f.latch);
  sp::stats::Rng rng(115);
  const auto r = mc.run(2000, rng);
  // All stage means equal, and T_P sigma ~ stage sigma (no averaging).
  const auto est = r.tp_estimate();
  EXPECT_NEAR(est.sigma, r.stage_stats[0].stddev(),
              0.12 * r.stage_stats[0].stddev());
}

TEST(GateMc, YieldCurveMonotone) {
  GateLevelFixture f(4, 6);
  const auto spec = sp::process::VariationSpec::inter_intra(0.020, 0.010, 0.5);
  sp::mc::GateLevelMonteCarlo mc(f.views(), f.model, spec, f.latch);
  sp::stats::Rng rng(116);
  const auto r = mc.run(2000, rng);
  const auto est = r.tp_estimate();
  double prev = -1.0;
  for (double z = -2.0; z <= 2.01; z += 0.5) {
    const double y = r.yield_at(est.mean + z * est.sigma);
    EXPECT_GE(y, prev);
    prev = y;
  }
}

TEST(GateMc, BlockWidthAndThreadCountInvariant) {
  // The block-vectorized path contract: for a given seed, every
  // (block_width, threads) combination in {1,8,16} x {1,2,8} produces a
  // bitwise-identical McResult.  1000 samples over 128-sample shards leaves
  // a 104-sample final shard, so full blocks and a narrower last block are
  // both exercised at every width.  (The scalar oracle below pins width 1
  // itself to the scalar APIs.)
  GateLevelFixture f(3, 6);
  const auto spec = sp::process::VariationSpec::inter_intra(0.020, 0.010, 0.5);
  sp::mc::GateLevelMonteCarlo mc(f.views(), f.model, spec, f.latch);
  constexpr std::size_t kSamples = 1000;

  auto run_at = [&](std::size_t width, std::size_t threads) {
    sp::sim::ExecutionOptions exec;
    exec.block_width = width;
    exec.threads = threads;
    exec.samples_per_shard = 128;
    sp::stats::Rng rng(31415);
    return mc.run(kSamples, rng, exec);
  };

  const auto ref = run_at(1, 1);
  ASSERT_EQ(ref.tp_samples.size(), kSamples);
  for (const std::size_t width : {std::size_t{1}, std::size_t{8},
                                  std::size_t{16}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      const auto r = run_at(width, threads);
      ASSERT_EQ(r.tp_samples.size(), kSamples);
      for (std::size_t i = 0; i < kSamples; ++i)
        ASSERT_EQ(ref.tp_samples[i], r.tp_samples[i])
            << "width " << width << " threads " << threads << " sample " << i;
      for (std::size_t s = 0; s < ref.stage_stats.size(); ++s) {
        EXPECT_EQ(ref.stage_stats[s].count(), r.stage_stats[s].count());
        EXPECT_EQ(ref.stage_stats[s].mean(), r.stage_stats[s].mean());
        EXPECT_EQ(ref.stage_stats[s].variance(), r.stage_stats[s].variance());
        EXPECT_EQ(ref.stage_stats[s].min(), r.stage_stats[s].min());
        EXPECT_EQ(ref.stage_stats[s].max(), r.stage_stats[s].max());
      }
    }
  }
}

TEST(GateMc, BlockPathMatchesScalarOracleBitwise) {
  // The engine has one block loop (its last block per shard narrower); the
  // scalar sampling/STA/latch APIs survive as this oracle.  Replay the
  // engine's documented streams by hand — run key rng.fork(), shard
  // stream fork(shard), sample stream fork(k): die draws, then one latch
  // draw per stage — and fold shards in ascending order.  333 samples over
  // 100-sample shards: every shard ends in a partial block at width 8 and
  // max_width(), and the last shard (33) is itself partial.  Field on.
  GateLevelFixture f(3, 6);
  const auto spec = sp::process::VariationSpec::inter_intra(0.020, 0.010, 0.5);
  sp::mc::GateLevelMonteCarlo mc(f.views(), f.model, spec, f.latch);
  constexpr std::size_t kSamples = 333;
  constexpr std::size_t kPerShard = 100;
  constexpr std::uint64_t kSeed = 27182;

  // The engine's die layout: stage s's gates at (s + position) / N, then
  // the stage's capture latch at its right edge (s + 1) / N.
  const std::size_t n_stages = f.stages.size();
  std::vector<double> positions;
  std::vector<std::vector<std::size_t>> site_maps(n_stages);
  std::vector<std::size_t> latch_sites;
  for (std::size_t s = 0; s < n_stages; ++s) {
    for (std::size_t g = 0; g < f.stages[s].size(); ++g) {
      site_maps[s].push_back(positions.size());
      positions.push_back((static_cast<double>(s) +
                           f.stages[s].gate(g).position) /
                          static_cast<double>(n_stages));
    }
    latch_sites.push_back(positions.size());
    positions.push_back(static_cast<double>(s + 1) /
                        static_cast<double>(n_stages));
  }
  const sp::process::VariationSampler sampler(f.model.technology(), spec,
                                              positions);

  sp::stats::Rng seed_rng(kSeed);
  const sp::stats::Rng root = seed_rng.fork();
  sp::process::DieSample die;
  sp::process::DieWorkspace die_ws;
  sp::sta::StaWorkspace sta_ws;
  sp::mc::McResult oracle;
  for (const sp::sim::Shard& shard :
       sp::sim::plan_shards(kSamples, kPerShard)) {
    const sp::stats::Rng shard_rng = root.fork(shard.index);
    sp::mc::McResult part;
    part.stage_stats.resize(n_stages);
    for (std::size_t k = 0; k < shard.count; ++k) {
      sp::stats::Rng rng = shard_rng.fork(k);
      sampler.sample_into(rng, die, die_ws);
      double tp = 0.0;
      for (std::size_t s = 0; s < n_stages; ++s) {
        const double sd =
            sp::sta::critical_delay_sample(f.stages[s], f.model, die,
                                           site_maps[s], {}, sta_ws) +
            f.latch.sample_overhead(die.dvth_shared_at(latch_sites[s]), rng);
        part.stage_stats[s].add(sd);
        tp = std::max(tp, sd);
      }
      part.tp_samples.push_back(tp);
    }
    if (shard.index == 0)
      oracle = std::move(part);
    else
      oracle.merge(std::move(part));
  }
  ASSERT_EQ(oracle.tp_samples.size(), kSamples);

  for (const std::size_t width :
       {std::size_t{1}, std::size_t{8}, sp::stats::lanes::max_width()}) {
    sp::sim::ExecutionOptions exec;
    exec.block_width = width;
    exec.samples_per_shard = kPerShard;
    sp::stats::Rng rng(kSeed);
    const auto r = mc.run(kSamples, rng, exec);
    ASSERT_EQ(r.tp_samples.size(), kSamples);
    for (std::size_t i = 0; i < kSamples; ++i)
      ASSERT_EQ(oracle.tp_samples[i], r.tp_samples[i])
          << "width " << width << " sample " << i;
    for (std::size_t s = 0; s < n_stages; ++s) {
      EXPECT_EQ(oracle.stage_stats[s].count(), r.stage_stats[s].count());
      EXPECT_EQ(oracle.stage_stats[s].mean(), r.stage_stats[s].mean());
      EXPECT_EQ(oracle.stage_stats[s].variance(),
                r.stage_stats[s].variance());
      EXPECT_EQ(oracle.stage_stats[s].min(), r.stage_stats[s].min());
      EXPECT_EQ(oracle.stage_stats[s].max(), r.stage_stats[s].max());
    }
  }
}

TEST(GateMc, StageSizesAreReadAtConstruction) {
  // The engine binds every stage (topology, sites AND sizes) once, in its
  // constructor, and shares that binding read-only across shards.
  // Resizing the netlists afterwards must not leak into later runs, at any
  // thread count: every pooled shard workspace sees the same sizes.  (A
  // per-workspace bind cache fails this once the pool runs two or more
  // workers: workspaces made after the resize bind the new sizes.)
  std::vector<sp::netlist::Netlist> stages;
  for (int i = 0; i < 3; ++i) stages.push_back(sp::netlist::inverter_grid(4, 6));
  std::vector<const sp::netlist::Netlist*> views;
  for (const auto& s : stages) views.push_back(&s);
  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  const sp::device::LatchModel latch{{}, model};
  const auto spec = sp::process::VariationSpec::inter_intra(0.020, 0.010, 0.5);
  const sp::mc::GateLevelMonteCarlo mc(views, model, spec, latch);

  sp::sim::ExecutionOptions serial, pooled;
  serial.threads = 1;
  serial.samples_per_shard = 64;
  pooled.threads = 0;  // every shared-pool thread
  pooled.samples_per_shard = 64;
  sp::stats::Rng r0(5);
  const auto first = mc.run(2048, r0, serial);

  for (auto& s : stages) s.scale_sizes(2.0);
  sp::stats::Rng r1(5), r2(5);
  const auto again = mc.run(2048, r1, serial);
  const auto wide = mc.run(2048, r2, pooled);
  for (const auto* r : {&again, &wide}) {
    ASSERT_EQ(r->tp_samples.size(), first.tp_samples.size());
    for (std::size_t i = 0; i < first.tp_samples.size(); ++i)
      ASSERT_EQ(r->tp_samples[i], first.tp_samples[i]) << "sample " << i;
    for (std::size_t s = 0; s < stages.size(); ++s) {
      EXPECT_EQ(r->stage_stats[s].mean(), first.stage_stats[s].mean());
      EXPECT_EQ(r->stage_stats[s].variance(), first.stage_stats[s].variance());
    }
  }
}

TEST(GateMc, BadBlockWidthIsRejectedUpFront) {
  // block_width outside [1, lanes::max_width()] of the active SIMD backend
  // is a caller bug: it is rejected with a clear error before any
  // sampling, never silently clamped into range (a clamp would quietly
  // change the block grouping the caller thought they configured).
  GateLevelFixture f(2, 4);
  const auto spec = sp::process::VariationSpec::intra_only();
  sp::mc::GateLevelMonteCarlo mc(f.views(), f.model, spec, f.latch);
  sp::stats::Rng rng(5);
  sp::sim::ExecutionOptions bad;
  bad.block_width = 4096;
  EXPECT_THROW(mc.run(300, rng, bad), std::invalid_argument);
  bad.block_width = sp::stats::lanes::max_width() + 1;
  EXPECT_THROW(mc.run(300, rng, bad), std::invalid_argument);
  bad.block_width = 0;
  EXPECT_THROW(mc.run(300, rng, bad), std::invalid_argument);
  // The full supported range is accepted and bitwise-equal to scalar.
  sp::sim::ExecutionOptions max_w, scalar;
  max_w.block_width = sp::stats::lanes::max_width();
  max_w.threads = 1;
  scalar.block_width = 1;
  scalar.threads = 1;
  sp::stats::Rng r1(5), r2(5);
  const auto a = mc.run(300, r1, max_w);
  const auto b = mc.run(300, r2, scalar);
  for (std::size_t i = 0; i < a.tp_samples.size(); ++i)
    ASSERT_EQ(a.tp_samples[i], b.tp_samples[i]);
}

TEST(GateMc, RejectsDegenerateInputs) {
  GateLevelFixture f(2, 4);
  const auto spec = sp::process::VariationSpec::intra_only();
  sp::mc::GateLevelMonteCarlo mc(f.views(), f.model, spec, f.latch);
  sp::stats::Rng rng(117);
  EXPECT_THROW(mc.run(0, rng), std::invalid_argument);
  EXPECT_THROW(sp::mc::GateLevelMonteCarlo({}, f.model, spec, f.latch),
               std::invalid_argument);
}

// --------------------------------------------------- merge edge cases

namespace {

sp::mc::McResult make_result(std::uint64_t seed, std::size_t n_samples,
                             std::size_t n_stages) {
  sp::stats::Rng rng(seed);
  sp::mc::McResult r;
  r.stage_stats.resize(n_stages);
  for (std::size_t k = 0; k < n_samples; ++k) {
    double tp = 0.0;
    for (std::size_t s = 0; s < n_stages; ++s) {
      const double sd = rng.normal(200.0 + 10.0 * static_cast<double>(s), 8.0);
      r.stage_stats[s].add(sd);
      tp = std::max(tp, sd);
    }
    r.tp_samples.push_back(tp);
  }
  return r;
}

}  // namespace

TEST(McMerge, EmptyStageStatsMergeLegally) {
  // Stage-stat-free results (stage count 0 on both sides) merge: samples
  // concatenate, nothing else to fold.
  auto a = make_result(1, 10, 0);
  auto b = make_result(2, 7, 0);
  a.merge(std::move(b));
  EXPECT_EQ(a.tp_samples.size(), 17u);
  EXPECT_TRUE(a.stage_stats.empty());
}

TEST(McMerge, StageCountMismatchThrows) {
  auto a = make_result(1, 10, 3);
  auto b = make_result(2, 10, 2);
  auto c = make_result(3, 10, 0);
  EXPECT_THROW(a.merge(std::move(b)), std::invalid_argument);
  EXPECT_THROW(a.merge(std::move(c)), std::invalid_argument);
}

TEST(McMerge, SelfMergeIsRejected) {
  auto a = make_result(1, 10, 2);
  EXPECT_THROW(a.merge(std::move(a)), std::invalid_argument);
  // ...and the failed merge left the result intact.
  EXPECT_EQ(a.tp_samples.size(), 10u);
  EXPECT_EQ(a.stage_stats[0].count(), 10u);
}

TEST(McMerge, MergeOrderAssociativityFuzz) {
  // RunningStats merging is associative only up to floating-point
  // rounding; sample concatenation and counts are exact.  Fuzz random
  // partitions: ((a.b).c) vs (a.(b.c)) must agree exactly on counts and
  // samples, and to ~1e-9 relative on the folded moments.  (This is why
  // every reduction in the library — local and distributed — commits to
  // ONE shape: the ascending-order left fold.)
  std::mt19937_64 g(99);
  for (int rep = 0; rep < 20; ++rep) {
    const std::size_t n_stages = 1 + rep % 3;
    auto a1 = make_result(10 + rep, 5 + g() % 40, n_stages);
    auto b1 = make_result(50 + rep, 5 + g() % 40, n_stages);
    auto c1 = make_result(90 + rep, 5 + g() % 40, n_stages);
    auto a2 = a1, b2 = b1, c2 = c1;

    a1.merge(std::move(b1));
    a1.merge(std::move(c1));  // (a.b).c

    b2.merge(std::move(c2));
    a2.merge(std::move(b2));  // a.(b.c)

    ASSERT_EQ(a1.tp_samples.size(), a2.tp_samples.size());
    for (std::size_t i = 0; i < a1.tp_samples.size(); ++i)
      ASSERT_EQ(a1.tp_samples[i], a2.tp_samples[i]);
    for (std::size_t s = 0; s < n_stages; ++s) {
      ASSERT_EQ(a1.stage_stats[s].count(), a2.stage_stats[s].count());
      EXPECT_NEAR(a1.stage_stats[s].mean(), a2.stage_stats[s].mean(),
                  1e-9 * std::abs(a1.stage_stats[s].mean()));
      EXPECT_NEAR(a1.stage_stats[s].variance(), a2.stage_stats[s].variance(),
                  1e-9 * a1.stage_stats[s].variance() + 1e-12);
      EXPECT_EQ(a1.stage_stats[s].min(), a2.stage_stats[s].min());
      EXPECT_EQ(a1.stage_stats[s].max(), a2.stage_stats[s].max());
    }
  }
}

// --------------------------------------------------- ordering ablation

TEST(ModelVsMc, IncreasingMeanOrderingIsBest) {
  // The paper orders Clark reduction by increasing mean to minimize error
  // (sec. 2.4).  Verify it is at least as good as document order on a
  // heterogeneous pipeline.
  std::vector<StageModel> s;
  s.emplace_back("a", Gaussian{180.0, 8.0}, 0.0, 0.0);
  s.emplace_back("b", Gaussian{150.0, 5.0}, 0.0, 0.0);
  s.emplace_back("c", Gaussian{175.0, 7.0}, 0.0, 0.0);
  s.emplace_back("d", Gaussian{160.0, 9.0}, 0.0, 0.0);
  PipelineModel p(std::move(s), {});

  sp::mc::StageLevelMonteCarlo mc(p);
  sp::stats::Rng rng(120);
  const auto truth = mc.run(200000, rng).tp_estimate();

  const auto inc =
      p.delay_distribution(sp::stats::ClarkOrdering::kIncreasingMean);
  const auto doc = p.delay_distribution(sp::stats::ClarkOrdering::kAsGiven);
  const double err_inc = std::abs(inc.sigma - truth.sigma);
  const double err_doc = std::abs(doc.sigma - truth.sigma);
  EXPECT_LE(err_inc, err_doc + 0.05);
}
