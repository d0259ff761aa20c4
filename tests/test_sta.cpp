// Unit tests for deterministic STA, canonical-form SSTA and stage
// characterization, cross-validated against gate-level Monte-Carlo.
#include <gtest/gtest.h>

#include <cmath>

#include "device/delay_model.h"
#include "netlist/generators.h"
#include "opt/sizer.h"
#include "process/variation.h"
#include "sim/engine.h"
#include "ssta_oracle.h"
#include "sta/characterize.h"
#include "sta/ssta.h"
#include "sta/ssta_batch.h"
#include "sta/sta.h"
#include "stats/descriptive.h"

namespace sp = statpipe;
using sp::device::AlphaPowerModel;
using sp::device::GateKind;
using sp::process::Technology;
using sp::process::VariationSpec;

namespace {

AlphaPowerModel model() { return AlphaPowerModel{Technology{}}; }

}  // namespace

// --------------------------------------------------------------------- STA

TEST(Sta, InverterChainDelayIsSumOfStages) {
  const auto nl = sp::netlist::inverter_chain(5);
  const auto m = model();
  const auto r = sp::sta::analyze(nl, m);
  // Interior inverters drive one inverter (load 1); the last drives the
  // output load 2.  d = tau*(p + load/size), p=1, tau from tech.
  const double tau = m.technology().tau_ps;
  const double expect = 4 * tau * (1.0 + 1.0) + tau * (1.0 + 2.0);
  EXPECT_NEAR(r.critical_delay, expect, 1e-9);
}

TEST(Sta, ArrivalMonotoneAlongChain) {
  const auto nl = sp::netlist::inverter_chain(8);
  const auto r = sp::sta::analyze(nl, model());
  double prev = -1.0;
  for (auto id : nl.topological_order()) {
    EXPECT_GE(r.arrival[id], prev - 1e-12);
    prev = r.arrival[id];
  }
}

TEST(Sta, CriticalPathEndsAtCriticalOutput) {
  const auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  const auto r = sp::sta::analyze(nl, m);
  const auto path = r.critical_path(nl);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.back(), r.critical_output);
  // Path arrival is non-decreasing.
  for (std::size_t i = 1; i < path.size(); ++i)
    EXPECT_GE(r.arrival[path[i]], r.arrival[path[i - 1]]);
}

TEST(Sta, UpsizedCircuitIsFaster) {
  auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  const double d1 = sp::sta::analyze(nl, m).critical_delay;
  // Uniform upsizing speeds up the output stage (fixed external load).
  nl.scale_sizes(2.0);
  const double d2 = sp::sta::analyze(nl, m).critical_delay;
  EXPECT_LT(d2, d1);
}

namespace {

// Sample STA of one die that was sampled alone (site i == gate i).
double sample_delay(const sp::netlist::Netlist& nl, const AlphaPowerModel& m,
                    const sp::process::DieSample& die) {
  std::vector<std::size_t> identity(nl.size());
  for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
  sp::sta::StaWorkspace ws;
  return sp::sta::critical_delay_sample(nl, m, die, identity, {}, ws);
}

}  // namespace

TEST(Sta, SampleWithZeroShiftEqualsNominal) {
  const auto nl = sp::netlist::inverter_chain(6);
  const auto m = model();
  sp::process::DieSample die;  // all-zero shifts
  const auto r0 = sp::sta::analyze(nl, m);
  EXPECT_NEAR(r0.critical_delay, sample_delay(nl, m, die), 1e-12);
}

TEST(Sta, SlowDieIsSlower) {
  const auto nl = sp::netlist::inverter_chain(6);
  const auto m = model();
  sp::process::DieSample die;
  die.dvth_inter = 0.040;
  EXPECT_GT(sample_delay(nl, m, die), sp::sta::analyze(nl, m).critical_delay);
}

TEST(Sta, ThrowsWithoutOutputs) {
  sp::netlist::Netlist empty("empty");
  empty.add_input("a");
  EXPECT_THROW(sp::sta::analyze(empty, model()), std::logic_error);
}

// -------------------------------------------------------------------- SSTA

TEST(BlockSta, BitwiseMatchesScalarPerDie) {
  // critical_delay_sample_block's contract: die j of a width-W block gets
  // exactly the delay critical_delay_sample computes for that die.  Use a
  // reconvergent multi-fanin DAG and every variation component at once.
  const auto m = model();
  for (const char* which : {"c17", "grid"}) {
    const auto nl = std::string(which) == "c17"
                        ? sp::netlist::iscas_c17()
                        : sp::netlist::inverter_grid(4, 6);
    auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
    spec.sigma_l_inter_rel = 0.01;
    const sp::process::VariationSampler sampler(
        m.technology(), spec, sp::process::linear_sites(nl.size()));
    std::vector<std::size_t> site_map(nl.size());
    for (std::size_t i = 0; i < site_map.size(); ++i) site_map[i] = i;
    const sp::sta::StaOptions opt;

    for (const std::size_t width : {std::size_t{1}, std::size_t{8},
                                    std::size_t{16}}) {
      const sp::stats::Rng root(4321);
      std::vector<sp::stats::Rng> lane_rngs(width);
      for (std::size_t j = 0; j < width; ++j) lane_rngs[j] = root.fork(j);
      sp::process::DieBlock block;
      sp::process::BlockWorkspace bws;
      sampler.sample_block_into(lane_rngs.data(), width, block, bws);

      const sp::sta::BlockStage stage(nl, m, site_map, opt);
      sp::sta::StaBlockWorkspace ws;
      std::vector<double> critical(width);
      sp::sta::critical_delay_sample_block(stage, block, ws, critical.data());

      for (std::size_t j = 0; j < width; ++j) {
        sp::stats::Rng rng = root.fork(j);
        sp::process::DieSample die;
        sp::process::DieWorkspace dws;
        sampler.sample_into(rng, die, dws);
        sp::sta::StaWorkspace sws;
        const double scalar =
            sp::sta::critical_delay_sample(nl, m, die, site_map, opt, sws);
        EXPECT_EQ(critical[j], scalar)
            << which << " w=" << width << " die " << j;
      }
    }
  }
}

TEST(BlockSta, RejectsBadInputs) {
  const auto m = model();
  const auto nl = sp::netlist::inverter_chain(4);
  const auto spec = VariationSpec::intra_only();
  const sp::process::VariationSampler sampler(
      m.technology(), spec, sp::process::linear_sites(nl.size()));
  sp::stats::Rng rng(1);
  std::vector<sp::stats::Rng> lanes{rng.fork(0), rng.fork(1)};
  sp::process::DieBlock block;
  sp::process::BlockWorkspace bws;
  sampler.sample_block_into(lanes.data(), 2, block, bws);
  const std::vector<std::size_t> short_map(nl.size() - 1, 0);
  EXPECT_THROW((void)sp::sta::BlockStage(nl, m, short_map),
               std::invalid_argument);
  sp::netlist::Netlist no_outputs("no_outputs");
  no_outputs.add_input("a");
  EXPECT_THROW((void)sp::sta::BlockStage(no_outputs, m, {0}),
               std::logic_error);
  std::vector<std::size_t> site_map(nl.size());
  for (std::size_t i = 0; i < site_map.size(); ++i) site_map[i] = i;
  const sp::sta::BlockStage stage(nl, m, site_map);
  sp::sta::StaBlockWorkspace ws;
  double critical[2];
  block.width = 0;
  EXPECT_THROW(sp::sta::critical_delay_sample_block(stage, block, ws, critical),
               std::invalid_argument);
}

TEST(Ssta, CanonicalArithmetic) {
  const sp::sta::CanonicalDelay a{10.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.sigma(), 5.0);
  const sp::sta::CanonicalDelay b{5.0, 1.0, 0.0};
  const auto s = a + b;
  EXPECT_DOUBLE_EQ(s.mu, 15.0);
  EXPECT_DOUBLE_EQ(s.b_inter, 4.0);
  EXPECT_DOUBLE_EQ(s.sigma_ind, 4.0);
}

TEST(Ssta, CorrelationFromSharedComponent) {
  const sp::sta::CanonicalDelay a{0.0, 3.0, 4.0};  // sigma 5
  const sp::sta::CanonicalDelay b{0.0, 4.0, 3.0};  // sigma 5
  EXPECT_NEAR(a.correlation(b), 12.0 / 25.0, 1e-12);
}

TEST(Ssta, MaxPreservesTotalVariance) {
  const sp::sta::CanonicalDelay a{10.0, 2.0, 1.0};
  const sp::sta::CanonicalDelay b{11.0, 1.5, 2.0};
  const auto m = sp::sta::canonical_max(a, b);
  // Total sigma of the canonical result equals the Clark sigma.
  const auto cm = sp::stats::clark_max(a.as_gaussian(), b.as_gaussian(),
                                       a.correlation(b));
  EXPECT_NEAR(m.mu, cm.max.mean, 1e-12);
  EXPECT_NEAR(m.sigma(), cm.max.sigma, 1e-9);
}

TEST(Ssta, ChainMeanMatchesDeterministicSta) {
  const auto nl = sp::netlist::inverter_chain(10);
  const auto m = model();
  const auto spec = VariationSpec::intra_only();
  const auto d = sp::sta::analyze_ssta(nl, m, spec);
  // First-order SSTA mean of a single chain equals the nominal delay
  // (no max operations on a chain).
  EXPECT_NEAR(d.mu, sp::sta::analyze(nl, m).critical_delay, 1e-9);
}

TEST(Ssta, InterOnlyChainSigmaMatchesAnalytic) {
  const auto nl = sp::netlist::inverter_chain(10);
  const auto m = model();
  const auto spec = VariationSpec::inter_only(0.040);
  const auto d = sp::sta::analyze_ssta(nl, m, spec);
  // Inter-only: every gate shifts together; sigma = sens_total * sigma_vth.
  EXPECT_EQ(d.sigma_ind, 0.0);
  EXPECT_NEAR(d.b_inter,
              d.mu * m.technology().alpha /
                  (m.technology().vdd - m.technology().vth0) * 0.040,
              1e-9);
}

TEST(Ssta, AgreesWithMonteCarloOnChain) {
  const auto nl = sp::netlist::inverter_chain(12);
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  const auto d = sp::sta::analyze_ssta(nl, m, spec);

  sp::stats::Rng rng(21);
  sp::sta::CharacterizeOptions co;
  co.mc_samples = 8000;
  const auto mc = sp::sta::characterize_mc(nl, m, spec, rng, co);

  EXPECT_NEAR(d.mu, mc.delay.mean, 0.02 * mc.delay.mean);
  EXPECT_NEAR(d.sigma(), mc.delay.sigma, 0.15 * mc.delay.sigma);
}

TEST(Ssta, AgreesWithMonteCarloOnDag) {
  const auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.0, 0.5);
  const auto d = sp::sta::analyze_ssta(nl, m, spec);

  sp::stats::Rng rng(22);
  sp::sta::CharacterizeOptions co;
  co.mc_samples = 4000;
  const auto mc = sp::sta::characterize_mc(nl, m, spec, rng, co);

  // Reconvergent fanout makes first-order SSTA approximate; require the
  // mean within 3% and sigma within 25%.
  EXPECT_NEAR(d.mu, mc.delay.mean, 0.03 * mc.delay.mean);
  EXPECT_NEAR(d.sigma(), mc.delay.sigma, 0.25 * mc.delay.sigma);
}

// ------------------------------------------------------------- batched SSTA

namespace {

// A K-point sizing grid around the netlist's current sizes, deterministic in
// (nl, k): lane k scales gate g by 0.6 + 0.1*((k + g) % 8).
std::vector<sp::sta::SstaConfig> sweep_grid(const sp::netlist::Netlist& nl,
                                            std::size_t k_lanes,
                                            const VariationSpec& spec) {
  std::vector<sp::sta::SstaConfig> cfgs(k_lanes);
  for (std::size_t k = 0; k < k_lanes; ++k) {
    cfgs[k].spec = spec;
    cfgs[k].sizes.resize(nl.size());
    for (std::size_t g = 0; g < nl.size(); ++g)
      cfgs[k].sizes[g] =
          nl.gate(g).size * (0.6 + 0.1 * static_cast<double>((k + g) % 8));
  }
  return cfgs;
}

void expect_bitwise_eq(const sp::sta::CanonicalDelay& a,
                       const sp::sta::CanonicalDelay& b) {
  EXPECT_EQ(a.mu, b.mu);
  EXPECT_EQ(a.b_inter, b.b_inter);
  EXPECT_EQ(a.sigma_ind, b.sigma_ind);
  EXPECT_EQ(a.b_sys, b.b_sys);
}

void expect_bitwise_eq(const sp::sta::StageCharacterization& a,
                       const sp::sta::StageCharacterization& b) {
  EXPECT_EQ(a.delay.mean, b.delay.mean);
  EXPECT_EQ(a.delay.sigma, b.delay.sigma);
  EXPECT_EQ(a.sigma_inter, b.sigma_inter);
  EXPECT_EQ(a.sigma_private, b.sigma_private);
  EXPECT_EQ(a.area, b.area);
  EXPECT_EQ(a.nominal_delay, b.nominal_delay);
}

}  // namespace

TEST(SstaBatch, GridBitwiseEqualsScalarRuns) {
  // The core invariant: a K>=8 sweep grid through SstaBatch is
  // bitwise-identical to K independent runs of the per-gate oracle.
  const auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  const auto cfgs = sweep_grid(nl, 9, spec);

  const auto batch = sp::sta::SstaBatch(nl, m).analyze(cfgs);
  ASSERT_EQ(batch.size(), cfgs.size());
  for (std::size_t k = 0; k < cfgs.size(); ++k) {
    auto work = nl;
    work.set_sizes(cfgs[k].sizes);
    expect_bitwise_eq(batch[k],
                      sp::ssta_oracle::analyze_ssta(work, m, cfgs[k].spec));
  }
}

TEST(SstaBatch, SingleLaneEqualsScalar) {
  const auto nl = sp::netlist::iscas_like("c880");
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.015, 0.010, 0.4);
  const auto cfgs = sweep_grid(nl, 1, spec);
  const auto batch = sp::sta::SstaBatch(nl, m).analyze(cfgs);
  auto work = nl;
  work.set_sizes(cfgs[0].sizes);
  expect_bitwise_eq(batch[0], sp::ssta_oracle::analyze_ssta(work, m, spec));
}

TEST(SstaBatch, EmptySizesUseNetlistSizes) {
  const auto nl = sp::netlist::inverter_chain(12);
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  std::vector<sp::sta::SstaConfig> cfgs(2);
  cfgs[0].spec = spec;
  cfgs[1].spec = VariationSpec::inter_only(0.040);
  const auto batch = sp::sta::SstaBatch(nl, m).analyze(cfgs);
  expect_bitwise_eq(batch[0],
                    sp::ssta_oracle::analyze_ssta(nl, m, cfgs[0].spec));
  expect_bitwise_eq(batch[1],
                    sp::ssta_oracle::analyze_ssta(nl, m, cfgs[1].spec));
}

TEST(SstaBatch, ZeroVarianceLaneIsDegenerateButExact) {
  // A degenerate all-zero-variance config rides in the same batch as live
  // lanes: its canonical form collapses to the deterministic delay.
  const auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  auto cfgs = sweep_grid(nl, 4, VariationSpec::inter_intra(0.020, 0.010, 0.5));
  VariationSpec frozen;  // every variation source off
  frozen.sigma_vth_inter = 0.0;
  frozen.sigma_vth_systematic = 0.0;
  frozen.enable_rdf = false;
  cfgs[2].spec = frozen;
  const auto batch = sp::sta::SstaBatch(nl, m).analyze(cfgs);
  for (std::size_t k = 0; k < cfgs.size(); ++k) {
    auto work = nl;
    work.set_sizes(cfgs[k].sizes);
    expect_bitwise_eq(batch[k],
                      sp::ssta_oracle::analyze_ssta(work, m, cfgs[k].spec));
  }
  EXPECT_EQ(batch[2].sigma(), 0.0);
  auto work = nl;
  work.set_sizes(cfgs[2].sizes);
  EXPECT_NEAR(batch[2].mu, sp::sta::analyze(work, m).critical_delay, 1e-9);
}

TEST(SstaBatch, CharacterizeBitwiseEqualsScalar) {
  const auto nl = sp::netlist::iscas_like("c499");
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  const auto cfgs = sweep_grid(nl, 8, spec);
  const auto chars = sp::sta::SstaBatch(nl, m).characterize(cfgs);
  for (std::size_t k = 0; k < cfgs.size(); ++k) {
    auto work = nl;
    work.set_sizes(cfgs[k].sizes);
    expect_bitwise_eq(
        chars[k], sp::ssta_oracle::characterize_ssta(work, m, cfgs[k].spec));
  }
}

TEST(SstaBatch, ResultIndependentOfShardingAndThreads) {
  // No RNG is involved, so any (samples_per_shard, threads) pair gives the
  // same lanes bitwise.
  const auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  const auto cfgs =
      sweep_grid(nl, 16, VariationSpec::inter_intra(0.020, 0.010, 0.5));
  const sp::sta::SstaBatch batch(nl, m);
  const auto serial = batch.analyze(cfgs, sp::sim::ExecutionOptions{1, 1024});
  const auto narrow = batch.analyze(cfgs, sp::sim::ExecutionOptions{0, 1});
  const auto chunky = batch.analyze(cfgs, sp::sim::ExecutionOptions{0, 3});
  for (std::size_t k = 0; k < cfgs.size(); ++k) {
    expect_bitwise_eq(serial[k], narrow[k]);
    expect_bitwise_eq(serial[k], chunky[k]);
  }
}

TEST(SstaBatch, RejectsBadConfigAndMissingOutputs) {
  const auto nl = sp::netlist::inverter_chain(4);
  const auto m = model();
  std::vector<sp::sta::SstaConfig> bad(1);
  bad[0].sizes = {1.0, 2.0};  // wrong length
  EXPECT_THROW(sp::sta::SstaBatch(nl, m).analyze(bad), std::invalid_argument);

  sp::netlist::Netlist empty("empty");
  empty.add_input("a");
  EXPECT_THROW(sp::sta::SstaBatch(empty, m), std::logic_error);
}

TEST(SstaBatch, EveryCallerEqualsOracleBitwise) {
  // Every SSTA entry point runs the one bound walk: analyze_ssta,
  // characterize_ssta and opt::stat_delay (one lane each) and SstaBatch at
  // 1 and 9 lanes all reproduce the per-gate oracle bit for bit, under a
  // live and a zero-variance spec.
  const auto m = model();
  VariationSpec frozen;  // every variation source off
  frozen.sigma_vth_inter = 0.0;
  frozen.sigma_vth_systematic = 0.0;
  frozen.enable_rdf = false;
  const std::vector<sp::netlist::Netlist> circuits = {
      sp::netlist::iscas_c17(), sp::netlist::iscas_like("c432"),
      sp::netlist::iscas_like("c3540")};
  for (const auto& nl : circuits) {
    for (const auto& spec :
         {VariationSpec::inter_intra(0.020, 0.010, 0.5), frozen}) {
      SCOPED_TRACE(nl.name() + (spec.enable_rdf ? " live" : " frozen"));
      const auto d = sp::ssta_oracle::analyze_ssta(nl, m, spec);
      expect_bitwise_eq(sp::sta::analyze_ssta(nl, m, spec), d);
      expect_bitwise_eq(sp::sta::characterize_ssta(nl, m, spec),
                        sp::ssta_oracle::characterize_ssta(nl, m, spec));
      EXPECT_EQ(sp::opt::stat_delay(nl, m, spec, 0.95),
                d.mu + sp::stats::normal_icdf(0.95) * d.sigma());

      const sp::sta::SstaBatch batch(nl, m);
      for (const std::size_t lanes : {std::size_t{1}, std::size_t{9}}) {
        const auto cfgs = sweep_grid(nl, lanes, spec);
        const auto a = batch.analyze(cfgs);
        const auto c = batch.characterize(cfgs);
        for (std::size_t k = 0; k < lanes; ++k) {
          auto work = nl;
          work.set_sizes(cfgs[k].sizes);
          expect_bitwise_eq(a[k], sp::ssta_oracle::analyze_ssta(work, m, spec));
          expect_bitwise_eq(c[k],
                            sp::ssta_oracle::characterize_ssta(work, m, spec));
        }
      }
    }
  }
}

// --------------------------------------------------------- characterization

TEST(Characterize, InterOnlySplitsAllSigmaToShared) {
  const auto nl = sp::netlist::inverter_chain(8);
  const auto m = model();
  sp::stats::Rng rng(31);
  sp::sta::CharacterizeOptions co;
  co.mc_samples = 4000;
  const auto c = sp::sta::characterize_mc(
      nl, m, VariationSpec::inter_only(0.040), rng, co);
  EXPECT_GT(c.sigma_inter, 0.0);
  EXPECT_NEAR(c.sigma_private / c.delay.sigma, 0.0, 0.1);
}

TEST(Characterize, IntraOnlySplitsAllSigmaToPrivate) {
  const auto nl = sp::netlist::inverter_chain(8);
  const auto m = model();
  sp::stats::Rng rng(32);
  sp::sta::CharacterizeOptions co;
  co.mc_samples = 4000;
  const auto c =
      sp::sta::characterize_mc(nl, m, VariationSpec::intra_only(), rng, co);
  EXPECT_EQ(c.sigma_inter, 0.0);
  EXPECT_NEAR(c.sigma_private, c.delay.sigma, 1e-12);
}

TEST(Characterize, SstaAndMcAgree) {
  const auto nl = sp::netlist::inverter_chain(10);
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  sp::stats::Rng rng(33);
  sp::sta::CharacterizeOptions co;
  co.mc_samples = 6000;
  const auto a = sp::sta::characterize_ssta(nl, m, spec, co);
  const auto b = sp::sta::characterize_mc(nl, m, spec, rng, co);
  EXPECT_NEAR(a.delay.mean, b.delay.mean, 0.02 * b.delay.mean);
  EXPECT_NEAR(a.delay.sigma, b.delay.sigma, 0.2 * b.delay.sigma);
  EXPECT_DOUBLE_EQ(a.area, b.area);
}

TEST(Characterize, LogicDepthReducesVariability) {
  // The paper's Fig. 5(a): with random intra-die variation only, deeper
  // logic averages out gate-level randomness.
  const auto m = model();
  const auto spec = VariationSpec::intra_only();
  sp::sta::CharacterizeOptions co;
  const auto shallow = sp::sta::characterize_ssta(
      sp::netlist::inverter_chain(5), m, spec, co);
  const auto deep = sp::sta::characterize_ssta(
      sp::netlist::inverter_chain(40), m, spec, co);
  EXPECT_GT(shallow.delay.sigma / shallow.delay.mean,
            deep.delay.sigma / deep.delay.mean);
}

TEST(Characterize, InterDieVariabilityFlatWithDepth) {
  // Fig. 5(a), inter-only series: variability independent of logic depth.
  const auto m = model();
  const auto spec = VariationSpec::inter_only(0.040);
  sp::sta::CharacterizeOptions co;
  const auto shallow = sp::sta::characterize_ssta(
      sp::netlist::inverter_chain(5), m, spec, co);
  const auto deep = sp::sta::characterize_ssta(
      sp::netlist::inverter_chain(40), m, spec, co);
  EXPECT_NEAR(shallow.delay.sigma / shallow.delay.mean,
              deep.delay.sigma / deep.delay.mean, 1e-6);
}
