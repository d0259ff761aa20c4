// Tests for the statistical sizer ([3]-style LR loop), the area-delay
// sweep, and the Fig.-9 global pipeline optimizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/characterized_pipeline.h"
#include "netlist/generators.h"
#include "opt/global_optimizer.h"
#include "opt/sizer.h"
#include "opt/sweep.h"
#include "sim/engine.h"
#include "sta/ssta.h"
#include "ssta_oracle.h"
#include "stats/gaussian.h"

namespace sp = statpipe;
using sp::device::AlphaPowerModel;
using sp::process::Technology;
using sp::process::VariationSpec;

namespace {

AlphaPowerModel model() { return AlphaPowerModel{Technology{}}; }

double stat_delay_of(const sp::netlist::Netlist& nl,
                     const AlphaPowerModel& m, const VariationSpec& spec,
                     double y) {
  return sp::opt::stat_delay(nl, m, spec, y);
}

}  // namespace

// ------------------------------------------------------------------- sizer

TEST(Sizer, MeetsRelaxedTargetOnChain) {
  auto nl = sp::netlist::inverter_chain(10);
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  const double d0 = stat_delay_of(nl, m, spec, 0.95);

  sp::opt::SizerOptions so;
  so.t_target = d0 * 1.2;  // relaxed: sizer should recover area
  so.yield_target = 0.95;
  const auto r = sp::opt::size_stage(nl, m, spec, so);
  EXPECT_TRUE(r.feasible);
  EXPECT_LE(r.stat_delay, so.t_target + so.tolerance_ps);
}

TEST(Sizer, TighterTargetCostsMoreArea) {
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);

  auto nl_fast = sp::netlist::iscas_like("c432");
  auto nl_slow = sp::netlist::iscas_like("c432");
  const double d0 = stat_delay_of(nl_fast, m, spec, 0.95);

  sp::opt::SizerOptions fast, slow;
  fast.t_target = d0 * 0.75;
  slow.t_target = d0 * 1.05;
  const auto rf = sp::opt::size_stage(nl_fast, m, spec, fast);
  const auto rs = sp::opt::size_stage(nl_slow, m, spec, slow);
  ASSERT_TRUE(rf.feasible);
  ASSERT_TRUE(rs.feasible);
  EXPECT_GT(rf.area, rs.area);
}

TEST(Sizer, InfeasibleTargetReportedHonestly) {
  auto nl = sp::netlist::inverter_chain(20);
  const auto m = model();
  const auto spec = VariationSpec::intra_only();
  sp::opt::SizerOptions so;
  so.t_target = 1.0;  // 20 FO1 delays can never fit in 1 ps
  const auto r = sp::opt::size_stage(nl, m, spec, so);
  EXPECT_FALSE(r.feasible);
  EXPECT_GT(r.stat_delay, so.t_target);
}

TEST(Sizer, SizesStayWithinBounds) {
  auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  sp::opt::SizerOptions so;
  so.t_target = stat_delay_of(nl, m, spec, 0.95) * 0.8;
  so.min_size = 0.5;
  so.max_size = 8.0;
  (void)sp::opt::size_stage(nl, m, spec, so);
  for (const auto& g : nl.gates()) {
    if (g.is_pseudo()) continue;
    EXPECT_GE(g.size, so.min_size - 1e-9);
    EXPECT_LE(g.size, so.max_size + 1e-9);
  }
}

TEST(Sizer, HigherYieldTargetNeedsMoreArea) {
  // The statistical effect of [3]: tightening yield from 80% to 99%
  // requires upsizing (z*sigma margin grows).
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  auto nl80 = sp::netlist::iscas_like("c432");
  auto nl99 = sp::netlist::iscas_like("c432");
  const double t = stat_delay_of(nl80, m, spec, 0.95) * 0.9;

  sp::opt::SizerOptions so80, so99;
  so80.t_target = so99.t_target = t;
  so80.yield_target = 0.80;
  so99.yield_target = 0.99;
  const auto r80 = sp::opt::size_stage(nl80, m, spec, so80);
  const auto r99 = sp::opt::size_stage(nl99, m, spec, so99);
  ASSERT_TRUE(r80.feasible);
  ASSERT_TRUE(r99.feasible);
  EXPECT_GT(r99.area, r80.area * 0.98);  // allow noise; typically strictly >
}

namespace {

/// Test-local replay of the sizer algorithm gate by gate on the nested
/// Netlist vectors: per iteration a padded-arrival walk with
/// Netlist::load_of, a separate oracle SSTA walk for the stat delay,
/// criticality back-propagation over Gate::fanins, and the size update
/// re-reading load_of — the per-gate reference size_stage's bound, fused
/// walk must match bitwise.
sp::opt::SizerResult oracle_size_stage(sp::netlist::Netlist& nl,
                                       const AlphaPowerModel& model,
                                       const VariationSpec& spec,
                                       const sp::opt::SizerOptions& opt) {
  using sp::netlist::GateId;
  const double z = sp::stats::normal_icdf(opt.yield_target);
  const double tau = model.technology().tau_ps;
  sp::sta::SstaOptions ssta_opt;
  ssta_opt.output_load = opt.output_load;
  const auto& topo = nl.topological_order();
  const double sqrt_depth = std::sqrt(
      static_cast<double>(std::max<std::size_t>(nl.depth(), 1)));

  double lambda_scale = 1.0;
  double best_stat = std::numeric_limits<double>::infinity();
  std::vector<double> best_sizes = nl.sizes();
  sp::opt::SizerResult result;
  for (std::size_t iter = 0; iter < opt.max_iterations; ++iter) {
    std::vector<double> arrival(nl.size(), 0.0);
    for (GateId id : topo) {
      const auto& g = nl.gate(id);
      if (g.is_pseudo()) continue;
      double in_arr = 0.0;
      for (GateId f : g.fanins) in_arr = std::max(in_arr, arrival[f]);
      const double load = nl.load_of(id, opt.output_load);
      const auto sig = model.delay_sigmas(g.kind, g.size, load, spec);
      arrival[id] = in_arr + model.nominal_delay(g.kind, g.size, load) +
                    z * sig.total() / sqrt_depth;
    }
    const auto d = sp::ssta_oracle::analyze_ssta(nl, model, spec, ssta_opt);
    const double ds = d.mu + z * d.sigma();
    ++result.iterations;

    const bool feas = ds <= opt.t_target + opt.tolerance_ps;
    const bool best_feas = best_stat <= opt.t_target + opt.tolerance_ps;
    const double area = nl.total_area();
    bool take = false;
    if (feas && best_feas)
      take = area < result.area;
    else if (feas != best_feas)
      take = feas;
    else
      take = ds < best_stat;
    if (take || result.iterations == 1) {
      best_stat = ds;
      result.area = area;
      best_sizes = nl.sizes();
    }
    if (std::abs(ds - opt.t_target) <= opt.tolerance_ps) break;

    const double violation = (ds - opt.t_target) / std::max(opt.t_target, 1.0);
    lambda_scale *= std::exp(std::clamp(2.0 * violation, -0.7, 0.7));
    lambda_scale = std::clamp(lambda_scale, 1e-4, 1e6);

    const double theta = opt.softmax_theta_ps;
    std::vector<double> w(nl.size(), 0.0);
    double amax = 0.0;
    for (GateId o : nl.outputs()) amax = std::max(amax, arrival[o]);
    double norm = 0.0;
    for (GateId o : nl.outputs()) norm += std::exp((arrival[o] - amax) / theta);
    for (GateId o : nl.outputs())
      w[o] += std::exp((arrival[o] - amax) / theta) / norm;
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const auto& g = nl.gate(*it);
      if (w[*it] <= 0.0 || g.fanins.empty()) continue;
      double fmax = 0.0;
      for (GateId f : g.fanins) fmax = std::max(fmax, arrival[f]);
      double fsum = 0.0;
      for (GateId f : g.fanins) fsum += std::exp((arrival[f] - fmax) / theta);
      for (GateId f : g.fanins)
        w[f] += w[*it] * std::exp((arrival[f] - fmax) / theta) / fsum;
    }

    for (GateId id : topo) {
      auto& g = nl.gate(id);
      if (g.is_pseudo()) continue;
      const auto& t = sp::device::traits(g.kind);
      const double load = nl.load_of(id, opt.output_load);
      double pred_cost = 0.0;
      for (GateId f : g.fanins) {
        const auto& pg = nl.gate(f);
        if (pg.is_pseudo()) continue;
        pred_cost += lambda_scale * w[f] * tau * t.logical_effort / pg.size;
      }
      const double x_star = std::sqrt(std::max(
          lambda_scale * w[id] * tau * std::max(load, 1e-6) /
              (t.area + pred_cost),
          1e-12));
      const double x_new = std::clamp(x_star, opt.min_size, opt.max_size);
      g.size = g.size * (1.0 - opt.damping) + x_new * opt.damping;
    }
  }

  nl.set_sizes(best_sizes);
  const auto final_d = sp::ssta_oracle::analyze_ssta(nl, model, spec, ssta_opt);
  result.delay = final_d.as_gaussian();
  result.stat_delay = final_d.mu + z * final_d.sigma();
  result.area = nl.total_area();
  result.feasible = result.stat_delay <= opt.t_target + opt.tolerance_ps;
  return result;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bitwise equality of two sizer runs: result fields and every size.
void expect_same_sizing(const sp::opt::SizerResult& a,
                        const sp::netlist::Netlist& nla,
                        const sp::opt::SizerResult& b,
                        const sp::netlist::Netlist& nlb,
                        const std::string& what) {
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(bits(a.area), bits(b.area)) << what;
  EXPECT_EQ(bits(a.stat_delay), bits(b.stat_delay)) << what;
  EXPECT_EQ(bits(a.delay.mean), bits(b.delay.mean)) << what;
  EXPECT_EQ(bits(a.delay.sigma), bits(b.delay.sigma)) << what;
  ASSERT_EQ(nla.size(), nlb.size()) << what;
  for (std::size_t i = 0; i < nla.size(); ++i)
    ASSERT_EQ(bits(nla.gate(i).size), bits(nlb.gate(i).size))
        << what << ", gate " << i;
}

}  // namespace

TEST(Sizer, MatchesPerGateOracleBitwise) {
  // The bound, fused-walk sizer against the per-gate replay: same
  // iterations, area, stat delay and sizes, bit for bit, over unreachable
  // (1e-3 ps), tight, near and relaxed targets and three yields.
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  const std::vector<sp::netlist::Netlist> stages = {
      sp::netlist::iscas_like("c432"), sp::netlist::iscas_like("c3540", 7),
      sp::netlist::inverter_chain(10)};
  for (const auto& stage : stages) {
    const double d0 = stat_delay_of(stage, m, spec, 0.95);
    for (const double t : {1e-3, 0.8 * d0, 0.95 * d0, 1.2 * d0}) {
      for (const double y : {0.8, 0.95, 0.99}) {
        sp::opt::SizerOptions so;
        so.t_target = t;
        so.yield_target = y;
        auto nl = stage;
        auto ref = stage;
        const auto r = sp::opt::size_stage(nl, m, spec, so);
        const auto o = oracle_size_stage(ref, m, spec, so);
        expect_same_sizing(r, nl, o, ref,
                           stage.name() + " t=" + std::to_string(t) +
                               " y=" + std::to_string(y));
      }
    }
  }
}

TEST(Sizer, ConcurrentCallsBitwiseInvariant) {
  // size_stage makes no pool calls, so independent calls run side by side
  // inside a parallel region: 4 copies of c3540 sized under the pool at a
  // thread cap of 1 and of 8 all equal one top-level call.
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  const auto stage = sp::netlist::iscas_like("c3540", 7);
  sp::opt::SizerOptions so;
  so.t_target = stat_delay_of(stage, m, spec, 0.95) * 0.9;
  so.max_iterations = 12;
  auto top = stage;
  const auto r_top = sp::opt::size_stage(top, m, spec, so);

  for (const std::size_t cap : {std::size_t{1}, std::size_t{8}}) {
    std::vector<sp::netlist::Netlist> nls(4, stage);
    std::vector<sp::opt::SizerResult> rs(4);
    sp::sim::parallel_for(
        nls.size(),
        [&](std::size_t i) { rs[i] = sp::opt::size_stage(nls[i], m, spec, so); },
        cap);
    for (std::size_t i = 0; i < nls.size(); ++i)
      expect_same_sizing(rs[i], nls[i], r_top, top,
                         "cap " + std::to_string(cap) + " copy " +
                             std::to_string(i));
  }
}

TEST(Sizer, ZeroIterationsReportsUnchangedStage) {
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  auto nl = sp::netlist::iscas_like("c432");
  const auto before = nl.sizes();
  sp::opt::SizerOptions so;
  so.max_iterations = 0;
  so.output_load = 3.0;
  const auto r = sp::opt::size_stage(nl, m, spec, so);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_EQ(nl.sizes(), before);
  sp::sta::SstaOptions ssta_opt;
  ssta_opt.output_load = so.output_load;
  const auto d = sp::ssta_oracle::analyze_ssta(nl, m, spec, ssta_opt);
  EXPECT_EQ(bits(r.delay.mean), bits(d.mu));
  EXPECT_EQ(bits(r.delay.sigma), bits(d.sigma()));
  EXPECT_EQ(bits(r.area), bits(nl.total_area()));
  EXPECT_EQ(bits(r.stat_delay),
            bits(sp::opt::stat_delay(nl, m, spec, so.yield_target,
                                     so.output_load)));
}

TEST(Sizer, NoPrimaryOutputsThrowsBeforeSizing) {
  sp::netlist::Netlist nl("no_outputs");
  const auto a = nl.add_input("a");
  const auto g1 = nl.add_gate("g1", sp::device::GateKind::kNot, {a}, 2.0);
  (void)nl.add_gate("g2", sp::device::GateKind::kNot, {g1}, 3.0);
  const auto before = nl.sizes();
  const auto m = model();
  sp::opt::SizerOptions so;
  so.t_target = 1.0;
  EXPECT_THROW(sp::opt::size_stage(nl, m, VariationSpec::intra_only(), so),
               std::logic_error);
  EXPECT_EQ(nl.sizes(), before);
}

TEST(Sizer, StatDelayEqualsScalarSstaOfResult) {
  // SizerResult::stat_delay is the contract callers lean on instead of
  // re-running SSTA: bitwise stat_delay() of the returned netlist, at the
  // default and at a non-default output load.
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  for (const double out_load : {2.0, 5.5}) {
    auto nl = sp::netlist::iscas_like("c432");
    sp::opt::SizerOptions so;
    so.output_load = out_load;
    so.yield_target = 0.9;
    so.t_target = sp::opt::stat_delay(nl, m, spec, 0.9, out_load) * 0.85;
    const auto r = sp::opt::size_stage(nl, m, spec, so);
    EXPECT_EQ(bits(r.stat_delay),
              bits(sp::opt::stat_delay(nl, m, spec, so.yield_target,
                                       out_load)))
        << "output_load " << out_load;
  }
}

TEST(Sizer, RejectsBadOptions) {
  auto nl = sp::netlist::inverter_chain(4);
  const auto m = model();
  const auto spec = VariationSpec::intra_only();
  sp::opt::SizerOptions so;
  so.yield_target = 1.5;
  EXPECT_THROW(sp::opt::size_stage(nl, m, spec, so), std::invalid_argument);
  so.yield_target = 0.9;
  so.min_size = -1.0;
  EXPECT_THROW(sp::opt::size_stage(nl, m, spec, so), std::invalid_argument);
}

// ------------------------------------------------------------------- sweep

TEST(Sweep, ProducesMonotoneCurve) {
  auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  sp::opt::SweepOptions so;
  so.points = 8;
  const auto r = sp::opt::area_delay_sweep(nl, m, spec, so);
  const auto& pts = r.curve.points();
  ASSERT_GE(pts.size(), 2u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].delay, pts[i - 1].delay);
    EXPECT_LT(pts[i].area, pts[i - 1].area);
  }
  // Netlist left at the fastest point.
  EXPECT_NEAR(stat_delay_of(nl, m, spec, so.yield_target),
              pts.front().delay, 0.5);
}

TEST(Sweep, RejectsDegenerateOptions) {
  auto nl = sp::netlist::inverter_chain(4);
  const auto m = model();
  sp::opt::SweepOptions so;
  so.points = 1;
  EXPECT_THROW(
      sp::opt::area_delay_sweep(nl, m, VariationSpec::intra_only(), so),
      std::invalid_argument);
}

// -------------------------------------------------------- global optimizer

namespace {

struct PipelineFixture {
  std::vector<sp::netlist::Netlist> stages;
  AlphaPowerModel m{Technology{}};
  VariationSpec spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  sp::device::LatchModel latch{{}, m};

  PipelineFixture() {
    // A small 3-stage pipeline: two c432-like stages and a chain stage.
    stages.push_back(sp::netlist::iscas_like("c432", 1));
    stages.push_back(sp::netlist::inverter_grid(4, 12));
    stages.push_back(sp::netlist::iscas_like("c432", 2));
  }
  std::vector<sp::netlist::Netlist*> ptrs() {
    std::vector<sp::netlist::Netlist*> v;
    for (auto& s : stages) v.push_back(&s);
    return v;
  }
};

}  // namespace

TEST(GlobalOpt, IndividualOptimizationMeetsPerStageYield) {
  PipelineFixture f;
  sp::opt::GlobalPipelineOptimizer go(f.ptrs(), f.m, f.spec, f.latch);

  // Pick a reachable target: 15% above the slowest stage's fastest point.
  double t = 0.0;
  for (auto& s : f.stages) {
    auto nl = s;  // copy: probe without disturbing
    sp::opt::SizerOptions so;
    so.t_target = 1e-3;
    (void)sp::opt::size_stage(nl, f.m, f.spec, so);
    t = std::max(t, sp::opt::stat_delay(nl, f.m, f.spec, 0.95));
  }
  const double t_target = t * 1.15 + f.latch.timing().nominal_overhead();

  const auto pipe = go.optimize_individually(t_target, 0.80);
  // Every stage should meet its per-stage yield (0.8^(1/3) = 0.928) w.r.t.
  // the target, within modeling slack.
  for (std::size_t i = 0; i < pipe.stage_count(); ++i)
    EXPECT_GT(pipe.stage_delay(i).cdf(t_target), 0.85) << "stage " << i;
}

TEST(GlobalOpt, EnsureYieldLiftsPipelineYield) {
  PipelineFixture f;
  sp::opt::GlobalPipelineOptimizer go(f.ptrs(), f.m, f.spec, f.latch);

  double t = 0.0;
  for (auto& s : f.stages) {
    auto nl = s;
    sp::opt::SizerOptions so;
    so.t_target = 1e-3;
    (void)sp::opt::size_stage(nl, f.m, f.spec, so);
    t = std::max(t, sp::opt::stat_delay(nl, f.m, f.spec, 0.95));
  }
  const double t_target = t * 1.12 + f.latch.timing().nominal_overhead();

  (void)go.optimize_individually(t_target, 0.80);

  sp::opt::GlobalOptimizerOptions opt;
  opt.t_target = t_target;
  opt.yield_target = 0.80;
  opt.mode = sp::opt::OptimizationMode::kEnsureYield;
  opt.sweep.points = 6;
  const auto r = go.optimize(opt);

  EXPECT_GE(r.pipeline_yield_after, r.pipeline_yield_before - 1e-9);
  EXPECT_GE(r.pipeline_yield_after, 0.80 - 0.02);
  ASSERT_EQ(r.stages.size(), 3u);
}

TEST(GlobalOpt, MinimizeAreaKeepsYield) {
  PipelineFixture f;
  sp::opt::GlobalPipelineOptimizer go(f.ptrs(), f.m, f.spec, f.latch);

  double t = 0.0;
  for (auto& s : f.stages) {
    auto nl = s;
    sp::opt::SizerOptions so;
    so.t_target = 1e-3;
    (void)sp::opt::size_stage(nl, f.m, f.spec, so);
    t = std::max(t, sp::opt::stat_delay(nl, f.m, f.spec, 0.95));
  }
  // Generous target so there is clear slack to convert into area savings.
  const double t_target = t * 1.35 + f.latch.timing().nominal_overhead();

  // Baseline: individually optimized with extra-conservative per-stage
  // yields (the paper's Table III baseline has stages at 94-95%).
  sp::opt::SizerOptions so;
  (void)go.optimize_individually(t_target, 0.95);
  const auto before = go.current_model();
  const double area_before = before.total_area();
  ASSERT_GE(before.yield(t_target), 0.80);

  sp::opt::GlobalOptimizerOptions opt;
  opt.t_target = t_target;
  opt.yield_target = 0.80;
  opt.mode = sp::opt::OptimizationMode::kMinimizeArea;
  opt.sweep.points = 6;
  const auto r = go.optimize(opt);

  EXPECT_GE(r.pipeline_yield_after, 0.80 - 0.02);
  EXPECT_LE(r.total_area_after, area_before + 1e-6);
}

TEST(GlobalOpt, RejectsBadConstruction) {
  PipelineFixture f;
  EXPECT_THROW(
      sp::opt::GlobalPipelineOptimizer({}, f.m, f.spec, f.latch),
      std::invalid_argument);
  std::vector<sp::netlist::Netlist*> with_null = f.ptrs();
  with_null.push_back(nullptr);
  EXPECT_THROW(
      sp::opt::GlobalPipelineOptimizer(with_null, f.m, f.spec, f.latch),
      std::invalid_argument);
}

TEST(GlobalOpt, LatchOverheadExceedingTargetThrows) {
  PipelineFixture f;
  sp::opt::GlobalPipelineOptimizer go(f.ptrs(), f.m, f.spec, f.latch);
  EXPECT_THROW(go.optimize_individually(10.0, 0.80), std::invalid_argument);
  sp::opt::GlobalOptimizerOptions opt;
  opt.t_target = 10.0;  // less than Tc-q + Tsetup
  EXPECT_THROW(go.optimize(opt), std::invalid_argument);
}
