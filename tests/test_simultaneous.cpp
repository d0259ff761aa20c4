// Tests for the simultaneous whole-pipeline sizer (the section-4 ablation
// reference).
#include <gtest/gtest.h>

#include "core/characterized_pipeline.h"
#include "netlist/generators.h"
#include "opt/simultaneous.h"
#include "opt/sizer.h"

namespace sp = statpipe;

namespace {

struct Env {
  sp::device::AlphaPowerModel model{sp::process::Technology{}};
  sp::device::LatchModel latch{{}, model};
  sp::process::VariationSpec spec =
      sp::process::VariationSpec::inter_intra(0.005, 0.020, 0.3);

  std::vector<sp::netlist::Netlist> stages;
  std::vector<sp::netlist::Netlist*> ptrs;

  explicit Env(std::size_t m) {
    for (std::size_t i = 0; i < m; ++i)
      stages.push_back(sp::netlist::iscas_like("c499", 70 + i));
    for (auto& s : stages) ptrs.push_back(&s);
  }

  double reachable_target(double slack) {
    double worst = 0.0;
    for (auto& s : stages) {
      auto copy = s;
      sp::opt::SizerOptions so;
      so.t_target = 1e-3;
      (void)sp::opt::size_stage(copy, model, spec, so);
      worst = std::max(worst, sp::opt::stat_delay(copy, model, spec, 0.95));
    }
    return worst * slack + latch.timing().nominal_overhead();
  }
};

}  // namespace

TEST(Simultaneous, MeetsReachableYieldTarget) {
  Env e(3);
  sp::opt::SimultaneousOptions so;
  so.t_target = e.reachable_target(1.15);
  so.yield_target = 0.80;
  const auto r = sp::opt::size_pipeline_simultaneous(e.ptrs, e.model, e.spec,
                                                     e.latch, so);
  EXPECT_TRUE(r.feasible);
  EXPECT_GE(r.pipeline_yield, 0.80 - 1e-9);
  EXPECT_GT(r.iterations, 0u);
}

TEST(Simultaneous, InfeasibleTargetReportedHonestly) {
  Env e(2);
  sp::opt::SimultaneousOptions so;
  so.t_target = e.latch.timing().nominal_overhead() + 1.0;  // impossible
  so.yield_target = 0.80;
  const auto r = sp::opt::size_pipeline_simultaneous(e.ptrs, e.model, e.spec,
                                                     e.latch, so);
  EXPECT_FALSE(r.feasible);
  EXPECT_LT(r.pipeline_yield, 0.80);
}

TEST(Simultaneous, TighterTargetCostsMoreArea) {
  Env tight(2), loose(2);
  const double t_fast = tight.reachable_target(1.06);
  const double t_slow = tight.reachable_target(1.40);

  sp::opt::SimultaneousOptions so;
  so.yield_target = 0.80;
  so.t_target = t_fast;
  const auto rf = sp::opt::size_pipeline_simultaneous(
      tight.ptrs, tight.model, tight.spec, tight.latch, so);
  so.t_target = t_slow;
  const auto rs = sp::opt::size_pipeline_simultaneous(
      loose.ptrs, loose.model, loose.spec, loose.latch, so);
  ASSERT_TRUE(rf.feasible);
  ASSERT_TRUE(rs.feasible);
  EXPECT_GT(rf.area, rs.area);
}

TEST(Simultaneous, SizesWithinBounds) {
  Env e(2);
  sp::opt::SimultaneousOptions so;
  so.t_target = e.reachable_target(1.10);
  so.sizer.min_size = 0.5;
  so.sizer.max_size = 10.0;
  (void)sp::opt::size_pipeline_simultaneous(e.ptrs, e.model, e.spec, e.latch,
                                            so);
  for (const auto& s : e.stages)
    for (const auto& g : s.gates()) {
      if (g.is_pseudo()) continue;
      EXPECT_GE(g.size, so.sizer.min_size - 1e-9);
      EXPECT_LE(g.size, so.sizer.max_size + 1e-9);
    }
}

TEST(Simultaneous, RejectsBadInputs) {
  Env e(2);
  sp::opt::SimultaneousOptions so;
  so.yield_target = 1.2;
  EXPECT_THROW(sp::opt::size_pipeline_simultaneous(e.ptrs, e.model, e.spec,
                                                   e.latch, so),
               std::invalid_argument);
  std::vector<sp::netlist::Netlist*> empty;
  so.yield_target = 0.8;
  EXPECT_THROW(sp::opt::size_pipeline_simultaneous(empty, e.model, e.spec,
                                                   e.latch, so),
               std::invalid_argument);

  // Bad sizer knobs are rejected before any size changes: damping 0 would
  // run every iteration without moving a size, 1.9 would drive sizes
  // negative mid-solve.
  const auto h0 = e.stages[0].structural_hash();
  const auto h1 = e.stages[1].structural_hash();
  for (const auto& [damping, min_size] :
       {std::pair{0.0, 0.5}, std::pair{1.9, 0.5}, std::pair{0.5, 0.0}}) {
    sp::opt::SimultaneousOptions bad;
    bad.t_target = 1000.0;
    bad.sizer.damping = damping;
    bad.sizer.min_size = min_size;
    EXPECT_THROW(sp::opt::size_pipeline_simultaneous(e.ptrs, e.model, e.spec,
                                                     e.latch, bad),
                 std::invalid_argument)
        << "damping " << damping << " min_size " << min_size;
  }
  EXPECT_EQ(e.stages[0].structural_hash(), h0);
  EXPECT_EQ(e.stages[1].structural_hash(), h1);
}

TEST(Simultaneous, PinnedResultBitwise) {
  // Golden pin of one solve, captured when each iteration rebuilt the
  // pipeline model with core::build_pipeline_ssta and walked every Netlist
  // again for the padded arrivals: the fused per-stage walk must reproduce
  // the iteration count, area and yield (hexfloats) and every final size
  // (structural_hash folds each size's bits).
  Env e(2);
  sp::opt::SimultaneousOptions so;
  so.t_target = e.reachable_target(1.10);
  so.yield_target = 0.80;
  ASSERT_EQ(so.t_target, 0x1.3273ae51cec5fp+8);
  const auto r = sp::opt::size_pipeline_simultaneous(e.ptrs, e.model, e.spec,
                                                     e.latch, so);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.iterations, 60u);
  EXPECT_EQ(r.area, 0x1.ef3ffa598aee8p+9);
  EXPECT_EQ(r.pipeline_yield, 0x1.bd78a9e4e914ap-1);
  EXPECT_EQ(e.stages[0].structural_hash(), 0xe68c754ce8f769d3ULL);
  EXPECT_EQ(e.stages[1].structural_hash(), 0x9b15555074a5be95ULL);
}

TEST(Simultaneous, ZeroIterationsReportsUnchangedPipeline) {
  // max_iterations == 0 leaves every size alone and reports the pipeline
  // model of the unchanged stages.
  Env e(2);
  const auto before0 = e.stages[0].structural_hash();
  const auto before1 = e.stages[1].structural_hash();
  std::vector<const sp::netlist::Netlist*> views(e.ptrs.begin(),
                                                 e.ptrs.end());
  const auto pipe =
      sp::core::build_pipeline_ssta(views, e.model, e.spec, e.latch);
  sp::opt::SimultaneousOptions so;
  so.t_target = e.reachable_target(1.10);
  so.sizer.max_iterations = 0;
  const auto r = sp::opt::size_pipeline_simultaneous(e.ptrs, e.model, e.spec,
                                                     e.latch, so);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_EQ(r.area, pipe.total_area());
  EXPECT_EQ(r.pipeline_yield, pipe.yield(so.t_target));
  EXPECT_EQ(e.stages[0].structural_hash(), before0);
  EXPECT_EQ(e.stages[1].structural_hash(), before1);
}
