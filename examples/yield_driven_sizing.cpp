// Yield-driven gate sizing of a complete pipeline (paper section 4 /
// Fig. 9): start from independently sized stages, then run the global
// optimizer to either lift the pipeline to a yield target or recover area
// at a fixed yield.
//
// Build & run:  ./build/examples/yield_driven_sizing [ensure|minarea]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "netlist/generators.h"
#include "opt/global_optimizer.h"

namespace sp = statpipe;

int main(int argc, char** argv) {
  const bool min_area = argc > 1 && std::strcmp(argv[1], "minarea") == 0;

  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  const sp::device::LatchModel latch{{}, model};
  const auto spec = sp::process::VariationSpec::inter_intra(0.005, 0.020, 0.3);

  // A 3-stage pipeline of moderate-size synthesized circuits.
  std::vector<sp::netlist::Netlist> stages;
  stages.push_back(sp::netlist::iscas_like("c880", 31));
  stages.push_back(sp::netlist::iscas_like("c499", 32));
  stages.push_back(sp::netlist::iscas_like("c432", 33));
  std::vector<sp::netlist::Netlist*> ptrs;
  for (auto& s : stages) ptrs.push_back(&s);

  sp::opt::GlobalPipelineOptimizer go(ptrs, model, spec, latch);

  // Pick a clock target ~10% over the slowest stage's probed speed limit.
  double worst = 0.0;
  for (auto& s : stages) {
    auto copy = s;
    sp::opt::SizerOptions so;
    so.t_target = 1e-3;
    worst = std::max(worst,
                     sp::opt::size_stage(copy, model, spec, so).stat_delay);
  }
  const double t_target =
      worst * (min_area ? 1.06 : 1.10) + latch.timing().nominal_overhead();
  std::printf("clock target: %.1f ps\n", t_target);

  // Phase 1: conventional flow — each stage sized alone for Y^(1/N).
  const auto base = go.optimize_individually(t_target, 0.80);
  std::printf("individually optimized: area %.1f, pipeline yield %.1f%%\n",
              base.total_area(), 100.0 * base.yield(t_target));

  // Phase 2: the global Fig.-9 flow.
  sp::opt::GlobalOptimizerOptions opt;
  opt.t_target = t_target;
  opt.yield_target = 0.80;
  opt.mode = min_area ? sp::opt::OptimizationMode::kMinimizeArea
                      : sp::opt::OptimizationMode::kEnsureYield;
  opt.sweep.points = 6;
  const auto r = go.optimize(opt);

  std::printf("\n%-8s %10s %10s %10s %10s %8s\n", "stage", "area0", "yield0",
              "area1", "yield1", "R_i");
  for (const auto& s : r.stages)
    std::printf("%-8s %10.1f %9.1f%% %10.1f %9.1f%% %8.2f\n", s.name.c_str(),
                s.area_before, 100.0 * s.yield_before, s.area_after,
                100.0 * s.yield_after, s.elasticity);
  std::printf("%-8s %10.1f %9.1f%% %10.1f %9.1f%%\n", "pipeline",
              r.total_area_before, 100.0 * r.pipeline_yield_before,
              r.total_area_after, 100.0 * r.pipeline_yield_after);
  std::printf("\nmode: %s — rerun with '%s' for the other objective\n",
              min_area ? "minimize area at 80% yield"
                       : "ensure 80% yield at minimum area cost",
              min_area ? "ensure" : "minarea");
  return 0;
}
