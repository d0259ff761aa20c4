// Shared fixture for the Table II / Table III benches: the paper's 4-stage
// pipeline whose stages are ISCAS85 benchmark circuits (c3540, c2670,
// c1908 — the paper's "c1980" is the well-known typo — and c432), here
// synthesized to the published statistics (see DESIGN.md substitutions).
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "device/latch.h"
#include "netlist/generators.h"
#include "opt/global_optimizer.h"
#include "opt/sizer.h"
#include "sim/engine.h"

namespace iscas_pipeline {

namespace sp = statpipe;

struct Fixture {
  std::vector<sp::netlist::Netlist> stages;
  sp::device::AlphaPowerModel model{sp::process::Technology{}};
  // Intra-dominant mix: the paper's Tables II/III behave multiplicatively
  // (pipeline yield ~ product of stage yields, e.g. 0.86*0.95^3 = 0.74),
  // which requires stage delays to be close to independent.
  sp::process::VariationSpec spec =
      sp::process::VariationSpec::inter_intra(0.005, 0.020, 0.3);
  sp::device::LatchModel latch{{}, model};

  Fixture() {
    for (const char* name : {"c3540", "c2670", "c1908", "c432"})
      stages.push_back(sp::netlist::iscas_like(name));
  }

  std::vector<sp::netlist::Netlist*> ptrs() {
    std::vector<sp::netlist::Netlist*> v;
    for (auto& s : stages) v.push_back(&s);
    return v;
  }

  /// Fastest reachable per-stage statistical delay (sizing probe on
  /// copies), used to pick a pipeline target with the desired tightness.
  double fastest_stage_stat_delay(double yield) {
    return slowest_stage_fastest_gaussian(yield).first;
  }

  /// (stat delay, SSTA Gaussian) of the slowest stage at its fastest
  /// sizing — lets a bench place the target at an exact achievable yield
  /// for that stage: T = mu + Phi^-1(y)*sigma.  The probes size independent
  /// copies concurrently; the selection runs serially in stage order.
  std::pair<double, sp::stats::Gaussian> slowest_stage_fastest_gaussian(
      double yield) {
    std::vector<sp::opt::SizerResult> probes(stages.size());
    sp::sim::parallel_for(stages.size(), [&](std::size_t i) {
      auto copy = stages[i];
      sp::opt::SizerOptions so;
      so.t_target = 1e-3;
      so.yield_target = yield;
      probes[i] = sp::opt::size_stage(copy, model, spec, so);
    });
    double worst = 0.0;
    sp::stats::Gaussian g{};
    for (const auto& r : probes) {
      if (r.stat_delay > worst) {
        worst = r.stat_delay;
        g = r.delay;
      }
    }
    return {worst, g};
  }
};

/// Prints one paper-style table: per-stage area%% (of baseline total) and
/// per-stage yield, for baseline and optimized designs side by side.
inline void print_table(const sp::opt::GlobalOptimizerResult& r,
                        double area_norm) {
  bench_util::row({"stage", "base A%", "base Y%", "opt A%", "opt Y%",
                   "R_i", "role"},
                  11);
  for (const auto& s : r.stages) {
    bench_util::row(
        {s.name, bench_util::fmt(100.0 * s.area_before / area_norm, 1),
         bench_util::fmt(100.0 * s.yield_before, 1),
         bench_util::fmt(100.0 * s.area_after / area_norm, 1),
         bench_util::fmt(100.0 * s.yield_after, 1),
         bench_util::fmt(s.elasticity, 2),
         s.chosen_for_speedup ? "speedup" : "area-save"},
        11);
  }
  bench_util::row({"Pipeline:",
                   bench_util::fmt(100.0 * r.total_area_before / area_norm, 1),
                   bench_util::fmt(100.0 * r.pipeline_yield_before, 1),
                   bench_util::fmt(100.0 * r.total_area_after / area_norm, 1),
                   bench_util::fmt(100.0 * r.pipeline_yield_after, 1)},
                  11);
}

}  // namespace iscas_pipeline
