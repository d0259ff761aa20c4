// Ablation of the paper's section-4 complexity claim: the divide-and-
// conquer global flow (one stage sized at a time, incremental pipeline
// timing — O(m n^2)) vs sizing the whole pipeline simultaneously
// (O(m^2 n^2) in the paper's accounting).  Not a table in the paper; this
// quantifies the design decision DESIGN.md calls out.
//
// For growing stage counts m we run both solvers to the same yield target
// and report wall time, achieved area and yield.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "netlist/generators.h"
#include "opt/global_optimizer.h"
#include "opt/simultaneous.h"

namespace sp = statpipe;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  bench_util::banner(
      "Ablation (section 4 complexity claim)",
      "Divide-and-conquer global flow vs simultaneous whole-pipeline "
      "sizing");

  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  const sp::device::LatchModel latch{{}, model};
  const auto spec = sp::process::VariationSpec::inter_intra(0.005, 0.020, 0.3);

  bench_util::row({"stages", "method", "time[ms]", "area", "yield"}, 14);
  bench_util::csv_begin(
      "ablation", "stages,method,time_ms,area,yield");

  for (std::size_t m : {2, 3, 4}) {
    // Fresh identical pipelines for both methods.
    auto make_stages = [&] {
      std::vector<sp::netlist::Netlist> s;
      for (std::size_t i = 0; i < m; ++i)
        s.push_back(sp::netlist::iscas_like("c880", 60 + i));
      return s;
    };

    // Common target: 8% over the slowest stage's probed limit.
    double worst = 0.0;
    {
      auto probe = make_stages();
      for (auto& s : probe) {
        sp::opt::SizerOptions so;
        so.t_target = 1e-3;
        worst = std::max(worst,
                         sp::opt::size_stage(s, model, spec, so).stat_delay);
      }
    }
    const double t_target =
        worst * 1.08 + latch.timing().nominal_overhead();

    // ---- divide-and-conquer (the paper's flow).
    {
      auto stages = make_stages();
      std::vector<sp::netlist::Netlist*> ptrs;
      for (auto& s : stages) ptrs.push_back(&s);
      sp::opt::GlobalPipelineOptimizer go(ptrs, model, spec, latch);
      const auto t0 = std::chrono::steady_clock::now();
      (void)go.optimize_individually(t_target, 0.80);
      sp::opt::GlobalOptimizerOptions opt;
      opt.t_target = t_target;
      opt.yield_target = 0.80;
      opt.mode = sp::opt::OptimizationMode::kEnsureYield;
      opt.sweep.points = 5;
      const auto r = go.optimize(opt);
      const double ms = ms_since(t0);
      std::printf("%zu,divide-and-conquer,%.1f,%.1f,%.4f\n", m, ms,
                  r.total_area_after, r.pipeline_yield_after);
    }

    // ---- simultaneous joint sizing.
    {
      auto stages = make_stages();
      std::vector<sp::netlist::Netlist*> ptrs;
      for (auto& s : stages) ptrs.push_back(&s);
      const auto t0 = std::chrono::steady_clock::now();
      sp::opt::SimultaneousOptions so;
      so.t_target = t_target;
      so.yield_target = 0.80;
      so.sizer.max_iterations = 80;
      const auto r =
          sp::opt::size_pipeline_simultaneous(ptrs, model, spec, latch, so);
      const double ms = ms_since(t0);
      std::printf("%zu,simultaneous,%.1f,%.1f,%.4f\n", m, ms, r.area,
                  r.pipeline_yield);
    }
  }
  bench_util::csv_end();

  std::printf(
      "\nReading (honest): both methods scale ~linearly in stage count here\n"
      "and reach comparable designs; divide-and-conquer spends extra time\n"
      "on curve sweeps + per-stage bisection but lands at or above the\n"
      "yield goal more reliably.  The paper's O(m n^2) vs O(m^2 n^2) gap\n"
      "presumes the inner LR solve is O(n^2); our inner solver is\n"
      "O(n * iterations), which compresses the asymptotic difference.\n");
  return 0;
}
