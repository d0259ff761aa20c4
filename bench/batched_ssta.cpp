// One bind per grid vs one bind per config — the SSTA walk's lane batching
// on the optimizer's inner loop.
//
// Workload: the sizer's characteristic access pattern — one stage netlist,
// K candidate size assignments (a sweep grid), full SSTA characterization
// per candidate.  Both modes run the same bound lane walk (sta::SstaBatch).
// The per-config loop copies the netlist, binds it and walks one lane per
// candidate (characterize_ssta); the batch binds the structure once and
// propagates all K canonical-form lanes in one walk.
//
// Prints per-circuit timings (best of kReps) for:
//   per-config-1t : copy + characterize_ssta (bind + one lane) per config,
//                   serial
//   per-config-Nt : same, fanned out over the shared pool
//   batch-1t      : SstaBatch::characterize, one shard
//   batch-Nt      : SstaBatch::characterize, sharded over the pool
// and verifies the batch results are bitwise-equal to the per-config loop
// (K lanes in one walk against one lane per walk); exits nonzero if not.
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "netlist/generators.h"
#include "sim/engine.h"
#include "sta/characterize.h"
#include "sta/ssta_batch.h"

namespace sp = statpipe;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kLanes = 32;
constexpr int kReps = 5;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::vector<sp::sta::SstaConfig> make_grid(const sp::netlist::Netlist& nl,
                                           const sp::process::VariationSpec& spec) {
  std::vector<sp::sta::SstaConfig> cfgs(kLanes);
  for (std::size_t k = 0; k < kLanes; ++k) {
    cfgs[k].spec = spec;
    cfgs[k].sizes.resize(nl.size());
    for (std::size_t g = 0; g < nl.size(); ++g)
      cfgs[k].sizes[g] =
          nl.gate(g).size * (0.6 + 0.1 * static_cast<double>((k + g) % 8));
  }
  return cfgs;
}

template <typename Fn>
double best_of(Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, ms_since(t0));
  }
  return best;
}

bool bitwise_eq(const sp::sta::StageCharacterization& a,
                const sp::sta::StageCharacterization& b) {
  return a.delay.mean == b.delay.mean && a.delay.sigma == b.delay.sigma &&
         a.sigma_inter == b.sigma_inter && a.sigma_private == b.sigma_private &&
         a.area == b.area && a.nominal_delay == b.nominal_delay;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  try {
    json_path = bench_util::take_json_arg(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "batched_ssta: %s\n", e.what());
    return EXIT_FAILURE;
  }
  bench_util::banner(
      "batched_ssta",
      "SSTA characterization, one bind per K=32 grid vs one per config");

  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  const auto spec = sp::process::VariationSpec::inter_intra(0.020, 0.010, 0.5);

  bench_util::JsonReport report("batched_ssta");
  report.meta("lanes", static_cast<double>(kLanes));

  bench_util::row({"circuit", "gates", "per-config-1t", "per-config-Nt",
                   "batch-1t", "batch-Nt", "speedup", "bitwise"});
  bench_util::csv_begin("batched_ssta",
                        "circuit,gates,per_config_1t_ms,per_config_nt_ms,"
                        "batch_1t_ms,batch_nt_ms,speedup_nt,bitwise_equal");

  bool all_equal = true;
  bool all_faster = true;
  for (const char* name : {"c432", "c1908", "c3540", "c6288"}) {
    const auto nl = sp::netlist::iscas_like(name);
    (void)nl.topological_order();
    const auto cfgs = make_grid(nl, spec);

    std::vector<sp::sta::StageCharacterization> per_config(kLanes);
    const double per_config_1t = best_of([&] {
      for (std::size_t k = 0; k < kLanes; ++k) {
        sp::netlist::Netlist work = nl;
        work.set_sizes(cfgs[k].sizes);
        per_config[k] = sp::sta::characterize_ssta(work, model, spec);
      }
    });
    const double per_config_nt = best_of([&] {
      sp::sim::parallel_for(kLanes, [&](std::size_t k) {
        sp::netlist::Netlist work = nl;
        work.set_sizes(cfgs[k].sizes);
        per_config[k] = sp::sta::characterize_ssta(work, model, spec);
      });
    });

    const sp::sta::SstaBatch batch(nl, model);
    std::vector<sp::sta::StageCharacterization> batched;
    const double batch_1t = best_of([&] {
      batched = batch.characterize(cfgs, sp::sim::ExecutionOptions{1, kLanes});
    });
    const double batch_nt = best_of(
        [&] { batched = batch.characterize(cfgs); });

    bool equal = true;
    for (std::size_t k = 0; k < kLanes; ++k)
      equal = equal && bitwise_eq(per_config[k], batched[k]);
    all_equal = all_equal && equal;
    const double speedup = per_config_nt / batch_nt;
    all_faster = all_faster && batch_nt < per_config_nt;

    bench_util::row({name, std::to_string(nl.gate_count()),
                     bench_util::fmt(per_config_1t) + "ms",
                     bench_util::fmt(per_config_nt) + "ms",
                     bench_util::fmt(batch_1t) + "ms",
                     bench_util::fmt(batch_nt) + "ms",
                     bench_util::fmt(speedup) + "x", equal ? "yes" : "NO"});
    std::printf("%s,%zu,%.3f,%.3f,%.3f,%.3f,%.2f,%d\n", name, nl.gate_count(),
                per_config_1t, per_config_nt, batch_1t, batch_nt, speedup,
                equal ? 1 : 0);

    report.row();
    report.col("circuit", name);
    report.col("gates", static_cast<double>(nl.gate_count()));
    report.col("per_config_1t_ms", per_config_1t);
    report.col("per_config_nt_ms", per_config_nt);
    report.col("batch_1t_ms", batch_1t);
    report.col("batch_nt_ms", batch_nt);
    report.col("speedup_nt", speedup);
    report.col("bitwise_equal", equal ? 1.0 : 0.0);
  }
  bench_util::csv_end();
  try {
    report.write(json_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "batched_ssta: %s\n", e.what());
    return EXIT_FAILURE;
  }

  if (!all_equal) {
    std::printf("FAIL: batched characterization diverged from the "
                "per-config loop\n");
    return EXIT_FAILURE;
  }
  std::printf(
      "batched characterization %s the per-config loop on every circuit\n",
      all_faster ? "beat" : "did NOT beat");
  return EXIT_SUCCESS;
}
