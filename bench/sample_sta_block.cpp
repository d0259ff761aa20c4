// Block-vectorized gate-level Monte-Carlo across block widths — the
// hot-path speedup, and the determinism proof that makes it free to enable.
//
// Workload: the paper's "silicon" reference (section 2.4) on c3540-class
// synthetic netlists — GateLevelMonteCarlo with inter-die + RDF variation.
// The systematic spatial field is disabled here on purpose: its per-die
// O(sites) scan is identical on both paths and outside the sampling/STA
// kernel comparison this bench isolates (the MC engines accept it either
// way; see fig2_delay_distribution for runs with the field enabled).
//
// For each circuit the same run (same seed, same shard plan) executes at
// every block width in {1, 8, 16, 32, 64} the active SIMD backend accepts
// (width 1 is the one-lane block; tests/test_mc.cpp pins it bitwise to the
// scalar sampling/STA/latch APIs), single-threaded, plus the backend's
// preferred width on the full pool; the bench reports each width's speedup
// over width-1 and verifies all runs are bitwise-identical —
// exec.block_width is a pure throughput knob.
//
// The JSON meta records the active SIMD backend and its width cap: timing
// rows are only comparable across records taken on the same backend
// (tools/bench_diff.py refuses to diff across a backend change).
//
// `--json <path>` writes the machine-readable BENCH record CI archives.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "bench_util.h"
#include "mc/pipeline_mc.h"
#include "netlist/generators.h"
#include "obs/telemetry.h"
#include "sim/engine.h"
#include "sim/thread_pool.h"
#include "stats/simd.h"

namespace sp = statpipe;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kSamples = 2048;
constexpr int kReps = 3;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
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

bool bitwise_eq(const sp::mc::McResult& a, const sp::mc::McResult& b) {
  if (a.tp_samples.size() != b.tp_samples.size() ||
      a.stage_stats.size() != b.stage_stats.size())
    return false;
  for (std::size_t i = 0; i < a.tp_samples.size(); ++i)
    if (a.tp_samples[i] != b.tp_samples[i]) return false;
  for (std::size_t s = 0; s < a.stage_stats.size(); ++s) {
    if (a.stage_stats[s].count() != b.stage_stats[s].count() ||
        a.stage_stats[s].mean() != b.stage_stats[s].mean() ||
        a.stage_stats[s].variance() != b.stage_stats[s].variance() ||
        a.stage_stats[s].min() != b.stage_stats[s].min() ||
        a.stage_stats[s].max() != b.stage_stats[s].max())
      return false;
  }
  return true;
}

/// Per-phase time of one full engine run at block width W, read from the
/// span aggregates the engine itself records (src/obs/telemetry.h) instead
/// of harness-side reconstructions of each kernel — the numbers here are
/// the same ones STATPIPE_TRACE / --metrics report in production runs:
///   draw — mc.draw: lane-batched RngBlock draws (inter + field normals +
///          RDF) inside VariationSampler::sample_block_into;
///   draw_scalar — the pre-batching reference (the engine no longer has a
///                 scalar draw path): identical draw volume via per-lane
///                 strided normal_fill_scaled on the same streams, wrapped
///                 in a bench-local span so it reads back through the same
///                 aggregate plumbing;
///   chol — mc.chol: the systematic field's O(sites) AR(1) scan, from
///          a field-enabled clone of the spec (the sweep spec above
///          disables the field on purpose);
///   walk — mc.walk: critical_delay_sample_block over the bound stage;
///   fold — mc.fold: the per-lane stats fold + pipeline max.
/// Each number is the best (minimum) total over kReps instrumented runs,
/// obs::reset() between reps so aggregates never mix repetitions.
struct PhaseTimes {
  double draw_ms = 0.0;
  double draw_scalar_ms = 0.0;
  double chol_ms = 0.0;
  double walk_ms = 0.0;
  double fold_ms = 0.0;
};

PhaseTimes phase_breakdown(const sp::netlist::Netlist& nl,
                           const sp::device::AlphaPowerModel& model,
                           const sp::process::VariationSpec& spec,
                           const sp::device::LatchModel& latch,
                           std::size_t W) {
  PhaseTimes pt;
  // Instrumented runs: telemetry on for the duration, restored after (the
  // sweep runs in main() keep it in its disabled single-branch state so
  // the timing columns are untouched).
  const bool was_enabled = sp::obs::enabled();
  sp::obs::set_enabled(true);

  // draw_scalar first: a bench-local span around the reference loop, so
  // the aggregates left behind at return come from real engine runs only.
  const std::size_t n_sites = nl.size() + 1;
  const std::size_t n_blocks = kSamples / W;
  sp::stats::Rng root(90210);
  std::vector<sp::stats::Rng> lanes(W, sp::stats::Rng(0));
  std::vector<double> inter(W), rdf(n_sites * W);
  static const sp::obs::SpanId kDrawScalar("bench.draw_scalar");
  pt.draw_scalar_ms = 1e300;
  for (int r = 0; r < kReps; ++r) {
    sp::obs::reset();
    {
      sp::obs::ScopedSpan span(kDrawScalar, static_cast<std::int64_t>(W));
      for (std::size_t b = 0; b < n_blocks; ++b) {
        for (std::size_t j = 0; j < W; ++j) lanes[j] = root.fork(b * W + j);
        for (std::size_t j = 0; j < W; ++j) {
          lanes[j].normal_fill_scaled(spec.sigma_vth_inter, inter.data() + j,
                                      1);
          lanes[j].normal_fill_scaled(1.0, rdf.data() + j, n_sites, W);
        }
      }
    }
    pt.draw_scalar_ms = std::min(
        pt.draw_scalar_ms,
        sp::obs::snapshot().span("bench.draw_scalar").total_ns / 1e6);
  }

  // draw / walk / fold from the sweep-spec engine (no field, like the
  // width-sweep rows above).
  const std::vector<const sp::netlist::Netlist*> stages{&nl};
  sp::sim::ExecutionOptions exec;
  exec.threads = 1;
  exec.samples_per_shard = 256;
  exec.block_width = W;
  const sp::mc::GateLevelMonteCarlo mc(stages, model, spec, latch);
  pt.draw_ms = pt.walk_ms = pt.fold_ms = 1e300;
  for (int r = 0; r < kReps; ++r) {
    sp::obs::reset();
    sp::stats::Rng rng(90210);
    mc.run(kSamples, rng, exec);
    const sp::obs::MetricsSnapshot snap = sp::obs::snapshot();
    pt.draw_ms = std::min(pt.draw_ms, snap.span("mc.draw").total_ns / 1e6);
    pt.walk_ms = std::min(pt.walk_ms, snap.span("mc.walk").total_ns / 1e6);
    pt.fold_ms = std::min(pt.fold_ms, snap.span("mc.fold").total_ns / 1e6);
  }

  // chol from a field-enabled clone of the spec.  This loop runs last on
  // purpose: the aggregates it leaves behind are a full-vocabulary engine
  // snapshot (draw + chol + walk + fold) that main() embeds into the JSON
  // record after the final circuit.
  sp::process::VariationSpec field_spec = spec;
  field_spec.sigma_vth_systematic = 0.010;
  const sp::mc::GateLevelMonteCarlo mc_field(stages, model, field_spec,
                                             latch);
  pt.chol_ms = 1e300;
  for (int r = 0; r < kReps; ++r) {
    sp::obs::reset();
    sp::stats::Rng rng(90210);
    mc_field.run(kSamples, rng, exec);
    pt.chol_ms = std::min(
        pt.chol_ms, sp::obs::snapshot().span("mc.chol").total_ns / 1e6);
  }

  sp::obs::set_enabled(was_enabled);
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  try {
    json_path = bench_util::take_json_arg(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sample_sta_block: %s\n", e.what());
    return EXIT_FAILURE;
  }

  // Resolve the backend up front so a bad STATPIPE_SIMD fails loudly here,
  // not mid-sweep inside the first MC run.
  const sp::stats::simd::KernelTable* kt = nullptr;
  try {
    kt = &sp::stats::simd::kernels();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sample_sta_block: %s\n", e.what());
    return EXIT_FAILURE;
  }

  // Width sweep: the canonical candidates clipped to the active backend.
  std::vector<std::size_t> widths;
  for (std::size_t w : {std::size_t{1}, std::size_t{8}, std::size_t{16},
                        std::size_t{32}, std::size_t{64}})
    if (w <= kt->max_width) widths.push_back(w);
  const std::size_t pref = kt->default_width;

  bench_util::banner(
      "sample_sta_block",
      "Block (SoA DieBlock) gate-level MC vs width 1 on SIMD backend '" +
          std::string(kt->name) + "', widths {1,8,16,32,64} clipped to " +
          std::to_string(kt->max_width) + ", bitwise-checked");

  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  const sp::device::LatchModel latch{{}, model};
  // Inter-die + RDF, no systematic field (see file comment).
  sp::process::VariationSpec spec;
  spec.sigma_vth_inter = 0.020;
  spec.sigma_vth_systematic = 0.0;
  spec.enable_rdf = true;

  const std::size_t pool = sp::sim::ThreadPool::shared().thread_count();
  bench_util::JsonReport report("sample_sta_block");
  report.meta("samples", static_cast<double>(kSamples));
  report.meta("pool_threads", static_cast<double>(pool));
  report.meta("spec", "inter0.020+rdf");
  // Implementation marker for the perf trajectory (tools/bench_diff.py):
  // "lanes-poly" = the shared vectorized pow core of PR 4, replacing the
  // per-lane std::pow that dominated the block kernel.
  report.meta("varfactor", "lanes-poly");
  // "lane-batched-ziggurat" = draws issued through the dispatched SoA
  // xoshiro256** + masked-ziggurat kernel (normal_fill_lanes) instead of
  // per-lane scalar fills; the phase columns below quantify it.
  report.meta("rng", "lane-batched-ziggurat");
  // Width the phase-breakdown columns were measured at (the backend's
  // preferred width, single-threaded).
  report.meta("phase_block_width", static_cast<double>(pref));
  // "obs-spans" = phase columns read from the engine's own telemetry span
  // aggregates (src/obs) instead of harness-side kernel reconstructions.
  report.meta("phase_source", "obs-spans");
  // Active dispatch state: rows are only comparable between records whose
  // simd_backend matches (bench_diff.py enforces this).
  report.meta("simd_backend", std::string(kt->name));
  report.meta("simd_max_width", static_cast<double>(kt->max_width));

  std::vector<std::string> head{"circuit", "gates"};
  std::string csv_head = "circuit,gates";
  for (std::size_t w : widths) {
    head.push_back("w" + std::to_string(w) + "-1t");
    csv_head += ",w" + std::to_string(w) + "_1t_ms";
  }
  head.push_back("w" + std::to_string(pref) + "-Nt");
  csv_head += ",wpref_nt_ms";
  for (std::size_t w : widths)
    if (w != 1) {
      head.push_back("speedup" + std::to_string(w));
      csv_head += ",speedup_w" + std::to_string(w);
    }
  head.push_back("bitwise");
  csv_head += ",bitwise_equal";
  bench_util::row(head, 11);
  bench_util::csv_begin("sample_sta_block", csv_head);

  bool all_equal = true;
  double best_speedup = 0.0;
  for (const char* name : {"c432", "c3540"}) {
    const auto nl = sp::netlist::iscas_like(name);
    const std::vector<const sp::netlist::Netlist*> stages{&nl};
    const sp::mc::GateLevelMonteCarlo mc(stages, model, spec, latch);

    auto run_at = [&](std::size_t width, std::size_t threads) {
      sp::sim::ExecutionOptions exec;
      exec.threads = threads;
      exec.samples_per_shard = 256;
      exec.block_width = width;
      sp::stats::Rng rng(90210);
      return mc.run(kSamples, rng, exec);
    };

    std::vector<sp::mc::McResult> res(widths.size());
    std::vector<double> ms(widths.size());
    for (std::size_t i = 0; i < widths.size(); ++i)
      ms[i] = best_of([&] { res[i] = run_at(widths[i], 1); });
    sp::mc::McResult rpn;
    const double pref_nt = best_of([&] { rpn = run_at(pref, 0); });

    bool equal = bitwise_eq(res[0], rpn);
    for (std::size_t i = 1; i < widths.size(); ++i)
      equal = equal && bitwise_eq(res[0], res[i]);
    all_equal = all_equal && equal;

    std::vector<std::string> cells{name, std::to_string(nl.gate_count())};
    std::string csv = std::string(name) + "," +
                      std::to_string(nl.gate_count());
    for (std::size_t i = 0; i < widths.size(); ++i) {
      cells.push_back(bench_util::fmt(ms[i]) + "ms");
      csv += "," + bench_util::fmt(ms[i], 3);
    }
    cells.push_back(bench_util::fmt(pref_nt) + "ms");
    csv += "," + bench_util::fmt(pref_nt, 3);

    report.row();
    report.col("circuit", name);
    report.col("gates", static_cast<double>(nl.gate_count()));
    for (std::size_t i = 0; i < widths.size(); ++i)
      report.col("w" + std::to_string(widths[i]) + "_1t_ms", ms[i]);
    report.col("wpref_nt_ms", pref_nt);
    for (std::size_t i = 1; i < widths.size(); ++i) {
      const double speedup = ms[0] / ms[i];
      best_speedup = std::max(best_speedup, speedup);
      cells.push_back(bench_util::fmt(speedup) + "x");
      csv += "," + bench_util::fmt(speedup);
      report.col("speedup_w" + std::to_string(widths[i]), speedup);
    }
    cells.push_back(equal ? "yes" : "NO");
    csv += equal ? ",1" : ",0";
    report.col("bitwise_equal", equal ? 1.0 : 0.0);

    // Per-phase breakdown at the preferred width (same row, extra columns:
    // the _ms columns ride bench_diff's lower-is-better tracking, the
    // draw speedup its higher-is-better one).
    const PhaseTimes pt = phase_breakdown(nl, model, spec, latch, pref);
    const double draw_speedup = pt.draw_scalar_ms / pt.draw_ms;
    report.col("draw_ms", pt.draw_ms);
    report.col("draw_scalar_ms", pt.draw_scalar_ms);
    report.col("speedup_draw", draw_speedup);
    report.col("chol_ms", pt.chol_ms);
    report.col("walk_ms", pt.walk_ms);
    report.col("fold_ms", pt.fold_ms);

    bench_util::row(cells, 11);
    std::printf("%s\n", csv.c_str());
    std::printf("  phases[%s, w%zu]: draw %.2fms (scalar %.2fms, %.2fx), "
                "chol %.2fms, walk %.2fms, fold %.2fms\n",
                name, pref, pt.draw_ms, pt.draw_scalar_ms, draw_speedup,
                pt.chol_ms, pt.walk_ms, pt.fold_ms);
  }
  bench_util::csv_end();
  // Embed the metrics snapshot the last phase_breakdown left behind (its
  // final instrumented rep: a field-enabled engine run over the last
  // circuit), so the BENCH record carries the stable counter/span schema
  // end-to-end — the same names --metrics and STATPIPE_TRACE report.
  report.raw("metrics", sp::obs::metrics_json(sp::obs::snapshot()));
  try {
    report.write(json_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sample_sta_block: %s\n", e.what());
    return EXIT_FAILURE;
  }

  if (!all_equal) {
    std::printf("FAIL: block gate-level MC diverged across block widths\n");
    return EXIT_FAILURE;
  }
  std::printf("block path is bitwise-identical across widths on backend "
              "'%s'; best block speedup over width 1 %.2fx\n",
              kt->name, best_speedup);
  return EXIT_SUCCESS;
}
