// statpipe benchmark driver: three seeded workloads run through the
// library's public API, timed end to end (untraced) or broken down layer
// by layer (traced).  perfbench/run.py builds and runs this binary; see
// perfbench/README.md for the workloads, the metrics and why each exists.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//   perfbench --make-reference N   (prints the stored MC reference values)
//
// Output: human-readable "# ..." lines, then one JSON line
//   {"correct": b, "attempted": n, "failed": n, "metrics": {...}}
// Each workload has one function, used by both kinds of run.  An untraced
// run calls the named workload's function and reports its end-to-end
// metrics.  A traced run calls all three functions for a shorter time,
// with obs telemetry and the benchmark's spans on, and reports every
// per-layer metric (each module measured on the workload that exercises
// it) plus the named workload's tracing overhead; it writes a Chrome trace
// and an obs metrics snapshot.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/characterized_pipeline.h"
#include "dist/cluster.h"
#include "dist/hmac.h"
#include "dist/serialize.h"
#include "dist/service.h"
#include "dist/task.h"
#include "dist/workload.h"
#include "iscas_pipeline.h"
#include "mc/pipeline_mc.h"
#include "netlist/generators.h"
#include "obs/telemetry.h"
#include "process/variation.h"
#include "sim/engine.h"
#include "sim/thread_pool.h"
#include "sta/ssta.h"
#include "sta/ssta_batch.h"

namespace {

namespace sp = statpipe;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Wall time [ms] of fn().
double timed_ms(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return ms_since(t0);
}

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[k == 0 ? 0 : k - 1];
}
double median(const std::vector<double>& v) { return percentile(v, 0.5); }
double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// splitmix64: the benchmark's own input generator, so the inputs a seed
/// produces do not depend on the library's RNG or the standard library.
struct SeedStream {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------------ spans
// The benchmark's own spans around its calls into the library: name,
// start, end, parent, and one request id per service request.  Kept in
// memory and written at exit as Chrome trace JSON.  Off in untraced runs
// (one branch per scope).

struct Span {
  const char* name;
  std::int64_t t0, t1;
  std::uint64_t id, parent, rid;
  int tid;
};

class Tracer {
 public:
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool on() const { return on_.load(std::memory_order_relaxed); }

  std::uint64_t next_id() { return ++last_id_; }
  void add(const Span& s) {
    std::lock_guard<std::mutex> lk(m_);
    spans_.push_back(s);
  }
  int thread_index(const std::string& name) {
    std::lock_guard<std::mutex> lk(m_);
    threads_.push_back(name);
    return static_cast<int>(threads_.size());
  }
  /// Sum of the durations [ms] of spans named `name` that started at or
  /// after `since_ns`, and their count.
  std::pair<double, std::size_t> total_ms(const char* name,
                                          std::int64_t since_ns) const {
    std::lock_guard<std::mutex> lk(m_);
    double t = 0.0;
    std::size_t n = 0;
    for (const Span& s : spans_)
      if (s.t0 >= since_ns && std::strcmp(s.name, name) == 0) {
        t += static_cast<double>(s.t1 - s.t0) * 1e-6;
        ++n;
      }
    return {t, n};
  }
  /// Chrome trace-event JSON: "M" thread names, then "X" spans sorted per
  /// thread by completion time (what tools/trace_check.py requires).
  void write(const std::string& path) const {
    std::lock_guard<std::mutex> lk(m_);
    struct Ev {
      const Span* s;
      double ts, dur;
    };
    std::vector<Ev> evs;
    for (const Span& s : spans_)
      evs.push_back({&s, static_cast<double>(s.t0) / 1000.0,
                     static_cast<double>(s.t1 - s.t0) / 1000.0});
    std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
      if (a.s->tid != b.s->tid) return a.s->tid < b.s->tid;
      return a.ts + a.dur < b.ts + b.dur;
    });
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) throw std::runtime_error("cannot write trace " + path);
    const int pid = static_cast<int>(::getpid());
    std::fprintf(f, "{\"traceEvents\": [\n");
    bool first = true;
    for (std::size_t i = 0; i < threads_.size(); ++i) {
      std::fprintf(f,
                   "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %d, "
                   "\"tid\": %zu, \"args\": {\"name\": \"%s\"}}",
                   first ? "" : ",\n", pid, i + 1, threads_[i].c_str());
      first = false;
    }
    for (const Ev& e : evs) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                   "\"tid\": %d, \"ts\": %.17g, \"dur\": %.17g, \"args\": "
                   "{\"id\": %llu, \"parent\": %llu, \"rid\": %llu}}",
                   first ? "" : ",\n", e.s->name, pid, e.s->tid, e.ts, e.dur,
                   static_cast<unsigned long long>(e.s->id),
                   static_cast<unsigned long long>(e.s->parent),
                   static_cast<unsigned long long>(e.s->rid));
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0)
      throw std::runtime_error("cannot write trace " + path);
  }

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> last_id_{0};
  mutable std::mutex m_;
  std::vector<Span> spans_;
  std::vector<std::string> threads_;
};

Tracer g_tracer;
thread_local std::uint64_t t_parent = 0;  // innermost open span
thread_local std::uint64_t t_rid = 0;     // request id inherited by children
thread_local int t_tid = 0;

/// Names the calling thread in the trace (call once per thread).
void trace_thread(const std::string& name) {
  if (g_tracer.on()) t_tid = g_tracer.thread_index(name);
}

class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t rid = 0) : name_(name) {
    if (!g_tracer.on()) return;
    id_ = g_tracer.next_id();
    parent_ = t_parent;
    saved_rid_ = t_rid;
    if (rid != 0) t_rid = rid;
    t_parent = id_;
    t0_ = sp::obs::now_ns();
  }
  ~Scope() {
    if (id_ == 0) return;
    g_tracer.add({name_, t0_, sp::obs::now_ns(), id_, parent_, t_rid, t_tid});
    t_parent = parent_;
    t_rid = saved_rid_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  const char* name_;
  std::uint64_t id_ = 0, parent_ = 0, saved_rid_ = 0;
  std::int64_t t0_ = 0;
};

// --------------------------------------------------------------- reporting

struct Metric {
  double value;
  std::string unit;
};

/// The run's checks and metrics.  A workload function reports both kinds
/// of metric; the result line carries the end-to-end ones in an untraced
/// run and the per-layer ones in a traced run.
struct Report {
  bool traced = false;
  std::map<std::string, Metric> end_to_end, per_layer;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void e2e(const std::string& name, double v, const std::string& unit) {
    end_to_end[name] = {v, unit};
  }
  void layer(const std::string& name, double v, const std::string& unit) {
    per_layer[name] = {v, unit};
  }
  /// Counts one checked operation; a false `ok` is a failure.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("# CHECK FAILED: %s\n", what.c_str());
    }
  }
  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false", attempted, failed);
    bool first = true;
    for (const auto& [name, m] : traced ? per_layer : end_to_end) {
      std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
      first = false;
    }
    std::printf("}}\n");
  }
};

/// Runs `setup` `warm` times untimed, then `timed` times, and returns the
/// median of the timed set-ups [s].  The untimed ones take the allocator
/// and page cache past their first-use costs, which otherwise shift a
/// millisecond-scale median from run to run.  `teardown` (untimed) runs
/// before every set-up but the first.
double median_setup_s(int warm, int timed, const std::function<void()>& setup,
                      const std::function<void()>& teardown = {}) {
  std::vector<double> s;
  for (int i = 0; i < warm + timed; ++i) {
    if (i > 0 && teardown) teardown();
    const auto t0 = Clock::now();
    setup();
    if (i >= warm) s.push_back(ms_since(t0) / 1000.0);
  }
  return median(s);
}

/// Times `fn` `reps` times and returns the median [us].
double median_us(int reps, const std::function<void()>& fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) us.push_back(timed_ms(fn) * 1000.0);
  return median(us);
}

/// obs counters and span totals accumulated between construction and
/// stop() (deltas, so the exported snapshot still covers the whole run).
/// All zero when telemetry is off.
struct ObsDelta {
  sp::obs::MetricsSnapshot base = sp::obs::snapshot(), now;
  void stop() { now = sp::obs::snapshot(); }
  double counter(const char* name) const {
    return static_cast<double>(now.counter(name) - base.counter(name));
  }
  double span_ms(const char* name) const {
    return static_cast<double>(now.span(name).total_ns -
                               base.span(name).total_ns) *
           1e-6;
  }
};

/// The operation metrics every workload reports.  No tail percentile: the
/// Table II flow yields only ~20 operations per run, too few for a p90 to
/// hold still between runs (service_mixed reports its p90 per layer).
void report_ops(Report& rep, const std::vector<double>& op_ms,
                double work_per_s) {
  rep.e2e("op_p10_ms", percentile(op_ms, 0.10), "ms");
  rep.e2e("op_p50_ms", percentile(op_ms, 0.50), "ms");
  rep.e2e("work_per_s", work_per_s, "1/s");
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
};

/// Length of each workload's timed loop in a traced run.
constexpr double kTracedSeconds = 3.0;

// ============================================================ paper_sizer
// The Table II flow (bench/table2_yield_optimization.cpp) on the 4-stage
// ISCAS fixture: individual sizing at a provisional budget, margin
// re-sizes of the non-critical stages, then the global optimizer in
// kEnsureYield mode.  One operation = one full flow from unsized netlists.

class PaperSizer {
 public:
  struct Solution {
    double yield_before, yield_after, area_after;
  };

  /// Builds the fixture (netlists, delay/latch models).  Timed as set-up.
  void setup() {
    fixture_ = std::make_unique<iscas_pipeline::Fixture>();
    pristine_ = fixture_->stages;
  }

  /// One flow from the unsized netlists.  `grid` is the optimizer's grid
  /// backend for its probe and curve-extraction grids (empty = the local
  /// SstaBatch); it never changes the result.
  Solution solve(const sp::sta::GridCharacterizer& grid = {}) {
    Scope s("paper_sizer.solve");
    iscas_pipeline::Fixture& f = *fixture_;
    f.stages = pristine_;
    sp::opt::GlobalPipelineOptimizer go(f.ptrs(), f.model, f.spec, f.latch);
    const double y_stage = std::pow(0.80, 0.25);
    double comb0 = 0.0;
    {
      Scope p("opt.fastest_probe");
      comb0 = f.fastest_stage_stat_delay(y_stage) * 1.05;
    }
    const double t0 = comb0 + f.latch.timing().nominal_overhead();
    sp::core::PipelineModel baseline = [&] {
      Scope p("opt.optimize_individually");
      return go.optimize_individually(t0, 0.80);
    }();
    std::size_t slowest = 0;
    for (std::size_t i = 1; i < baseline.stage_count(); ++i)
      if (baseline.stage_delay(i).mean > baseline.stage_delay(slowest).mean)
        slowest = i;
    for (std::size_t i = 0; i < f.stages.size(); ++i) {
      if (i == slowest) continue;
      sp::opt::SizerOptions so;
      so.yield_target = y_stage;
      so.t_target = comb0 * 0.95;
      Scope p("opt.size_stage");
      (void)sp::opt::size_stage(f.stages[i], f.model, f.spec, so);
    }
    baseline = go.current_model();
    sp::opt::GlobalOptimizerOptions opt;
    opt.t_target = baseline.stage_delay(slowest).quantile(0.84);
    opt.yield_target = 0.80;
    opt.mode = sp::opt::OptimizationMode::kEnsureYield;
    opt.sweep.points = 8;
    opt.grid = grid;
    opt.sweep.grid = grid;
    Scope p("opt.optimize");
    const auto r = go.optimize(opt);
    return {r.pipeline_yield_before, r.pipeline_yield_after,
            r.total_area_after};
  }

  /// Checks one solution: the 80% target is met and the flow is
  /// deterministic (bitwise the first solution of the run).
  void check(Report& rep, const Solution& s) {
    if (!first_) first_ = s;
    rep.check(s.yield_after >= 0.80, "paper_sizer: pipeline yield " +
                                         std::to_string(s.yield_after) +
                                         " misses the 80% target");
    rep.check(std::memcmp(&s, &*first_, sizeof s) == 0,
              "paper_sizer: repeated solve differs from the first");
  }

  iscas_pipeline::Fixture& fixture() { return *fixture_; }

 private:
  std::unique_ptr<iscas_pipeline::Fixture> fixture_;
  std::vector<sp::netlist::Netlist> pristine_;
  std::optional<Solution> first_;
};

/// Per-layer timings of single sta, core and sim calls on the fixture.
void sizer_layer_timings(iscas_pipeline::Fixture& f, Report& rep) {
  {
    std::vector<double> per_stage;
    for (const auto& st : f.stages) {
      Scope s("sta.analyze_ssta");
      per_stage.push_back(median_us(
          20, [&] { (void)sp::sta::analyze_ssta(st, f.model, f.spec); }));
    }
    rep.layer("sta.ssta_us", mean(per_stage), "us");
  }
  {
    std::vector<const sp::netlist::Netlist*> views;
    for (const auto& st : f.stages) views.push_back(&st);
    const auto pm =
        sp::core::build_pipeline_ssta(views, f.model, f.spec, f.latch);
    const double t = pm.delay_distribution().quantile(0.8);
    Scope s("core.yield");
    rep.layer("core.yield_us", median_us(200, [&] { (void)pm.yield(t); }),
              "us");
  }
  auto& pool = sp::sim::ThreadPool::shared();
  const std::size_t n = pool.thread_count();
  Scope s("sim.parallel_for");
  rep.layer("sim.pool.dispatch_us", median_us(2000, [&] {
              pool.parallel_for(n, [](std::size_t) {});
            }),
            "us");
}

void run_paper_sizer(const Options&, double seconds, Report& rep) {
  Scope top("workload.paper_sizer");
  PaperSizer w;
  // Set-up is milliseconds: 20 untimed warm-ups, 21 timed set-ups, then
  // one more before every solve, so the median spans the whole run.
  std::vector<double> setup_ms;
  auto timed_setup = [&] {
    Scope s("netlist.build");
    setup_ms.push_back(timed_ms([&] { w.setup(); }));
  };
  for (int i = 0; i < 20; ++i) w.setup();
  for (int i = 0; i < 21; ++i) timed_setup();
  const PaperSizer::Solution first = w.solve();  // warm-up: pool, allocator
  w.check(rep, first);
  const std::int64_t loop_ns = sp::obs::now_ns();
  ObsDelta obs;
  std::vector<double> op_ms;
  const auto start = Clock::now();
  while (ms_since(start) < seconds * 1000.0 || op_ms.size() < 3) {
    timed_setup();
    const auto t0 = Clock::now();
    const auto s = w.solve();
    op_ms.push_back(ms_since(t0));
    w.check(rep, s);
  }
  obs.stop();
  const double elapsed_s = ms_since(start) / 1000.0;
  const double solves = static_cast<double>(op_ms.size());
  std::printf("# paper_sizer: %zu timed solves (+1 warm-up) in %.2f s\n",
              op_ms.size(), elapsed_s);
  rep.e2e("setup_s", median(setup_ms) / 1000.0, "s");
  report_ops(rep, op_ms, solves / elapsed_s);
  if (!rep.traced) return;

  // Per solve of the timed loop.
  auto span_s = [&](const char* name) {
    return g_tracer.total_ms(name, loop_ns).first / 1000.0 / solves;
  };
  rep.layer("netlist.build_ms", median(setup_ms), "ms");
  rep.layer("opt.probe_s", span_s("opt.fastest_probe"), "s");
  rep.layer("opt.individual_s", span_s("opt.optimize_individually"), "s");
  rep.layer("opt.global_s", span_s("opt.optimize"), "s");
  const auto sized = g_tracer.total_ms("opt.size_stage", loop_ns);
  rep.layer("opt.size_stage_ms",
            sized.first / static_cast<double>(sized.second), "ms");
  rep.layer("opt.sizer.iterations",
            obs.counter("opt.sizer.iterations") / solves, "count");
  rep.layer("opt.global.probes", obs.counter("opt.global.probes") / solves,
            "count");
  rep.layer("opt.sized_yield", first.yield_after, "frac");
  rep.layer("sim.pool.batches", obs.counter("sim.pool.batches") / solves,
            "count");
  rep.layer("sim.pool.tasks", obs.counter("sim.pool.tasks") / solves,
            "count");
  rep.layer("sim.pool.queue_wait_ms",
            obs.span_ms("sim.pool.queue_wait") / solves, "ms");
  sizer_layer_timings(w.fixture(), rep);
}

// ====================================================== mc_full_variation
// Gate-level MC on the 2-stage pipeline c3540,c432 with the full variation
// model: inter-die, systematic field (sigma 0.01 V) and RDF.  One
// operation = one warm GateLevelMonteCarlo::run of the seeded sample
// count, repeated on the same seed (bitwise-identical repeats).

constexpr const char* kMcStages = "c3540,c432";
// Shards of 512 samples: the 2 full shards of kMcBaseSamples keep the
// pinned 2-thread pool busy, and the seeded extra samples form a third,
// short shard that ends in a partial block.  Field-on dies cost ~1 ms
// each, so one run takes ~0.6 s and a run of the benchmark holds dozens.
constexpr std::size_t kMcSamplesPerShard = 512;
constexpr std::size_t kMcBaseSamples = 2 * kMcSamplesPerShard;

// Reference pipeline-delay moments of the configuration above, from
// `perfbench --make-reference 131072` (seed 1).  The check below is
// statistical, so a change that moves sample values at rounding level
// (or re-seeds the sampler) still passes while a wrong distribution fails.
constexpr double kRefSamples = 131072;
constexpr double kRefMean = 1770.50092;   // ps
constexpr double kRefSigma = 64.5102213;  // ps

sp::dist::RunDescriptor mc_descriptor(std::uint64_t seed, std::size_t n) {
  sp::dist::RunDescriptor d;
  d.workload = kMcStages;
  d.seed = seed;
  d.n_samples = n;
  d.samples_per_shard = kMcSamplesPerShard;
  d.sigma_vth_systematic = 0.01;
  d.enable_rdf = 1;
  return d;
}

/// The workload's descriptor for a benchmark seed: the MC seed, and a
/// sample count of a fixed base plus 1..63 extra samples that are never a
/// multiple of the block width, so the last shard always ends in a
/// partial block that the scalar tail path samples.
sp::dist::RunDescriptor seeded_mc_descriptor(std::uint64_t bench_seed) {
  SeedStream g{bench_seed};
  sp::dist::RunDescriptor d = mc_descriptor(g.next(), 0);
  std::size_t extra = 1 + g.next() % 63;
  if (extra % d.block_width == 0) ++extra;
  d.n_samples = kMcBaseSamples + extra;
  return d;
}

/// Site positions GateLevelMonteCarlo lays out for `stages` (gates at
/// (s + position)/N, each stage's latch at its right edge).
std::vector<double> mc_site_positions(
    const std::vector<sp::netlist::Netlist>& stages) {
  std::vector<double> pos;
  const double n = static_cast<double>(stages.size());
  for (std::size_t s = 0; s < stages.size(); ++s) {
    for (std::size_t gi = 0; gi < stages[s].size(); ++gi)
      pos.push_back((static_cast<double>(s) + stages[s].gate(gi).position) /
                    n);
    pos.push_back((static_cast<double>(s) + 1.0) / n);
  }
  return pos;
}

/// Per-layer numbers that need the workload's models: the SSTA model's
/// sigma error against MC, and one field-on die block of a second sampler
/// over the engine's site set (the engine keeps its own private).
void mc_layer_timings(const sp::dist::RunDescriptor& desc,
                      const sp::mc::McResult& mc, Report& rep) {
  std::vector<sp::netlist::Netlist> stages;
  for (const auto& name : sp::dist::split_workload_names(desc.workload))
    stages.push_back(sp::netlist::iscas_like(name));
  std::vector<const sp::netlist::Netlist*> views;
  for (const auto& s : stages) views.push_back(&s);
  const sp::process::VariationSpec spec = sp::dist::descriptor_spec(desc);
  const sp::device::AlphaPowerModel model{
      sp::dist::descriptor_technology(desc)};
  const sp::device::LatchModel latch{sp::device::LatchTiming{}, model};
  {
    Scope s("core.build_pipeline_ssta");
    const auto pm = sp::core::build_pipeline_ssta(views, model, spec, latch);
    const double mc_sigma = mc.tp_estimate().sigma;
    rep.layer("core.model_sigma_err",
              std::fabs(pm.delay_distribution().sigma - mc_sigma) / mc_sigma,
              "frac");
  }
  const std::vector<double> pos = mc_site_positions(stages);
  const std::size_t sites = pos.size();
  std::unique_ptr<sp::process::VariationSampler> sampler;
  {
    Scope s("process.sampler_ctor");
    sampler = std::make_unique<sp::process::VariationSampler>(
        model.technology(), spec, pos);
  }
  const std::size_t w = desc.block_width;
  std::vector<sp::stats::Rng> rngs;
  for (std::size_t i = 0; i < w; ++i) rngs.emplace_back(desc.seed + i);
  sp::process::DieBlock block;
  sp::process::BlockWorkspace ws;
  {
    Scope s("process.sample_block");
    rep.layer("process.die_block_us", median_us(30, [&] {
                sampler->sample_block_into(rngs.data(), w, block, ws);
              }),
              "us");
  }
  // Computed from the site count, not measured: bytes of the dense
  // lower-triangular Cholesky factor the field multiply streams per block,
  // divided over the block's w dies.
  rep.layer("process.field_bytes_per_die",
            8.0 * static_cast<double>(sites * (sites + 1) / 2) /
                static_cast<double>(w),
            "B");
}

void run_mc_full_variation(const Options& o, double seconds, Report& rep) {
  Scope top("workload.mc_full_variation");
  const sp::dist::RunDescriptor desc = seeded_mc_descriptor(o.seed);
  const std::size_t n = desc.n_samples;

  // Set-up = dist::Workload::make: the stage netlists and the engine,
  // whose constructor factors the field covariance.
  std::unique_ptr<sp::dist::Workload> wl;
  const double setup_s = median_setup_s(
      0, rep.traced ? 1 : 3,
      [&] {
        Scope s("mc.engine_ctor");
        wl = sp::dist::Workload::make(desc);
      },
      [&] { wl.reset(); });
  const sp::mc::GateLevelMonteCarlo& engine = wl->engine();
  const sp::sim::ExecutionOptions exec = wl->exec(desc);
  auto run_once = [&](const sp::sim::ExecutionOptions& e) {
    Scope s("mc.run");
    sp::stats::Rng rng(desc.seed);
    sp::dist::TaskResult r;
    r.mc = engine.run(n, rng, e);
    return r;
  };

  const auto tf = Clock::now();
  const sp::dist::TaskResult first = run_once(exec);
  const double first_ms = ms_since(tf);

  ObsDelta obs;
  std::vector<double> op_ms;
  const auto start = Clock::now();
  while (ms_since(start) < seconds * 1000.0 || op_ms.size() < 3) {
    const auto t0 = Clock::now();
    const sp::dist::TaskResult r = run_once(exec);
    op_ms.push_back(ms_since(t0));
    rep.check(sp::dist::bitwise_equal(r, first),
              "mc_full_variation: repeat differs from the first run");
  }
  obs.stop();
  const double elapsed_s = ms_since(start) / 1000.0;

  // Once per run: the same result at a different thread count.
  sp::sim::ExecutionOptions one = exec;
  one.threads = 1;
  rep.check(sp::dist::bitwise_equal(run_once(one), first),
            "mc_full_variation: 1-thread run differs from the pool run");

  // Statistical check against the stored reference (6 standard errors).
  const sp::stats::Gaussian est = first.mc.tp_estimate();
  const double nn = static_cast<double>(n);
  const double se_mean = std::sqrt(est.sigma * est.sigma / nn +
                                   kRefSigma * kRefSigma / kRefSamples);
  const double se_sigma =
      std::sqrt(est.sigma * est.sigma / (2 * nn) +
                kRefSigma * kRefSigma / (2 * kRefSamples));
  rep.check(std::fabs(est.mean - kRefMean) <= 6 * se_mean,
            "mc_full_variation: mean " + std::to_string(est.mean) +
                " ps is not within 6 SE of the reference " +
                std::to_string(kRefMean));
  rep.check(std::fabs(est.sigma - kRefSigma) <= 6 * se_sigma,
            "mc_full_variation: sigma " + std::to_string(est.sigma) +
                " ps is not within 6 SE of the reference " +
                std::to_string(kRefSigma));

  const std::size_t tail = (n % desc.samples_per_shard) % desc.block_width;
  std::printf(
      "# mc_full_variation: %zu samples/run (partial-block samples %zu, "
      "share %.5f), %zu timed runs in %.2f s, first run after set-up "
      "%.1f ms (%.2fx the warm median); mean %.3f ps, sigma %.4f ps\n",
      n, tail, static_cast<double>(tail) / nn, op_ms.size(), elapsed_s,
      first_ms, first_ms / median(op_ms), est.mean, est.sigma);
  rep.e2e("setup_s", setup_s, "s");
  report_ops(rep, op_ms,
             nn * static_cast<double>(op_ms.size()) / elapsed_s);
  if (!rep.traced) return;

  // Per warm run of the timed loop.
  const double runs = static_cast<double>(op_ms.size());
  rep.layer("mc.engine_ctor_ms", setup_s * 1000.0, "ms");
  rep.layer("mc.draw_ms", obs.span_ms("mc.draw") / runs, "ms");
  rep.layer("mc.chol_ms", obs.span_ms("mc.chol") / runs, "ms");
  rep.layer("mc.walk_ms", obs.span_ms("mc.walk") / runs, "ms");
  rep.layer("mc.fold_ms", obs.span_ms("mc.fold") / runs, "ms");
  rep.layer("mc.scalar_tail_samples",
            obs.counter("mc.scalar_tail_samples") / runs, "count");
  wl.reset();
  mc_layer_timings(desc, first.mc, rep);
}

// ========================================================== service_mixed
// One dist::Service with 2 resident worker processes, served on one
// thread; two closed-loop ServiceClient sessions (priorities 1 and 0) on
// two more threads, each with one request outstanding.  The traffic is the
// optimizer's own: the grid requests are those the paper_sizer flow sends
// through its grid backend, recorded once per process, and each flow
// instance ends in one small field-off c432 MC.  Every fourth instance of
// a client re-runs one of its recent instances, which the cache answers.
// An operation is one flow instance, all its requests, as an optimizer
// waits for them: a quarter of the operations are re-runs, so the 10th
// latency percentile lies inside the re-runs and the median inside the
// new instances, both away from the gap between them (perfbench/README.md).

constexpr std::size_t kRerunEvery = 4;
constexpr std::size_t kRecent = 8;  // a re-run picks among the last kRecent
// The cache holds hundreds of results: every re-run finds its entries,
// the LRU still evicts in steady state, and memory stops growing early.
constexpr std::size_t kCacheBytes = std::size_t{4} << 20;

/// SHA-256 of the canonical serialized result: the bytes dist::bitwise_equal
/// compares, kept instead of the result so memory stays flat over a run.
sp::dist::Digest result_digest(const sp::dist::TaskResult& r) {
  return sp::dist::sha256(
      r.kind == sp::dist::TaskKind::kSstaGrid
          ? sp::dist::serialize_characterizations(r.lanes)
          : sp::dist::serialize_mc_result(r.mc));
}

/// Moves a finalized descriptor to another seed.  The engine root key is
/// all finalize_descriptor derives from the seed, and the cache key covers
/// both, so a grid under a new seed is computed again.
void reseed(sp::dist::RunDescriptor& d, std::uint64_t seed) {
  d.seed = seed;
  d.root_seed = sp::dist::derive_root_seed(seed);
}

/// One grid request of the flow and its run_local_task reference digest.
struct FlowGrid {
  sp::dist::RunDescriptor desc;
  sp::dist::Digest ref;
};

/// Runs the paper_sizer flow once with a grid backend that records every
/// grid the optimizer hands it, built as dist::grid_characterizer builds
/// its descriptors, and answers each with run_local_task, so the flow
/// itself runs unchanged.  The optimizer extracts its stages' curves
/// concurrently, so the grids are recorded under a lock and then put in
/// netlist order.
std::vector<FlowGrid> record_flow_grids() {
  Scope s("service.record_flow");
  std::vector<FlowGrid> grids;
  std::mutex m;
  const sp::sta::GridCharacterizer record =
      [&](const sp::netlist::Netlist& nl,
          const sp::device::AlphaPowerModel& model,
          const std::vector<std::vector<double>>& size_grid,
          const sp::process::VariationSpec& spec,
          const sp::sta::SstaOptions& sopt) {
        sp::dist::RunDescriptor d;
        d.task_kind = sp::dist::TaskKind::kSstaGrid;
        d.workload = sp::dist::workload_name_for(nl);
        d.size_grid = size_grid;
        sp::dist::set_descriptor_technology(d, model.technology());
        sp::dist::set_descriptor_spec(d, spec);
        d.output_load = sopt.output_load;
        sp::dist::finalize_descriptor(d);
        sp::dist::TaskResult r = sp::dist::run_local_task(d);
        const sp::dist::Digest ref = result_digest(r);
        std::lock_guard<std::mutex> lk(m);
        grids.push_back({std::move(d), ref});
        return std::move(r.lanes);
      };
  PaperSizer w;
  w.setup();
  (void)w.solve(record);
  std::sort(grids.begin(), grids.end(),
            [](const FlowGrid& a, const FlowGrid& b) {
              return std::make_pair(a.desc.workload, a.desc.size_grid) <
                     std::make_pair(b.desc.workload, b.desc.size_grid);
            });
  return grids;
}

/// The c432 field-off MC of 1024 samples that ends each flow instance.
sp::dist::RunDescriptor mc_miss_descriptor(std::uint64_t seed) {
  sp::dist::RunDescriptor d;
  d.workload = "c432";
  d.seed = seed;
  d.n_samples = 1024;
  sp::dist::finalize_descriptor(d);
  return d;
}

/// One completed request.  `request` indexes the flow's grids, and equals
/// the grid count for the instance's closing MC.
struct Done {
  std::size_t instance;
  std::size_t request;
  double end_s;  // completion, from the start of the serve
  double ms;
  double queue_wait_ms;
  bool rerun;
  bool cache_hit;
  sp::dist::Digest digest;
};

/// One completed flow instance: an operation.
struct Op {
  double end_s;  // completion, from the start of the serve
  double ms;     // first submit to last result
  bool rerun;
};

struct ClientLog {
  std::vector<std::uint64_t> instances;  // seed of each new flow instance
  std::vector<Done> done;
  std::vector<Op> ops;
  std::string error;
};

/// Pins the calling thread, and so every thread and process it starts
/// from then on, to the first CPU it may run on; restores the old set when
/// destroyed.  No thread of the fleet is CPU-bound: a request is a chain
/// of hand-offs (client, service, worker, service, client).  On one CPU
/// each hand-off is a local context switch and the fleet is CPU-bound; on
/// more, a hand-off can wake an idle vCPU, which a shared VM resumes after
/// a delay that changes with the host's load.  In alternating 30 s runs on
/// a 4-vCPU VM, a fleet on 1 CPU served 159-169 requests/s and one on 2
/// CPUs 185-227 (perfbench/README.md).
class FleetCpu {
 public:
  FleetCpu() {
    CPU_ZERO(&old_);
    if (::sched_getaffinity(0, sizeof old_, &old_) != 0 ||
        CPU_COUNT(&old_) < 2)
      return;
    int first = 0;
    while (!CPU_ISSET(first, &old_)) ++first;
    cpu_set_t pinned;
    CPU_ZERO(&pinned);
    CPU_SET(first, &pinned);
    if (::sched_setaffinity(0, sizeof pinned, &pinned) == 0) cpu_ = first;
  }
  ~FleetCpu() {
    if (cpu_ >= 0) (void)::sched_setaffinity(0, sizeof old_, &old_);
  }
  FleetCpu(const FleetCpu&) = delete;
  FleetCpu& operator=(const FleetCpu&) = delete;

  /// The CPU pinned to, -1 when the thread was left as it was.
  int cpu() const { return cpu_; }

 private:
  cpu_set_t old_;
  int cpu_ = -1;
};

class Fleet {
 public:
  /// Binds a service and spawns 2 resident workers (1 pool thread each),
  /// returning once both are admitted.
  Fleet() {
    sp::dist::ServiceOptions so;
    so.idle_timeout_ms = 2000;  // also bounds a wake-up lost to a dead client
    so.cache_max_bytes = kCacheBytes;
    svc_ = std::make_unique<sp::dist::Service>(so);
    const char* old = std::getenv("STATPIPE_THREADS");
    const std::string saved = old ? old : "";
    ::setenv("STATPIPE_THREADS", "1", 1);
    try {
      for (int i = 0; i < 2; ++i)
        kids_.push_back(sp::dist::spawn_worker_process(
            STATPIPE_WORKER_BIN, svc_->port(), /*quiet=*/true, "",
            /*serve=*/true));
    } catch (...) {
      restore_env(old, saved);
      close();
      throw;
    }
    restore_env(old, saved);
    const auto t0 = Clock::now();
    svc_->run([&] {
      return svc_->stats().workers_admitted >= 2 || ms_since(t0) > 30000.0;
    });
    if (svc_->stats().workers_admitted < 2) {
      close();
      throw std::runtime_error("service_mixed: workers did not connect");
    }
  }
  ~Fleet() { close(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  sp::dist::Service& service() { return *svc_; }

  /// kShutdown to the fleet, then reap (SIGKILL after a grace period).
  void close() {
    if (!svc_) return;
    svc_->shutdown_workers();
    for (pid_t pid : kids_) {
      int status = 0;
      pid_t got = 0;
      for (int waited = 0; waited < 5000 && got == 0; waited += 10) {
        got = ::waitpid(pid, &status, WNOHANG);
        if (got == 0) {
          svc_->drain_backlog();
          ::usleep(10 * 1000);
        }
      }
      if (got == 0) {
        ::kill(pid, SIGKILL);
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
      }
    }
    kids_.clear();
    svc_.reset();
  }

 private:
  static void restore_env(const char* old, const std::string& saved) {
    if (old)
      ::setenv("STATPIPE_THREADS", saved.c_str(), 1);
    else
      ::unsetenv("STATPIPE_THREADS");
  }
  std::unique_ptr<sp::dist::Service> svc_;
  std::vector<pid_t> kids_;
};

/// Serves `reqs` in order to one fresh client: the fleet's first flow
/// instance, in which the workers build the netlists the traffic uses.
void first_flow(Fleet& fleet, const std::vector<sp::dist::RunDescriptor>& reqs) {
  sp::dist::Service& svc = fleet.service();
  std::atomic<bool> done{false};
  std::string error;
  std::thread client([&] {
    try {
      sp::dist::ServiceClient c("127.0.0.1", svc.port());
      for (const auto& d : reqs) (void)c.wait(c.submit(d));
      done = true;  // before the disconnect that wakes the service loop
    } catch (const std::exception& e) {
      error = e.what();
      done = true;
    }
  });
  svc.run([&] { return done.load(); });
  client.join();
  if (!error.empty())
    throw std::runtime_error("service_mixed: first flow failed: " + error);
}

/// One closed-loop client session: flow instances, each its recorded grids
/// then its MC, one request at a time, until `seconds` elapsed (and at
/// least `min_requests` completed).  Bumps `finished` before
/// disconnecting, so the disconnect wakes a service loop whose stop
/// condition already holds.
void client_loop(std::uint16_t port, std::uint32_t priority,
                 std::uint64_t seed, double seconds, std::size_t min_requests,
                 std::uint64_t rid_base, const std::vector<FlowGrid>& flow,
                 ClientLog& log, std::atomic<int>& finished) {
  trace_thread("client" + std::to_string(priority));
  bool counted = false;
  try {
    SeedStream g{seed};
    std::vector<sp::dist::RunDescriptor> reqs;
    for (const FlowGrid& f : flow) reqs.push_back(f.desc);
    reqs.push_back(mc_miss_descriptor(0));
    sp::dist::ServiceClient client("127.0.0.1", port);
    const auto start = Clock::now();
    for (std::size_t k = 0; ms_since(start) < seconds * 1000.0 ||
                            log.done.size() < min_requests;
         ++k) {
      const bool rerun = k % kRerunEvery == kRerunEvery - 1;
      if (!rerun) log.instances.push_back(g.next());
      const std::size_t recent = std::min(kRecent, log.instances.size());
      const std::size_t inst =
          log.instances.size() - 1 - (rerun ? g.next() % recent : 0);
      const auto op_t0 = Clock::now();
      for (std::size_t j = 0; j < reqs.size(); ++j) {
        reseed(reqs[j], log.instances[inst]);
        Scope req("dist.request", rid_base + log.done.size() + 1);
        const auto t0 = Clock::now();
        std::uint64_t id = 0;
        {
          Scope s("dist.submit");
          id = client.submit(reqs[j], priority);
        }
        sp::dist::TaskResult r;
        {
          Scope s("dist.wait");
          r = client.wait(id);
        }
        const double ms = ms_since(t0);
        const auto& info = client.info(id);
        log.done.push_back({inst, j, ms_since(start) / 1000.0, ms,
                            info.queue_wait_ms, rerun,
                            info.cache_hit, result_digest(r)});
      }
      log.ops.push_back({ms_since(start) / 1000.0, ms_since(op_t0), rerun});
    }
    ++finished;
    counted = true;
  } catch (const std::exception& e) {
    log.error = e.what();
  }
  if (!counted) ++finished;
}

struct ServiceRun {
  std::vector<ClientLog> logs{2};
  double elapsed_s = 0.0;
  std::vector<double> all_ms, hit_ms, grid_ms, mc_ms, queue_ms, end_s;
  std::vector<double> op_ms, op_end_s, rerun_op_ms, new_op_ms;
  std::size_t requests = 0, hits = 0, instances = 0;
};

/// Serves two closed-loop clients for `seconds`, then checks every result
/// against its run_local_task reference: the recorded digest for a grid,
/// and for an MC one computed after the loop, fanned out over the pool.
ServiceRun serve_clients(Fleet& fleet, const std::vector<FlowGrid>& flow,
                         std::uint64_t seed, double seconds,
                         std::size_t min_requests, Report& rep) {
  ServiceRun run;
  sp::dist::Service& svc = fleet.service();
  std::atomic<int> clients_done{0};
  std::string service_error;
  std::thread server([&] {
    trace_thread("service");
    try {
      svc.run([&] { return clients_done.load() == 2; });
    } catch (const std::exception& e) {
      service_error = e.what();
    }
  });
  SeedStream g{seed};
  const auto start = Clock::now();
  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < 2; ++c) {
    const std::uint64_t cseed = g.next();
    clients.emplace_back([&, c, cseed] {
      client_loop(svc.port(), /*priority=*/1 - c, cseed, seconds,
                  min_requests / 2, (std::uint64_t{c} + 1) << 32, flow,
                  run.logs[c], clients_done);
    });
  }
  for (auto& t : clients) t.join();
  run.elapsed_s = ms_since(start) / 1000.0;
  server.join();
  rep.check(service_error.empty(),
            "service_mixed: service loop threw: " + service_error);

  Scope s("dist.verify");
  const sp::dist::RunDescriptor mc = mc_miss_descriptor(0);
  for (const ClientLog& log : run.logs) {
    rep.check(log.error.empty(), "service_mixed: client failed: " + log.error);
    std::vector<sp::dist::Digest> mc_ref(log.instances.size());
    sp::sim::parallel_for(log.instances.size(), [&](std::size_t i) {
      sp::dist::RunDescriptor d = mc;
      reseed(d, log.instances[i]);
      mc_ref[i] = result_digest(sp::dist::run_local_task(d));
    });
    run.instances += log.instances.size();
    for (const Op& op : log.ops) {
      run.op_ms.push_back(op.ms);
      run.op_end_s.push_back(op.end_s);
      (op.rerun ? run.rerun_op_ms : run.new_op_ms).push_back(op.ms);
    }
    for (const Done& d : log.done) {
      const bool is_mc = d.request == flow.size();
      ++run.requests;
      run.all_ms.push_back(d.ms);
      run.end_s.push_back(d.end_s);
      if (d.rerun) {
        ++run.hits;
        run.hit_ms.push_back(d.ms);
      } else {
        run.queue_ms.push_back(d.queue_wait_ms);
        (is_mc ? run.mc_ms : run.grid_ms).push_back(d.ms);
      }
      rep.check(d.digest == (is_mc ? mc_ref[d.instance] : flow[d.request].ref),
                "service_mixed: result differs from run_local_task");
      rep.check(d.cache_hit == d.rerun,
                "service_mixed: cache hit flag does not match the request");
    }
  }
  rep.check(run.requests >= min_requests,
            "service_mixed: only " + std::to_string(run.requests) +
                " requests completed");
  return run;
}

/// The serve's operation metrics, each the median over kWindows equal
/// windows of the serve of that window's value (flow instances and
/// requests by completion time).  The service's requests pass through four
/// threads, so a burst of host CPU steal slows all of them; one that
/// covers less than half the windows moves none of the medians.
constexpr std::size_t kWindows = 10;
void report_windowed_ops(Report& rep, const ServiceRun& r) {
  const double window_s = r.elapsed_s / static_cast<double>(kWindows);
  auto window = [&](double end_s) {
    return std::min(kWindows - 1, static_cast<std::size_t>(end_s / window_s));
  };
  std::vector<std::vector<double>> ms(kWindows);
  for (std::size_t i = 0; i < r.op_end_s.size(); ++i)
    ms[window(r.op_end_s[i])].push_back(r.op_ms[i]);
  std::vector<double> requests(kWindows, 0.0);
  for (double end_s : r.end_s) requests[window(end_s)] += 1.0;
  std::vector<double> p10, p50, rate;
  for (std::size_t w = 0; w < kWindows; ++w) {
    p10.push_back(percentile(ms[w], 0.10));
    p50.push_back(percentile(ms[w], 0.50));
    rate.push_back(requests[w] / window_s);
  }
  rep.e2e("op_p10_ms", median(p10), "ms");
  rep.e2e("op_p50_ms", median(p50), "ms");
  rep.e2e("work_per_s", median(rate), "1/s");
  std::printf("# service_mixed: requests/s per window:");
  for (double x : rate) std::printf(" %.0f", x);
  std::printf("\n");
}

void print_service_counts(const std::vector<FlowGrid>& flow,
                          const ServiceRun& r) {
  std::string shape;
  for (const FlowGrid& f : flow)
    shape += " " + f.desc.workload + "x" +
             std::to_string(f.desc.size_grid.size());
  std::printf(
      "# service_mixed: flow grids (netlist x lanes):%s; %zu requests in "
      "%.2f s from %zu flow instances (cache hits %zu, hit share %.3f); "
      "%zu samples beyond p90; p50 by kind: hit %.3f ms, grid %.3f ms, "
      "mc miss %.3f ms; %zu operations, p50 re-run %.3f ms, new %.3f ms\n",
      shape.c_str(), r.requests, r.elapsed_s, r.instances, r.hits,
      static_cast<double>(r.hits) / static_cast<double>(r.requests),
      r.requests - static_cast<std::size_t>(
                       std::ceil(0.9 * static_cast<double>(r.requests))),
      median(r.hit_ms), median(r.grid_ms), median(r.mc_ms), r.op_ms.size(),
      median(r.rerun_op_ms), median(r.new_op_ms));
}

/// The SSTA-grid kernel the workers run, per lane, over the flow's grids.
void grid_layer_timing(const std::vector<FlowGrid>& flow, Report& rep) {
  Scope s("sta.characterize_grid");
  double us = 0.0;
  std::size_t lanes = 0;
  for (const FlowGrid& f : flow) {
    const sp::netlist::Netlist nl = sp::dist::build_grid_stage(f.desc);
    const sp::device::AlphaPowerModel model{
        sp::dist::descriptor_technology(f.desc)};
    const sp::sta::SstaBatch batch(nl, model);
    const auto configs = sp::sta::make_configs(
        f.desc.size_grid, sp::dist::descriptor_spec(f.desc));
    us += median_us(5, [&] { (void)batch.characterize(configs); });
    lanes += configs.size();
  }
  rep.layer("sta.grid_lane_us", us / static_cast<double>(lanes), "us");
}

void run_service_mixed(const Options& o, double seconds, Report& rep) {
  Scope top("workload.service_mixed");
  const std::vector<FlowGrid> flow = record_flow_grids();
  // From here on, set-up and serve run on the fleet's CPU; the pool
  // threads, started earlier, keep every CPU for the references.
  const FleetCpu pin;
  if (pin.cpu() >= 0)
    std::printf("# service_mixed: fleet pinned to CPU %d\n", pin.cpu());
  else
    std::printf("# service_mixed: fleet not pinned (one CPU allowed)\n");
  // Set-up: the fleet is ready and has served one flow instance from cold
  // workers.
  std::vector<sp::dist::RunDescriptor> cold;
  for (const FlowGrid& f : flow) cold.push_back(f.desc);
  cold.push_back(mc_miss_descriptor(0));
  const int warm = rep.traced ? 2 : 5, timed = rep.traced ? 5 : 21;
  std::unique_ptr<Fleet> fleet;
  std::vector<double> ready_ms;
  const double setup_s = median_setup_s(
      warm, timed,
      [&] {
        const auto t0 = Clock::now();
        {
          Scope s("dist.fleet_ready");
          fleet = std::make_unique<Fleet>();
        }
        ready_ms.push_back(ms_since(t0));
        Scope s("dist.first_flow");
        first_flow(*fleet, cold);
      },
      [&] { fleet.reset(); });
  ready_ms.erase(ready_ms.begin(), ready_ms.begin() + warm);
  {
    // Warm-up: the workers build every netlist the traffic uses.
    Report warm_rep;
    (void)serve_clients(*fleet, flow, o.seed ^ 0x5741524dULL, 0.2, 24,
                        warm_rep);
    rep.check(warm_rep.failed == 0, "service_mixed: warm-up requests failed");
  }
  ObsDelta obs;
  const ServiceRun r = serve_clients(*fleet, flow, o.seed, seconds, 100, rep);
  obs.stop();
  fleet->close();
  print_service_counts(flow, r);
  rep.e2e("setup_s", setup_s, "s");
  report_windowed_ops(rep, r);
  if (!rep.traced) return;

  const double requests = static_cast<double>(r.requests);
  const double misses = static_cast<double>(r.requests - r.hits);
  rep.layer("dist.fleet_ready_ms", median(ready_ms), "ms");
  rep.layer("dist.request_p90_ms", percentile(r.all_ms, 0.90), "ms");
  rep.layer("dist.queue_wait_ms", mean(r.queue_ms), "ms");
  rep.layer("dist.cache_hit_ms", median(r.hit_ms), "ms");
  rep.layer("dist.cache_hit_ratio",
            obs.counter("dist.service.cache.hits") / requests, "frac");
  rep.layer("dist.ranges_per_miss", obs.counter("dist.assigns") / misses,
            "count");
  // Bytes sent by every in-process endpoint (the service and both clients).
  rep.layer("dist.tx_bytes_per_request",
            obs.counter("dist.tx_bytes") / requests, "B");
  {
    // Serial reference runs of the first MC misses: the compute a miss
    // pays inside a worker, without the service around it.
    std::vector<double> local_ms;
    sp::dist::RunDescriptor d = mc_miss_descriptor(0);
    for (std::uint64_t seed : r.logs[0].instances) {
      reseed(d, seed);
      Scope s("dist.run_local_task");
      local_ms.push_back(timed_ms([&] { (void)sp::dist::run_local_task(d); }));
      if (local_ms.size() == 20) break;
    }
    rep.layer("dist.local_compute_ms", median(local_ms), "ms");
    rep.layer("dist.request_overhead_ms", median(r.mc_ms) - median(local_ms),
              "ms");
  }
  grid_layer_timing(flow, rep);
}

// ============================================================ dispatch

using WorkloadFn = void (*)(const Options&, double, Report&);
const std::array<std::pair<const char*, WorkloadFn>, 3> kWorkloads{{
    {"paper_sizer", run_paper_sizer},
    {"mc_full_variation", run_mc_full_variation},
    {"service_mixed", run_service_mixed},
}};

WorkloadFn find_workload(const std::string& name) {
  for (const auto& [n, fn] : kWorkloads)
    if (name == n) return fn;
  return nullptr;
}

/// Writes the benchmark's spans and the obs metrics snapshot, and reports
/// their paths for tools/trace_check.py.
void write_traces(const Options& o) {
  const std::string stem =
      o.trace_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed);
  g_tracer.write(stem + ".json");
  sp::obs::write_metrics_json(stem + ".metrics.json");
  std::printf("# trace %s.json metrics %s.metrics.json\n", stem.c_str(),
              stem.c_str());
}

/// Every workload function for kTracedSeconds with telemetry and spans on.
/// The named workload also runs the same length with them off, before and
/// after; its tracing overhead is the mean untraced work/s over the traced
/// work/s, minus 1.
void run_traced(const Options& o, Report& rep) {
  const WorkloadFn named = find_workload(o.workload);
  auto untraced_work = [&] {
    Report plain;
    named(o, kTracedSeconds, plain);
    rep.attempted += plain.attempted;
    rep.failed += plain.failed;
    return plain.end_to_end.at("work_per_s").value;
  };
  double plain_work = untraced_work();
  double traced_work = 0.0;
  auto set_tracing = [](bool on) {
    g_tracer.set_on(on);
    sp::obs::set_enabled(on);
  };
  set_tracing(true);
  trace_thread("main");
  {
    Scope top("perfbench.traced");
    for (const auto& [name, fn] : kWorkloads) {
      fn(o, kTracedSeconds, rep);
      if (fn == named) traced_work = rep.end_to_end.at("work_per_s").value;
    }
  }
  set_tracing(false);
  plain_work = (plain_work + untraced_work()) / 2.0;
  rep.layer("obs.trace_overhead_frac", plain_work / traced_work - 1.0,
            "frac");
  write_traces(o);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  long long make_reference = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = val();
    else if (a == "--seed") o.seed = std::stoull(val());
    else if (a == "--seconds") o.seconds = std::stod(val());
    else if (a == "--trace") o.trace = val() == "1";
    else if (a == "--trace-dir") o.trace_dir = val();
    else if (a == "--make-reference") make_reference = std::stoll(val());
    else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  // Pin the pool before anything can spawn workers with another width.
  const std::size_t pool_threads = sp::sim::ThreadPool::shared().thread_count();
  std::printf("# pool threads %zu (STATPIPE_THREADS=%s)\n", pool_threads,
              std::getenv("STATPIPE_THREADS") ? std::getenv("STATPIPE_THREADS")
                                               : "unset");
  if (make_reference > 0) {
    const auto desc = mc_descriptor(1, static_cast<std::size_t>(make_reference));
    const auto r = sp::dist::run_local(desc);
    const auto est = r.tp_estimate();
    std::printf("samples %lld mean %.9g sigma %.9g\n", make_reference,
                est.mean, est.sigma);
    return 0;
  }
  const WorkloadFn run = find_workload(o.workload);
  if (!run) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  Report rep;
  rep.traced = o.trace;
  try {
    if (o.trace)
      run_traced(o, rep);
    else
      run(o, o.seconds, rep);
  } catch (const std::exception& e) {
    std::printf("# run aborted: %s\n", e.what());
    rep.check(false, std::string("exception: ") + e.what());
  }
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  rep.print();
  return rep.failed == 0 ? 0 : 1;
}
