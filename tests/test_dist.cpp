// Distributed execution subsystem tests: serialization round-trips (byte
// stability, version gating, truncation/hostile-length fuzz — including
// the v2 task-kind discriminator and the SSTA grid payload), protocol/
// transport behavior (v3 streaming results, HMAC frame authentication,
// fault-injected sockets, the hostile-peer saboteur matrix), and the
// acceptance contract — a c3540-class gate-level MC run AND an SSTA sweep
// grid sharded across real worker PROCESSES over localhost TCP are
// bitwise-identical to the single-process runs, including under injected
// worker failures, hostile peers and reassignment (docs/DETERMINISM.md).
#include <gtest/gtest.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codec_oracle.h"
#include "dist/cluster.h"
#include "dist/hmac.h"
#include "dist/serialize.h"
#include "dist/service.h"
#include "dist/task.h"
#include "dist/transport.h"
#include "dist/worker.h"
#include "dist/workload.h"
#include "mc/pipeline_mc.h"
#include "netlist/generators.h"
#include "obs/telemetry.h"
#include "opt/sweep.h"
#include "sta/ssta_batch.h"
#include "stats/rng.h"

extern char** environ;

namespace sp = statpipe;
using sp::dist::ByteReader;
using sp::dist::ByteWriter;

namespace {

// ------------------------------------------------------------- helpers

sp::dist::RunDescriptor small_descriptor(
    const std::string& workload = "c432", std::uint64_t samples = 1024,
    std::uint64_t samples_per_shard = 128) {
  sp::dist::RunDescriptor d;
  d.workload = workload;
  d.seed = 20260729;
  d.n_samples = samples;
  d.samples_per_shard = samples_per_shard;
  d.block_width = 8;
  d.sigma_vth_inter = 0.020;
  d.sigma_vth_systematic = 0.0;  // field off; FieldOn* tests turn it on
  d.enable_rdf = 1;
  sp::dist::finalize_descriptor(d);
  return d;
}

pid_t spawn_worker_process(std::uint16_t port, const std::string& key = "") {
  const char* bin = STATPIPE_WORKER_BIN;
  const std::string port_s = std::to_string(port);
  std::vector<char*> args{const_cast<char*>(bin),
                          const_cast<char*>("--port"),
                          const_cast<char*>(port_s.c_str())};
  if (!key.empty()) {
    args.push_back(const_cast<char*>("--key"));
    args.push_back(const_cast<char*>(key.c_str()));
  }
  args.push_back(const_cast<char*>("--quiet"));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, bin, nullptr, nullptr, args.data(),
                               environ);
  EXPECT_EQ(rc, 0) << "posix_spawn " << bin;
  return rc == 0 ? pid : -1;
}

// One hostile peer, one attack (tools/statpipe_saboteur.cpp): the chaos
// matrix spawns these against live coordinators.
pid_t spawn_saboteur_process(std::uint16_t port, const std::string& mode,
                             const std::string& key = "") {
  const char* bin = STATPIPE_SABOTEUR_BIN;
  const std::string port_s = std::to_string(port);
  std::vector<char*> args{const_cast<char*>(bin),
                          const_cast<char*>("--port"),
                          const_cast<char*>(port_s.c_str()),
                          const_cast<char*>("--mode"),
                          const_cast<char*>(mode.c_str())};
  if (!key.empty()) {
    args.push_back(const_cast<char*>("--key"));
    args.push_back(const_cast<char*>(key.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, bin, nullptr, nullptr, args.data(),
                               environ);
  EXPECT_EQ(rc, 0) << "posix_spawn " << bin;
  return rc == 0 ? pid : -1;
}

// Reaps a spawned worker after handle.close() while draining the
// listener backlog, so a worker that connected only after the run
// completed is dismissed with kShutdown instead of hanging in its setup
// read.
void reap(sp::dist::ClusterHandle& handle, pid_t pid, int expect_status = 0) {
  if (pid < 0) return;
  int status = 0;
  pid_t got;
  while ((got = ::waitpid(pid, &status, WNOHANG)) == 0) {
    handle.drain_backlog();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(got, pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), expect_status);
}

// A small SSTA sweep-grid descriptor: `lanes` uniformly scaled copies of
// the circuit's base sizes (every lane a full size vector, as the wire
// format requires).
sp::dist::RunDescriptor grid_descriptor(const std::string& name = "c432",
                                        std::size_t lanes = 6) {
  sp::dist::RunDescriptor d;
  d.task_kind = sp::dist::TaskKind::kSstaGrid;
  d.workload = name;
  d.seed = 20260729;
  const auto nl = sp::netlist::iscas_like(name);
  d.size_grid.assign(lanes, nl.sizes());
  for (std::size_t k = 0; k < lanes; ++k)
    for (double& s : d.size_grid[k]) s *= 1.0 + 0.07 * static_cast<double>(k);
  sp::dist::finalize_descriptor(d);
  return d;
}

sp::stats::RunningStats random_stats(std::mt19937_64& g, std::size_t n) {
  std::normal_distribution<double> d(250.0, 40.0);
  sp::stats::RunningStats s;
  for (std::size_t i = 0; i < n; ++i) s.add(d(g));
  return s;
}

// ---------------------------------------------------------- serialization

TEST(DistSerialize, PrimitivesRoundTripLittleEndian) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(-1234.5678e-9);
  w.str("shard range");
  // Wire bytes are defined, not host-dependent: check u16's layout.
  EXPECT_EQ(w.bytes()[1], 0x34);  // low byte first
  EXPECT_EQ(w.bytes()[2], 0x12);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.f64(), -1234.5678e-9);
  EXPECT_EQ(r.str(), "shard range");
  EXPECT_TRUE(r.done());
}

TEST(DistSerialize, TruncatedPayloadThrows) {
  ByteWriter w;
  w.u64(7);
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.pop_back();
  ByteReader r(bytes);
  EXPECT_THROW(r.u64(), std::runtime_error);
  // Hostile vector length must throw, not allocate.
  ByteWriter w2;
  w2.u64(~0ULL);
  ByteReader r2(w2.bytes());
  EXPECT_THROW(r2.f64_vec(), std::runtime_error);
}

TEST(DistSerialize, RunningStatsRoundTripIsExact) {
  std::mt19937_64 g(42);
  for (int rep = 0; rep < 50; ++rep) {
    const auto s = random_stats(g, 1 + static_cast<std::size_t>(g() % 500));
    ByteWriter w;
    sp::dist::write_running_stats(w, s);
    ByteReader r(w.bytes());
    const auto back = sp::dist::read_running_stats(r);
    EXPECT_TRUE(r.done());
    // Exact, not approximate: every internal field crosses the wire as its
    // bit pattern.
    EXPECT_EQ(back.count(), s.count());
    EXPECT_EQ(back.mean(), s.mean());
    EXPECT_EQ(back.variance(), s.variance());
    EXPECT_EQ(back.min(), s.min());
    EXPECT_EQ(back.max(), s.max());
    // Byte-stable: serialize(deserialize(b)) == b.
    ByteWriter w2;
    sp::dist::write_running_stats(w2, back);
    EXPECT_EQ(w.bytes(), w2.bytes());
  }
}

TEST(DistSerialize, HistogramRoundTrip) {
  sp::stats::Histogram h(100.0, 300.0, 32);
  std::mt19937_64 g(7);
  std::normal_distribution<double> d(200.0, 30.0);
  for (int i = 0; i < 5000; ++i) h.add(d(g));
  ByteWriter w;
  sp::dist::write_histogram(w, h);
  ByteReader r(w.bytes());
  const auto back = sp::dist::read_histogram(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.lo(), h.lo());
  EXPECT_EQ(back.hi(), h.hi());
  EXPECT_EQ(back.bins(), h.bins());
  EXPECT_EQ(back.total(), h.total());
  for (std::size_t i = 0; i < h.bins(); ++i)
    EXPECT_EQ(back.count(i), h.count(i));
}

TEST(DistSerialize, McResultRoundTripFuzzIsByteStable) {
  std::mt19937_64 g(1234);
  std::normal_distribution<double> d(250.0, 40.0);
  for (int rep = 0; rep < 25; ++rep) {
    sp::mc::McResult m;
    m.label = rep % 3 == 0 ? "" : "fuzz run " + std::to_string(rep);
    const std::size_t n = g() % 200;
    for (std::size_t i = 0; i < n; ++i) m.tp_samples.push_back(d(g));
    m.stage_stats.resize(g() % 5);
    for (auto& s : m.stage_stats) s = random_stats(g, g() % 100);
    const auto bytes = sp::dist::serialize_mc_result(m);
    const auto back = sp::dist::deserialize_mc_result(bytes);
    EXPECT_EQ(sp::dist::serialize_mc_result(back), bytes);
    EXPECT_TRUE(sp::dist::bitwise_equal(m, back));
  }
}

TEST(DistSerialize, HostileStageCountThrowsInsteadOfAllocating) {
  ByteWriter w;
  w.str("evil");
  w.f64_vec({});             // no samples
  w.u64(1ULL << 60);         // claimed stage count
  ByteReader r(w.bytes());
  EXPECT_THROW(sp::dist::read_mc_result(r), std::runtime_error);
}

TEST(DistSerialize, ResultBlobRejectsBadMagicAndVersion) {
  sp::mc::McResult m;
  m.tp_samples = {1.0, 2.0};
  m.stage_stats.resize(1);
  auto bytes = sp::dist::serialize_mc_result(m);
  auto corrupt = bytes;
  corrupt[0] ^= 0xff;
  EXPECT_THROW(sp::dist::deserialize_mc_result(corrupt), std::runtime_error);
  auto future = bytes;
  future[4] = 0x7f;  // version low byte
  EXPECT_THROW(sp::dist::deserialize_mc_result(future), std::runtime_error);
}

TEST(DistSerialize, RunDescriptorRoundTrip) {
  const auto d = small_descriptor("c432,c880", 2048, 256);
  ByteWriter w;
  sp::dist::write_run_descriptor(w, d);
  ByteReader r(w.bytes());
  const auto back = sp::dist::read_run_descriptor(r);
  r.expect_done();
  EXPECT_EQ(back.workload, d.workload);
  EXPECT_EQ(back.netlist_hash, d.netlist_hash);
  EXPECT_EQ(back.seed, d.seed);
  EXPECT_EQ(back.root_seed, d.root_seed);
  EXPECT_EQ(back.n_samples, d.n_samples);
  EXPECT_EQ(back.samples_per_shard, d.samples_per_shard);
  EXPECT_EQ(back.block_width, d.block_width);
  EXPECT_EQ(back.sigma_vth_inter, d.sigma_vth_inter);
  EXPECT_EQ(back.enable_rdf, d.enable_rdf);
  EXPECT_EQ(back.output_load, d.output_load);
  EXPECT_EQ(back.latch_tcq_ps, d.latch_tcq_ps);
}

// The memcpy codec against the byte-by-byte oracle (tests/codec_oracle.h).
// Fuzzed descriptors carry arbitrary f64 bit patterns (NaN payloads
// included), empty and ragged lanes and arbitrary name bytes: nothing a
// validating reader downstream would accept is assumed.
sp::dist::RunDescriptor fuzzed_descriptor(std::mt19937_64& g) {
  auto any_f64 = [&] { return std::bit_cast<double>(g()); };
  sp::dist::RunDescriptor d;
  d.task_kind = g() % 2 == 0 ? sp::dist::TaskKind::kMonteCarlo
                             : sp::dist::TaskKind::kSstaGrid;
  d.workload.resize(g() % 24);
  for (char& c : d.workload) c = static_cast<char>(g());
  for (std::uint64_t* v : {&d.netlist_hash, &d.seed, &d.root_seed,
                           &d.n_samples, &d.samples_per_shard,
                           &d.block_width})
    *v = g();
  d.size_grid.resize(g() % 5);
  for (auto& lane : d.size_grid) {
    lane.resize(g() % 40);
    for (double& s : lane) s = any_f64();
  }
  d.enable_rdf = static_cast<std::uint8_t>(g());
  for (double* v : {&d.sigma_vth_inter, &d.sigma_vth_systematic,
                    &d.correlation_length, &d.sigma_l_inter_rel,
                    &d.sigma_l_systematic_rel, &d.output_load,
                    &d.latch_tcq_ps, &d.latch_tsetup_ps,
                    &d.latch_random_sigma_rel, &d.tech_vdd, &d.tech_vth0,
                    &d.tech_leff, &d.tech_wmin, &d.tech_alpha,
                    &d.tech_tau_ps, &d.tech_avt})
    *v = any_f64();
  return d;
}

std::vector<std::uint8_t> encode(const sp::dist::RunDescriptor& d) {
  ByteWriter w;
  sp::dist::write_run_descriptor(w, d);
  return w.take();
}

TEST(DistSerialize, PrimitivesMatchByteByByteOracle) {
  std::mt19937_64 g(99);
  ByteWriter w;
  codec_oracle::Writer o;
  for (int rep = 0; rep < 200; ++rep) {
    const std::uint64_t v = g();
    w.u8(static_cast<std::uint8_t>(v));
    o.u8(static_cast<std::uint8_t>(v));
    w.u16(static_cast<std::uint16_t>(v));
    o.u16(static_cast<std::uint16_t>(v));
    w.u32(static_cast<std::uint32_t>(v));
    o.u32(static_cast<std::uint32_t>(v));
    w.u64(v);
    o.u64(v);
    w.f64(std::bit_cast<double>(v));
    o.f64(std::bit_cast<double>(v));
  }
  EXPECT_EQ(w.bytes(), o.buf);
  // Read back with both readers: the same values in the same order.
  ByteReader r(w.bytes());
  codec_oracle::Reader ro(o.buf);
  for (int rep = 0; rep < 200; ++rep) {
    EXPECT_EQ(r.u8(), ro.u8());
    EXPECT_EQ(r.u16(), ro.u16());
    EXPECT_EQ(r.u32(), ro.u32());
    EXPECT_EQ(r.u64(), ro.u64());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
              std::bit_cast<std::uint64_t>(ro.f64()));
  }
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(ro.done());
}

TEST(DistSerialize, DescriptorCodecMatchesByteByByteOracle) {
  std::mt19937_64 g(4242);
  std::vector<sp::dist::RunDescriptor> descs = {
      small_descriptor("c432,c880", 2048, 256), grid_descriptor("c432", 5)};
  for (int rep = 0; rep < 300; ++rep) descs.push_back(fuzzed_descriptor(g));
  for (std::size_t i = 0; i < descs.size(); ++i) {
    const auto& d = descs[i];
    const std::vector<std::uint8_t> bytes = encode(d);
    const std::vector<std::uint8_t> oracle =
        codec_oracle::run_descriptor_bytes(d);
    ASSERT_EQ(bytes, oracle) << "descriptor " << i;
    // The size write_run_descriptor reserves is the size it writes.
    EXPECT_EQ(sp::dist::run_descriptor_wire_bytes(d), bytes.size());
    // Each codec decodes the other's bytes back to the same bytes — the
    // bijection the service's cache key relies on.
    ByteReader r(oracle);
    const auto back = sp::dist::read_run_descriptor(r);
    r.expect_done();
    EXPECT_EQ(codec_oracle::run_descriptor_bytes(back), oracle)
        << "descriptor " << i;
    EXPECT_EQ(encode(codec_oracle::read_run_descriptor(bytes)), bytes)
        << "descriptor " << i;
  }
}

TEST(DistSerialize, ResultBlobsMatchByteByByteOracle) {
  std::mt19937_64 g(1234);
  std::normal_distribution<double> d(250.0, 40.0);
  for (int rep = 0; rep < 50; ++rep) {
    sp::mc::McResult m;
    m.label = rep % 3 == 0 ? "" : "fuzz run " + std::to_string(rep);
    const std::size_t n = g() % 300;
    for (std::size_t i = 0; i < n; ++i)
      m.tp_samples.push_back(i % 7 == 0 ? std::bit_cast<double>(g()) : d(g));
    m.stage_stats.resize(g() % 5);
    for (auto& s : m.stage_stats) s = random_stats(g, g() % 100);
    const auto oracle = codec_oracle::mc_result_blob(m);
    EXPECT_EQ(sp::dist::serialize_mc_result(m), oracle) << "result " << rep;
    EXPECT_EQ(codec_oracle::mc_result_blob(
                  sp::dist::deserialize_mc_result(oracle)),
              oracle)
        << "result " << rep;

    std::vector<sp::sta::StageCharacterization> lanes(g() % 12);
    for (auto& c : lanes) {
      c.delay = {d(g), std::abs(d(g))};
      c.sigma_inter = std::abs(d(g));
      c.sigma_private = std::bit_cast<double>(g());
      c.area = std::abs(d(g));
      c.nominal_delay = d(g);
    }
    const auto lane_oracle = codec_oracle::characterizations_blob(lanes);
    EXPECT_EQ(sp::dist::serialize_characterizations(lanes), lane_oracle)
        << "lanes " << rep;
    EXPECT_EQ(codec_oracle::characterizations_blob(
                  sp::dist::deserialize_characterizations(lane_oracle)),
              lane_oracle)
        << "lanes " << rep;
  }
}

// ------------------------------------------------------------- workload

TEST(DistWorkload, HashMismatchIsRejected) {
  auto d = small_descriptor();
  d.netlist_hash ^= 1;
  EXPECT_THROW(sp::dist::Workload::make(d), std::invalid_argument);
}

TEST(DistWorkload, NonFiniteFieldInputsAreRejected) {
  // A wire descriptor with the systematic field on must not reach the
  // sampler with a correlation length that would turn every sample NaN.
  for (const double len : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 0.0,
                           -1.0}) {
    auto d = small_descriptor();
    d.sigma_vth_systematic = 0.010;
    d.correlation_length = len;
    EXPECT_THROW(sp::dist::Workload::make(d), std::invalid_argument)
        << "L=" << len;
  }
}

TEST(DistWorkload, UnknownCircuitIsRejected) {
  sp::dist::RunDescriptor d;
  d.workload = "c9999";
  d.n_samples = 16;
  EXPECT_THROW(sp::dist::finalize_descriptor(d), std::invalid_argument);
}

TEST(DistWorkload, StructuralHashDetectsStageEdits) {
  auto a = sp::netlist::iscas_like("c432");
  auto b = sp::netlist::iscas_like("c432");
  EXPECT_EQ(a.structural_hash(), b.structural_hash());
  b.gate(b.topological_order().back()).size *= 1.5;
  EXPECT_NE(a.structural_hash(), b.structural_hash());
}

// ------------------------------------------------------- stage registry

namespace {

// A finalized descriptor whose hash comes straight from the generator,
// so building it leaves the stage registry untouched: what a registry
// test needs to observe a circuit's first use.
sp::dist::RunDescriptor unregistered(sp::dist::RunDescriptor d) {
  std::uint64_t h = sp::netlist::kFnvOffsetBasis;
  for (const auto& name : sp::dist::split_workload_names(d.workload)) {
    const auto nl = sp::netlist::iscas_like(name);
    h = sp::netlist::fnv1a_fold(h, nl.structural_hash());
  }
  d.netlist_hash = h;
  d.root_seed = sp::dist::derive_root_seed(d.seed);
  return d;
}

std::uint64_t registry_builds() {
  return sp::obs::snapshot().counter("dist.workload.builds");
}

}  // namespace

TEST(DistRegistry, RacingFirstUsesShareOneBuild) {
  sp::obs::reset();
  sp::obs::set_enabled(true);
  const std::size_t before = sp::dist::registry_size();
  constexpr int kThreads = 8;
  std::vector<const sp::netlist::Netlist*> got(kThreads, nullptr);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) {
      }
      got[t] = sp::dist::registry_stage("c1908").netlist.get();
    });
  for (auto& th : threads) th.join();
  const std::uint64_t builds = registry_builds();
  sp::obs::set_enabled(false);
  EXPECT_EQ(builds, 1u);
  EXPECT_EQ(sp::dist::registry_size(), before + 1);
  for (const auto* nl : got) EXPECT_EQ(nl, got.front());
  // The generator's alias shares the canonical circuit's entry.
  EXPECT_EQ(sp::dist::registry_stage("c1980").netlist.get(), got.front());
  EXPECT_EQ(got.front()->structural_hash(),
            sp::netlist::iscas_like("c1908").structural_hash());
}

TEST(DistRegistry, UnknownNameThrowsAndLeavesNoEntry) {
  const std::size_t before = sp::dist::registry_size();
  EXPECT_THROW((void)sp::dist::registry_stage("c9999"),
               std::invalid_argument);
  sp::dist::RunDescriptor d;
  d.workload = "c9999";
  d.n_samples = 16;
  EXPECT_THROW((void)sp::dist::Workload::make(d), std::invalid_argument);
  d.task_kind = sp::dist::TaskKind::kSstaGrid;
  d.size_grid.assign(1, std::vector<double>(4, 1.0));
  EXPECT_THROW((void)sp::dist::build_grid_stage(d), std::invalid_argument);
  EXPECT_EQ(sp::dist::registry_size(), before);
}

TEST(DistRegistry, WarmRegistryStillRejectsHashMismatch) {
  auto grid = grid_descriptor("c432", 2);  // finalizing warms c432
  auto mc = small_descriptor("c432");
  ASSERT_NO_THROW((void)sp::dist::build_grid_stage(grid));
  ASSERT_NO_THROW((void)sp::dist::Workload::make(mc));
  grid.netlist_hash ^= 1;
  mc.netlist_hash ^= 1;
  EXPECT_THROW((void)sp::dist::build_grid_stage(grid), std::invalid_argument);
  EXPECT_THROW((void)sp::dist::Workload::make(mc), std::invalid_argument);
  EXPECT_THROW((void)sp::dist::make_unit_runner(grid), std::invalid_argument);
  EXPECT_THROW((void)sp::dist::make_unit_runner(mc), std::invalid_argument);
}

TEST(DistRegistry, RunLocalTaskIsBitwiseOnColdAndWarmRegistry) {
  sp::dist::RunDescriptor mc;
  mc.workload = "c1355";
  mc.seed = 77;
  mc.n_samples = 512;
  mc.samples_per_shard = 128;
  mc.block_width = 8;
  mc.sigma_vth_inter = 0.020;
  mc.enable_rdf = 1;
  mc = unregistered(mc);

  const auto nl = sp::netlist::iscas_like("c499");
  sp::dist::RunDescriptor grid;
  grid.task_kind = sp::dist::TaskKind::kSstaGrid;
  grid.workload = "c499";
  grid.seed = 78;
  grid.size_grid.assign(3, nl.sizes());
  for (std::size_t k = 0; k < 3; ++k)
    for (double& s : grid.size_grid[k]) s *= 1.0 + 0.1 * static_cast<double>(k);
  grid = unregistered(grid);

  for (const auto* d : {&mc, &grid}) {
    const std::size_t before = sp::dist::registry_size();
    const auto cold = sp::dist::run_local_task(*d);
    EXPECT_EQ(sp::dist::registry_size(), before + 1) << d->workload;
    const auto warm = sp::dist::run_local_task(*d);
    EXPECT_EQ(sp::dist::registry_size(), before + 1) << d->workload;
    EXPECT_TRUE(sp::dist::bitwise_equal(cold, warm)) << d->workload;
  }
  // And both equal the generator's own netlist, characterized directly.
  const sp::device::AlphaPowerModel model{
      sp::dist::descriptor_technology(grid)};
  sp::sta::SstaOptions opt;
  opt.output_load = grid.output_load;
  sp::dist::TaskResult direct;
  direct.kind = sp::dist::TaskKind::kSstaGrid;
  direct.lanes = sp::sta::characterize_grid(
      nl, model, grid.size_grid, sp::dist::descriptor_spec(grid), opt);
  EXPECT_TRUE(
      sp::dist::bitwise_equal(sp::dist::run_local_task(grid), direct));
}

// ----------------------------------------------- run_shard_range contract

TEST(DistEngine, ShardRangePartsFoldToLocalRun) {
  const auto desc = small_descriptor("c432", 1024, 128);  // 8 shards
  const auto wl = sp::dist::Workload::make(desc);
  const sp::mc::McResult local = sp::dist::run_local(desc);
  // Recompute the run in arbitrary contiguous pieces; fold ascending.
  std::vector<sp::mc::McResult> parts;
  for (const auto [b, e] :
       {std::pair<std::size_t, std::size_t>{0, 3}, {3, 4}, {4, 8}}) {
    auto range = wl->engine().run_shard_range(desc.n_samples, desc.root_seed,
                                              b, e, wl->exec(desc));
    for (auto& p : range) parts.push_back(std::move(p));
  }
  sp::mc::McResult acc = std::move(parts.front());
  for (std::size_t i = 1; i < parts.size(); ++i)
    acc.merge(std::move(parts[i]));
  acc.label = local.label;
  EXPECT_TRUE(sp::dist::bitwise_equal(acc, local));
}

TEST(DistEngine, ShardRangeValidatesUpFront) {
  const auto desc = small_descriptor("c432", 1024, 128);  // 8 shards
  const auto wl = sp::dist::Workload::make(desc);
  auto exec = wl->exec(desc);
  EXPECT_THROW(wl->engine().run_shard_range(desc.n_samples, desc.root_seed,
                                            3, 3, exec),
               std::invalid_argument);
  EXPECT_THROW(wl->engine().run_shard_range(desc.n_samples, desc.root_seed,
                                            0, 9, exec),
               std::invalid_argument);
  exec.block_width = 0;
  EXPECT_THROW(wl->engine().run_shard_range(desc.n_samples, desc.root_seed,
                                            0, 8, exec),
               std::invalid_argument);
}

// ------------------------------------------------- task-layer unit fold

namespace {

using Payloads = std::vector<std::vector<std::uint8_t>>;

// Every unit payload of the descriptor's plan, exactly as a worker's
// runner emits them.
Payloads all_unit_payloads(const sp::dist::RunDescriptor& desc) {
  Payloads out(sp::dist::task_unit_count(desc));
  sp::dist::make_unit_runner(desc)(
      0, out.size(),
      [&](std::size_t unit, const std::vector<std::uint8_t>& payload) {
        out[unit] = payload;
      });
  return out;
}

void stage_unit(sp::dist::UnitStaging& s, const Payloads& p,
                std::size_t unit) {
  ByteReader r(p[unit]);
  s.stage(unit, r);
}

// Stages [b, e) unit by unit and commits it.
void commit_range(sp::dist::UnitFold& fold, sp::dist::TaskKind kind,
                  const Payloads& p, std::size_t b, std::size_t e) {
  sp::dist::UnitStaging s(kind, b, e);
  for (std::size_t u = b; u < e; ++u) stage_unit(s, p, u);
  fold.commit(s);
}

}  // namespace

TEST(TaskFold, ReverseAndInterleavedCommitsFoldToLocalBitwise) {
  for (const auto& desc :
       {small_descriptor("c432", 1000, 128), grid_descriptor("c432", 8)}) {
    const auto kind = desc.task_kind;
    SCOPED_TRACE(sp::dist::task_kind_name(kind));
    const Payloads p = all_unit_payloads(desc);
    ASSERT_EQ(p.size(), 8u);
    const sp::dist::TaskResult local = sp::dist::run_local_task(desc);

    // Reverse commit order: every range waits on the ones before it.
    sp::dist::UnitFold reverse(desc);
    commit_range(reverse, kind, p, 5, 8);
    commit_range(reverse, kind, p, 3, 5);
    EXPECT_EQ(reverse.done_units(), 5u);
    commit_range(reverse, kind, p, 0, 3);
    EXPECT_EQ(reverse.done_units(), 8u);
    EXPECT_EQ(reverse.result_blob(), sp::dist::encode_result(local));

    // Three ranges staged concurrently, unit by unit in turn, committed
    // middle, last, first — the service's many-worker interleaving.
    sp::dist::UnitFold inter(desc);
    sp::dist::UnitStaging a(kind, 0, 2), b(kind, 2, 5), c(kind, 5, 8);
    for (std::size_t i = 0; i < 3; ++i) {
      if (i < 2) stage_unit(a, p, i);
      stage_unit(b, p, 2 + i);
      stage_unit(c, p, 5 + i);
    }
    inter.commit(b);
    inter.commit(c);
    EXPECT_THROW((void)inter.result_blob(), std::logic_error);
    inter.commit(a);
    EXPECT_TRUE(sp::dist::bitwise_equal(
        sp::dist::decode_result(kind, inter.result_blob()), local));
  }
}

TEST(TaskFold, StagingAcceptsOnlyTheNextAscendingUnit) {
  const auto desc = grid_descriptor("c432", 8);
  const auto kind = desc.task_kind;
  const Payloads p = all_unit_payloads(desc);
  sp::dist::UnitFold fold(desc);
  sp::dist::UnitStaging s(kind, 2, 5);
  EXPECT_THROW(stage_unit(s, p, 3), std::runtime_error);  // out of order
  EXPECT_THROW(stage_unit(s, p, 1), std::runtime_error);  // below the range
  stage_unit(s, p, 2);
  EXPECT_THROW(stage_unit(s, p, 2), std::runtime_error);  // duplicate
  EXPECT_THROW(stage_unit(s, p, 4), std::runtime_error);  // skips unit 3
  stage_unit(s, p, 3);
  stage_unit(s, p, 4);
  EXPECT_THROW(stage_unit(s, p, 5), std::runtime_error);  // past the end
  EXPECT_EQ(s.staged(), 3u);
  // Incomplete, out-of-plan and wrong-kind stagings cannot commit.
  sp::dist::UnitStaging partial(kind, 0, 2);
  stage_unit(partial, p, 0);
  EXPECT_THROW(fold.commit(partial), std::runtime_error);
  sp::dist::UnitStaging beyond(kind, 7, 9);  // the plan has units 0..7
  stage_unit(beyond, p, 7);
  ByteReader lane7(p[7]);
  beyond.stage(8, lane7);
  EXPECT_THROW(fold.commit(beyond), std::runtime_error);
  sp::dist::UnitStaging mc(sp::dist::TaskKind::kMonteCarlo, 2, 5);
  EXPECT_THROW(fold.commit(mc), std::runtime_error);
  fold.commit(s);
  EXPECT_EQ(fold.done_units(), 3u);
}

TEST(TaskFold, RangeCommittedTwiceIsRejected) {
  for (const auto& desc :
       {small_descriptor("c432", 1024, 128), grid_descriptor("c432", 8)}) {
    const auto kind = desc.task_kind;
    SCOPED_TRACE(sp::dist::task_kind_name(kind));
    const Payloads p = all_unit_payloads(desc);
    sp::dist::UnitFold fold(desc);
    commit_range(fold, kind, p, 4, 8);  // MC: waits beyond the prefix
    EXPECT_THROW(commit_range(fold, kind, p, 4, 8), std::runtime_error);
    EXPECT_THROW(commit_range(fold, kind, p, 3, 5), std::runtime_error);
    commit_range(fold, kind, p, 0, 2);  // MC: folds into the prefix
    EXPECT_THROW(commit_range(fold, kind, p, 0, 2), std::runtime_error);
    EXPECT_EQ(fold.done_units(), 6u);
    commit_range(fold, kind, p, 2, 4);  // the rejections changed nothing
    EXPECT_EQ(fold.result_blob(),
              sp::dist::encode_result(sp::dist::run_local_task(desc)));
  }
}

TEST(TaskFold, CorruptPayloadThrowsAtStagingNotAtFinish) {
  for (const auto& desc :
       {small_descriptor("c432", 512, 128), grid_descriptor("c432", 4)}) {
    SCOPED_TRACE(sp::dist::task_kind_name(desc.task_kind));
    const Payloads p = all_unit_payloads(desc);
    sp::dist::UnitFold fold(desc);
    sp::dist::UnitStaging s(desc.task_kind, 0, p.size());
    std::vector<std::uint8_t> truncated = p[0];
    truncated.pop_back();
    std::vector<std::uint8_t> trailing = p[0];
    trailing.push_back(0);
    for (const auto& bad : {truncated, trailing}) {
      ByteReader r(bad);
      EXPECT_THROW(s.stage(0, r), std::runtime_error);
    }
    EXPECT_EQ(s.staged(), 0u);  // a rejected unit is never staged
    if (desc.task_kind == sp::dist::TaskKind::kMonteCarlo) {
      // Parseable but inconsistent: one stage accumulator too many.  The
      // commit is refused whole, so the fold stays clean for the retry.
      ByteReader r(p[1]);
      sp::mc::McResult extra = sp::dist::read_mc_result(r);
      extra.stage_stats.push_back(extra.stage_stats.front());
      ByteWriter w;
      sp::dist::write_mc_result(w, extra);
      const std::vector<std::uint8_t> bytes = w.take();
      sp::dist::UnitStaging bad(desc.task_kind, 0, 2);
      stage_unit(bad, p, 0);
      ByteReader rb(bytes);
      bad.stage(1, rb);
      EXPECT_THROW(fold.commit(bad), std::runtime_error);
      EXPECT_EQ(fold.done_units(), 0u);
    }
    for (std::size_t u = 0; u < p.size(); ++u) stage_unit(s, p, u);
    fold.commit(s);
    EXPECT_EQ(fold.result_blob(),
              sp::dist::encode_result(sp::dist::run_local_task(desc)));
  }
}

TEST(TaskFold, UnitWireBytesEqualsARealUnitPayload) {
  for (const auto& desc :
       {small_descriptor("c432", 1000, 128),       // last shard shorter
        small_descriptor("c432,c880", 100, 4096),  // one short shard
        grid_descriptor("c432", 3)}) {
    SCOPED_TRACE(desc.workload + " n=" + std::to_string(desc.n_samples));
    std::size_t largest = 0;
    for (const auto& payload : all_unit_payloads(desc))
      largest = std::max(largest, payload.size());
    EXPECT_EQ(sp::dist::task_unit_wire_bytes(desc), largest);
  }
}

TEST(TaskFold, FrameCapAdmissionUsesTheExactUnitSize) {
  // One c432 shard of m samples serializes to 64 + 8m bytes and travels
  // behind an 8-byte unit index, so m = (cap - 72) / 8 is the largest
  // shard that fits one kResult frame.  Submission only plans: nothing
  // runs and no sample is allocated.
  const std::uint64_t fits = (sp::dist::kMaxFramePayload - 72) / 8;
  sp::dist::Service svc(sp::dist::ServiceOptions{});
  auto at = [](std::uint64_t n, std::uint64_t per_shard) {
    auto d = small_descriptor("c432", 1024, 128);
    d.n_samples = n;
    d.samples_per_shard = per_shard;
    return d;
  };
  EXPECT_EQ(sp::dist::task_unit_wire_bytes(at(fits, fits)) + 8,
            sp::dist::kMaxFramePayload);
  EXPECT_NO_THROW((void)svc.submit_local(at(fits, fits)));
  EXPECT_THROW((void)svc.submit_local(at(fits + 1, fits + 1)),
               std::invalid_argument);
  // A small run with a huge shard size is one small shard.
  EXPECT_NO_THROW((void)svc.submit_local(at(1024, std::uint64_t{1} << 40)));
}

// ---------------------------------------------------- cluster handle/CLI

TEST(DistClusterHandle, ValidatesRangeSizeAtSubmit) {
  auto desc = small_descriptor("c432", 1024, 128);  // 8 shards
  sp::dist::ClusterOptions opt;
  opt.service.units_per_range = 9;  // more than the plan holds
  {
    sp::dist::ClusterHandle handle(opt);
    EXPECT_THROW((void)handle.submit(desc), std::invalid_argument);
  }
  opt.service.units_per_range = 0;
  opt.service.max_attempts = 0;
  EXPECT_THROW(sp::dist::ClusterHandle{opt}, std::invalid_argument);
}

// The acceptance contract: a c3540-class run split across TWO worker
// PROCESSES (localhost TCP) merges to the exact bytes of the
// single-process, single-thread run at the same seed.
TEST(DistEndToEnd, TwoWorkerProcessesMatchLocalBitwise) {
  const auto desc = small_descriptor("c3540", 1024, 128);  // 8 shards
  sp::dist::ClusterOptions opt;
  opt.service.units_per_range = 2;  // 4 assignments across 2 workers
  opt.service.idle_timeout_ms = 120000;
  sp::dist::ClusterHandle handle(opt);

  const pid_t w1 = spawn_worker_process(handle.port());
  const pid_t w2 = spawn_worker_process(handle.port());
  const sp::mc::McResult dist_result = handle.submit(desc).mc;
  handle.close();
  reap(handle, w1);
  reap(handle, w2);

  // Single-process, single-thread reference.
  const auto wl = sp::dist::Workload::make(desc);
  auto exec = wl->exec(desc);
  exec.threads = 1;
  sp::stats::Rng rng(desc.seed);
  const auto local = wl->engine().run(desc.n_samples, rng, exec);
  EXPECT_TRUE(sp::dist::bitwise_equal(dist_result, local));
  EXPECT_EQ(dist_result.tp_samples.size(), desc.n_samples);
}

// The full paper variation model — inter-die, systematic field and RDF —
// across processes: the field scan is as bitwise as the rest of the engine.
TEST(DistEndToEnd, FieldOnTwoWorkerRunMatchesLocalTaskBitwise) {
  auto desc = small_descriptor("c3540,c432", 1024, 128);  // 8 shards
  desc.sigma_vth_systematic = 0.010;
  sp::dist::finalize_descriptor(desc);
  sp::dist::ClusterOptions opt;
  opt.service.units_per_range = 2;
  opt.service.idle_timeout_ms = 120000;
  sp::dist::ClusterHandle handle(opt);
  const pid_t w1 = spawn_worker_process(handle.port());
  const pid_t w2 = spawn_worker_process(handle.port());
  const sp::mc::McResult dist_result = handle.submit(desc).mc;
  handle.close();
  reap(handle, w1);
  reap(handle, w2);
  EXPECT_TRUE(sp::dist::bitwise_equal(dist_result,
                                      sp::dist::run_local_task(desc).mc));
  EXPECT_EQ(dist_result.tp_samples.size(), desc.n_samples);
}

// N=1 over localhost: the degenerate cluster is still exactly the local
// run.
TEST(DistEndToEnd, SingleWorkerProcessMatchesLocalBitwise) {
  const auto desc = small_descriptor("c432", 512, 64);  // 8 shards
  sp::dist::ClusterOptions opt;
  opt.service.idle_timeout_ms = 120000;
  sp::dist::ClusterHandle handle(opt);
  const pid_t w1 = spawn_worker_process(handle.port());
  const sp::mc::McResult dist_result = handle.submit(desc).mc;
  handle.close();
  reap(handle, w1);
  EXPECT_TRUE(sp::dist::bitwise_equal(dist_result, sp::dist::run_local(desc)));
}

// Worker failure: a fake worker handshakes, takes an assignment, and dies.
// The service reassigns the forfeited range to a healthy process and the
// merged result is still bitwise-identical.  The submission runs on a
// thread so the failure can be sequenced deterministically BEFORE the
// healthy worker exists.
TEST(DistEndToEnd, WorkerFailureReassignmentStaysBitwiseIdentical) {
  const auto desc = small_descriptor("c432", 1024, 128);
  sp::dist::ClusterOptions opt;
  opt.service.units_per_range = 2;
  opt.service.idle_timeout_ms = 120000;
  sp::dist::ClusterHandle handle(opt);

  sp::mc::McResult dist_result;
  std::thread serving([&] { dist_result = handle.submit(desc).mc; });

  // Saboteur (inline): hello, read setup, accept one assignment, vanish
  // without producing it.
  {
    auto sock = sp::dist::connect_to("127.0.0.1", handle.port());
    sp::dist::ByteWriter hello;
    hello.u16(sp::dist::kWireVersion);
    hello.u64(1);
    sp::dist::send_frame(sock, sp::dist::MsgType::kHello, hello.bytes());
    auto welcome = sp::dist::recv_frame(sock);
    ASSERT_TRUE(welcome && welcome->type == sp::dist::MsgType::kWelcome);
    auto setup = sp::dist::recv_frame(sock);
    ASSERT_TRUE(setup && setup->type == sp::dist::MsgType::kSetup);
    auto assign = sp::dist::recv_frame(sock);
    ASSERT_TRUE(assign && assign->type == sp::dist::MsgType::kAssign);
    sock.close();  // forfeits the range
  }

  const pid_t w1 = spawn_worker_process(handle.port());
  serving.join();
  handle.close();
  reap(handle, w1);
  EXPECT_TRUE(sp::dist::bitwise_equal(dist_result, sp::dist::run_local(desc)));
}

// A worker whose workload build fails reports kError and contributes
// nothing; the run completes on the healthy worker that arrives after.
TEST(DistEndToEnd, WorkloadRejectionIsReportedNotFatal) {
  const auto desc = small_descriptor("c432", 256, 64);
  sp::dist::ClusterOptions opt;
  opt.service.idle_timeout_ms = 120000;
  sp::dist::ClusterHandle handle(opt);

  sp::mc::McResult dist_result;
  std::thread serving([&] { dist_result = handle.submit(desc).mc; });

  sp::dist::WorkerOptions wopt;
  wopt.port = handle.port();
  const std::size_t done = sp::dist::run_worker(
      wopt, [](const sp::dist::RunDescriptor&) -> sp::dist::UnitRangeRunner {
        throw std::invalid_argument("injected workload failure");
      });
  EXPECT_EQ(done, 0u);

  const pid_t w1 = spawn_worker_process(handle.port());
  serving.join();
  handle.close();
  reap(handle, w1);
  EXPECT_TRUE(sp::dist::bitwise_equal(dist_result, sp::dist::run_local(desc)));
}

// -------------------------------------------------- generic task layer

TEST(DistSerialize, StageCharacterizationRoundTripFuzzIsByteStable) {
  std::mt19937_64 g(777);
  std::normal_distribution<double> d(120.0, 55.0);
  for (int rep = 0; rep < 50; ++rep) {
    sp::sta::StageCharacterization c;
    c.delay = {d(g), std::abs(d(g))};
    c.sigma_inter = std::abs(d(g));
    c.sigma_private = std::abs(d(g));
    c.area = std::abs(d(g));
    c.nominal_delay = d(g);
    ByteWriter w;
    sp::dist::write_stage_characterization(w, c);
    EXPECT_EQ(w.bytes().size(), 48u);  // the documented fixed record size
    ByteReader r(w.bytes());
    const auto back = sp::dist::read_stage_characterization(r);
    EXPECT_TRUE(r.done());
    ByteWriter w2;
    sp::dist::write_stage_characterization(w2, back);
    EXPECT_EQ(w.bytes(), w2.bytes());
  }
}

TEST(DistSerialize, GridDescriptorRoundTripCarriesTaskKindAndGrid) {
  const auto d = grid_descriptor("c432", 5);
  ByteWriter w;
  sp::dist::write_run_descriptor(w, d);
  ByteReader r(w.bytes());
  const auto back = sp::dist::read_run_descriptor(r);
  r.expect_done();
  EXPECT_EQ(back.task_kind, sp::dist::TaskKind::kSstaGrid);
  EXPECT_EQ(back.workload, d.workload);
  EXPECT_EQ(back.netlist_hash, d.netlist_hash);
  EXPECT_EQ(back.size_grid, d.size_grid);
  // Byte-stable: serialize(deserialize(b)) == b.
  ByteWriter w2;
  sp::dist::write_run_descriptor(w2, back);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

// Every truncated prefix of a v2 descriptor must fail loudly as a
// truncation (or task-kind) error — never parse, never crash.
TEST(DistSerialize, GridDescriptorTruncationFuzzAlwaysThrows) {
  const auto d = grid_descriptor("c432", 3);
  ByteWriter w;
  sp::dist::write_run_descriptor(w, d);
  const auto& bytes = w.bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ByteReader r(std::span<const std::uint8_t>(bytes.data(), len));
    EXPECT_THROW((void)sp::dist::read_run_descriptor(r), std::runtime_error)
        << "prefix of " << len << " bytes parsed";
  }
}

TEST(DistSerialize, UnknownTaskKindIsRejectedAsTaskKindError) {
  auto d = grid_descriptor("c432", 2);
  ByteWriter w;
  sp::dist::write_run_descriptor(w, d);
  auto bytes = w.bytes();
  bytes[0] = 0x07;  // task-kind low byte: unknown kind 7
  bytes[1] = 0x00;
  ByteReader r(bytes);
  try {
    (void)sp::dist::read_run_descriptor(r);
    FAIL() << "unknown task kind parsed";
  } catch (const std::runtime_error& e) {
    // The satellite contract: a clear task-kind error naming what this
    // build knows, not a generic deserialize failure downstream.
    EXPECT_NE(std::string(e.what()).find("task kind"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("ssta-grid"), std::string::npos)
        << e.what();
  }
}

TEST(DistSerialize, HostileGridLaneCountThrowsInsteadOfAllocating) {
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(sp::dist::TaskKind::kSstaGrid));
  w.str("c432");
  for (int i = 0; i < 6; ++i) w.u64(1);  // hash..block_width
  w.u64(1ULL << 60);                     // claimed lane count
  ByteReader r(w.bytes());
  EXPECT_THROW((void)sp::dist::read_run_descriptor(r), std::runtime_error);
}

TEST(DistSerialize, CharacterizationBlobRejectsBadMagicAndVersion) {
  const auto local = sp::dist::run_local_task(grid_descriptor("c432", 3));
  auto bytes = sp::dist::serialize_characterizations(local.lanes);
  EXPECT_EQ(sp::dist::deserialize_characterizations(bytes).size(), 3u);
  auto corrupt = bytes;
  corrupt[0] ^= 0xff;
  EXPECT_THROW((void)sp::dist::deserialize_characterizations(corrupt),
               std::runtime_error);
  auto future = bytes;
  future[4] = 0x7f;  // version low byte
  EXPECT_THROW((void)sp::dist::deserialize_characterizations(future),
               std::runtime_error);
}

TEST(DistWorkload, GridDescriptorValidation) {
  // Multi-circuit grid workloads are rejected: one grid = one stage.
  {
    auto d = grid_descriptor("c432", 2);
    d.workload = "c432,c880";
    EXPECT_THROW(sp::dist::build_grid_stage(d), std::invalid_argument);
  }
  // Empty grid.
  {
    auto d = grid_descriptor("c432", 2);
    d.size_grid.clear();
    EXPECT_THROW(sp::dist::build_grid_stage(d), std::invalid_argument);
  }
  // A lane that is not a full size vector (empty or wrong length) would
  // silently fall back to rebuilt base sizes on the worker — rejected.
  {
    auto d = grid_descriptor("c432", 2);
    d.size_grid[1].pop_back();
    EXPECT_THROW(sp::dist::build_grid_stage(d), std::invalid_argument);
    d.size_grid[1].clear();
    EXPECT_THROW(sp::dist::build_grid_stage(d), std::invalid_argument);
  }
  // Hash mismatch (diverging generator builds).
  {
    auto d = grid_descriptor("c432", 2);
    d.netlist_hash ^= 1;
    EXPECT_THROW(sp::dist::build_grid_stage(d), std::invalid_argument);
  }
}

TEST(DistCluster, WorkloadNameForVerifiesStructure) {
  auto nl = sp::netlist::iscas_like("c432");
  EXPECT_EQ(sp::dist::workload_name_for(nl), "c432");
  // Resizing is fine — grids carry explicit size lanes.
  auto sizes = nl.sizes();
  for (double& s : sizes) s *= 1.3;
  nl.set_sizes(sizes);
  EXPECT_EQ(sp::dist::workload_name_for(nl), "c432");
  // A structural edit (not just sizes) must be rejected: another circuit
  // under this name...
  sp::netlist::Netlist renamed = sp::netlist::iscas_like("c880");
  renamed.set_name("c432_like");
  EXPECT_THROW(sp::dist::workload_name_for(renamed), std::invalid_argument);
  // ...or the same circuit with one fanin rewired.
  auto rewired = sp::netlist::iscas_like("c432");
  for (sp::netlist::GateId id = 0; id < rewired.size(); ++id) {
    auto& fanins = rewired.gate(id).fanins;
    if (fanins.empty()) continue;
    fanins[0] = fanins[0] == 0 ? 1 : 0;
    break;
  }
  EXPECT_THROW(sp::dist::workload_name_for(rewired), std::invalid_argument);
  // A name the registry does not know still throws.
  auto unknown = sp::netlist::iscas_like("c432");
  unknown.set_name("c9999_like");
  EXPECT_THROW(sp::dist::workload_name_for(unknown), std::invalid_argument);
}

// The grid acceptance contract: a sweep grid split across TWO worker
// PROCESSES reassembles to the exact bytes of the local SstaBatch run —
// both the run_local_task reference and a caller-side batch at the same
// configs.
TEST(DistEndToEnd, TwoWorkerSstaGridMatchesLocalBatchBitwise) {
  const auto desc = grid_descriptor("c432", 6);
  sp::dist::ClusterOptions opt;
  opt.service.units_per_range = 2;  // 3 assignments across 2 workers
  opt.service.idle_timeout_ms = 120000;
  sp::dist::ClusterHandle handle(opt);

  const pid_t w1 = spawn_worker_process(handle.port());
  const pid_t w2 = spawn_worker_process(handle.port());
  const sp::dist::TaskResult dist_result = handle.submit(desc);
  handle.close();
  reap(handle, w1);
  reap(handle, w2);

  ASSERT_EQ(dist_result.kind, sp::dist::TaskKind::kSstaGrid);
  ASSERT_EQ(dist_result.lanes.size(), desc.size_grid.size());
  const sp::dist::TaskResult local = sp::dist::run_local_task(desc);
  EXPECT_TRUE(sp::dist::bitwise_equal(dist_result, local));

  // And against a directly-bound batch, the way an optimizer would see it.
  const auto nl = sp::netlist::iscas_like("c432");
  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  sp::sta::SstaOptions sopt;
  sopt.output_load = desc.output_load;
  const sp::sta::SstaBatch batch(nl, model, sopt);
  const auto direct = batch.characterize(sp::sta::make_configs(
      desc.size_grid, sp::dist::descriptor_spec(desc)));
  EXPECT_TRUE(sp::dist::bitwise_equal(dist_result.lanes, direct));
}

// A non-default technology must replay exactly on the worker: the
// descriptor carries the delay model's parameters, so a grid submitted
// from a tweaked-technology optimizer is not silently characterized with
// registry defaults.
TEST(DistEndToEnd, NonDefaultTechnologyCrossesTheWire) {
  sp::process::Technology tech;
  tech.tau_ps = 5.5;   // slower inverter
  tech.alpha = 1.45;   // different velocity-saturation index
  auto desc = grid_descriptor("c432", 4);
  sp::dist::set_descriptor_technology(desc, tech);

  sp::dist::ClusterOptions opt;
  opt.service.idle_timeout_ms = 120000;
  sp::dist::ClusterHandle handle(opt);
  const pid_t w1 = spawn_worker_process(handle.port());
  const sp::dist::TaskResult dist_result = handle.submit(desc);
  handle.close();
  reap(handle, w1);

  const sp::device::AlphaPowerModel model{tech};
  const auto nl = sp::netlist::iscas_like("c432");
  sp::sta::SstaOptions sopt;
  sopt.output_load = desc.output_load;
  const sp::sta::SstaBatch batch(nl, model, sopt);
  const auto direct = batch.characterize(sp::sta::make_configs(
      desc.size_grid, sp::dist::descriptor_spec(desc)));
  EXPECT_TRUE(sp::dist::bitwise_equal(dist_result.lanes, direct));
  // And the tweaked technology actually changes the numbers (the test
  // would be vacuous if defaults happened to match).
  const sp::device::AlphaPowerModel default_model{sp::process::Technology{}};
  const sp::sta::SstaBatch default_batch(nl, default_model, sopt);
  const auto with_defaults = default_batch.characterize(sp::sta::make_configs(
      desc.size_grid, sp::dist::descriptor_spec(desc)));
  EXPECT_FALSE(sp::dist::bitwise_equal(dist_result.lanes, with_defaults));
}

// Worker failure on a grid task: a saboteur takes a lane range and dies;
// the reassigned reassembly is still bitwise-identical.
TEST(DistEndToEnd, SstaGridWorkerFailureReassignmentStaysBitwise) {
  const auto desc = grid_descriptor("c432", 8);
  sp::dist::ClusterOptions opt;
  opt.service.units_per_range = 2;
  opt.service.idle_timeout_ms = 120000;
  sp::dist::ClusterHandle handle(opt);

  sp::dist::TaskResult dist_result;
  std::thread serving([&] { dist_result = handle.submit(desc); });

  {
    auto sock = sp::dist::connect_to("127.0.0.1", handle.port());
    sp::dist::ByteWriter hello;
    hello.u16(sp::dist::kWireVersion);
    hello.u64(1);
    sp::dist::send_frame(sock, sp::dist::MsgType::kHello, hello.bytes());
    auto welcome = sp::dist::recv_frame(sock);
    ASSERT_TRUE(welcome && welcome->type == sp::dist::MsgType::kWelcome);
    auto setup = sp::dist::recv_frame(sock);
    ASSERT_TRUE(setup && setup->type == sp::dist::MsgType::kSetup);
    auto assign = sp::dist::recv_frame(sock);
    ASSERT_TRUE(assign && assign->type == sp::dist::MsgType::kAssign);
    sock.close();  // forfeits the lane range
  }

  const pid_t w1 = spawn_worker_process(handle.port());
  serving.join();
  handle.close();
  reap(handle, w1);
  EXPECT_TRUE(
      sp::dist::bitwise_equal(dist_result, sp::dist::run_local_task(desc)));
}

// The tentpole acceptance contract: opt::area_delay_sweep with its grid
// submitted to a 2-process cluster — WITH an injected worker failure
// mid-run — produces bitwise-identical results to the single-process
// SstaBatch path.
TEST(DistEndToEnd, DistributedSweepWithWorkerFailureMatchesLocalBitwise) {
  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  sp::process::VariationSpec spec;
  spec.sigma_vth_inter = 0.020;
  spec.sigma_vth_systematic = 0.0;

  sp::opt::SweepOptions sw;
  sw.points = 6;

  // Local reference first (the hook left empty = SstaBatch path).
  sp::netlist::Netlist nl_local = sp::netlist::iscas_like("c432");
  const auto local = sp::opt::area_delay_sweep(nl_local, model, spec, sw);

  // Cluster-backed sweep: the hook hosts one fresh handle per grid,
  // sabotaged by a fake worker that takes a range and dies before two
  // healthy worker processes finish the job.
  sw.grid = [](const sp::netlist::Netlist& nl,
               const sp::device::AlphaPowerModel& hook_model,
               const std::vector<std::vector<double>>& grid,
               const sp::process::VariationSpec& sp_spec,
               const sp::sta::SstaOptions& sopt) {
    sp::dist::RunDescriptor d;
    d.task_kind = sp::dist::TaskKind::kSstaGrid;
    d.workload = sp::dist::workload_name_for(nl);
    d.size_grid = grid;
    sp::dist::set_descriptor_technology(d, hook_model.technology());
    sp::dist::set_descriptor_spec(d, sp_spec);
    d.output_load = sopt.output_load;
    sp::dist::finalize_descriptor(d);

    sp::dist::ClusterOptions copt;
    copt.service.units_per_range = 2;
    copt.service.idle_timeout_ms = 120000;
    sp::dist::ClusterHandle handle(copt);

    sp::dist::TaskResult res;
    std::thread serving([&] { res = handle.submit(d); });
    {
      auto sock = sp::dist::connect_to("127.0.0.1", handle.port());
      sp::dist::ByteWriter hello;
      hello.u16(sp::dist::kWireVersion);
      hello.u64(1);
      sp::dist::send_frame(sock, sp::dist::MsgType::kHello, hello.bytes());
      auto welcome = sp::dist::recv_frame(sock);
      EXPECT_TRUE(welcome && welcome->type == sp::dist::MsgType::kWelcome);
      auto setup = sp::dist::recv_frame(sock);
      EXPECT_TRUE(setup && setup->type == sp::dist::MsgType::kSetup);
      auto assign = sp::dist::recv_frame(sock);
      EXPECT_TRUE(assign && assign->type == sp::dist::MsgType::kAssign);
      sock.close();  // forfeits the range
    }
    const pid_t w1 = spawn_worker_process(handle.port());
    const pid_t w2 = spawn_worker_process(handle.port());
    serving.join();
    handle.close();
    reap(handle, w1);
    reap(handle, w2);
    return res.lanes;
  };
  sp::netlist::Netlist nl_dist = sp::netlist::iscas_like("c432");
  const auto dist_sweep = sp::opt::area_delay_sweep(nl_dist, model, spec, sw);

  EXPECT_TRUE(sp::opt::bitwise_equal(dist_sweep, local));
  // The sweep leaves the netlist at the fastest point; both paths must
  // agree on that too.
  EXPECT_EQ(nl_dist.sizes(), nl_local.sizes());
}

// The public cluster API end to end: grid_characterizer over a handle that
// spawns and reaps its own resident localhost fleet matches the local
// sweep.
TEST(DistEndToEnd, ClusterGridCharacterizerMatchesLocalSweep) {
  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  sp::process::VariationSpec spec;
  spec.sigma_vth_inter = 0.020;
  spec.sigma_vth_systematic = 0.0;

  sp::opt::SweepOptions sw;
  sw.points = 5;
  sp::netlist::Netlist nl_local = sp::netlist::iscas_like("c880");
  const auto local = sp::opt::area_delay_sweep(nl_local, model, spec, sw);

  sp::dist::ClusterOptions cl;
  cl.service.idle_timeout_ms = 120000;
  cl.spawn_workers = 2;
  cl.worker_bin = STATPIPE_WORKER_BIN;
  auto handle = std::make_shared<sp::dist::ClusterHandle>(cl);
  sw.grid = sp::dist::grid_characterizer(handle);
  sp::netlist::Netlist nl_dist = sp::netlist::iscas_like("c880");
  const auto dist_sweep = sp::opt::area_delay_sweep(nl_dist, model, spec, sw);
  handle->close();

  EXPECT_TRUE(sp::opt::bitwise_equal(dist_sweep, local));
}

// ------------------------------------------------------- hmac primitives

sp::dist::Digest hex_digest(const std::string& hex) {
  sp::dist::Digest d{};
  for (std::size_t i = 0; i < d.size(); ++i)
    d[i] = static_cast<std::uint8_t>(
        std::stoul(hex.substr(2 * i, 2), nullptr, 16));
  return d;
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

// SHA-256 through a context on an explicit compression path.
sp::dist::Digest sha256_on(sp::dist::detail::Sha256Compress compress,
                           std::span<const std::uint8_t> data) {
  return sp::dist::Sha256(compress).update(data).final();
}

const char* sha256_backend() {
  return sp::dist::detail::sha256_compress_dispatched() ==
                 sp::dist::detail::sha256_compress_portable
             ? "portable"
             : "sha-ni";
}

TEST(DistHmac, Sha256KnownAnswerVectors) {
  // FIPS 180-4 / NIST CAVP vectors: empty, one block, two blocks, and a
  // long input that crosses many block boundaries.  sha256() runs the
  // dispatched compression (SHA-NI where cpuid reports it); the portable
  // path must pass the same vectors.
  const std::vector<std::uint8_t> abc = bytes_of("abc");
  EXPECT_EQ(sha256_on(sp::dist::detail::sha256_compress_portable, abc),
            sp::dist::sha256(abc))
      << "dispatched backend " << sha256_backend();
  EXPECT_EQ(sp::dist::sha256(bytes_of("")),
            hex_digest("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934c"
                       "a495991b7852b855"));
  EXPECT_EQ(sp::dist::sha256(bytes_of("abc")),
            hex_digest("ba7816bf8f01cfea414140de5dae2223b00361a396177a9c"
                       "b410ff61f20015ad"));
  EXPECT_EQ(
      sp::dist::sha256(bytes_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      hex_digest("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd4"
                 "19db06c1"));
  const std::vector<std::uint8_t> million(1000000, 'a');
  EXPECT_EQ(sp::dist::sha256(million),
            hex_digest("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e"
                       "046d39ccc7112cd0"));
}

// The dispatched compression (SHA-NI where cpuid reports it) against the
// portable one on every length 0..1024 — each padding case, including the
// 55/56 and 119/120 edges where the length field spills into another
// block — and on a 110 KB descriptor-sized buffer, hashed in one piece and
// fed through the incremental context in uneven pieces.
TEST(DistHmac, DispatchedCompressionMatchesPortableOnEveryLength) {
  using sp::dist::detail::sha256_compress_portable;
  std::mt19937_64 g(2026);
  std::vector<std::uint8_t> buf(110 * 1024);
  for (auto& b : buf) b = static_cast<std::uint8_t>(g());
  const std::span<const std::uint8_t> all(buf);
  RecordProperty("sha256_backend", sha256_backend());
  for (std::size_t len = 0; len <= 1024; ++len)
    ASSERT_EQ(sp::dist::sha256(all.first(len)),
              sha256_on(sha256_compress_portable, all.first(len)))
        << "length " << len << ", backend "
        << sha256_backend();
  for (std::size_t len : {55, 56, 63, 64, 119, 120, 110 * 1024}) {
    const auto data = all.first(len);
    const sp::dist::Digest want = sha256_on(sha256_compress_portable, data);
    EXPECT_EQ(sp::dist::sha256(data), want) << "length " << len;
    for (std::size_t piece : {1, 7, 63, 64, 65, 1000}) {
      sp::dist::Sha256 ctx;
      for (std::size_t at = 0; at < len; at += piece)
        ctx.update(data.subspan(at, std::min(piece, len - at)));
      EXPECT_EQ(ctx.final(), want) << "length " << len << ", piece " << piece;
    }
  }
}

TEST(DistHmac, HmacSha256Rfc4231Vectors) {
  // RFC 4231 test cases 1-3 (short keys) and 6-7 (keys longer than the
  // 64-byte block, which must be hashed first per RFC 2104).
  EXPECT_EQ(sp::dist::hmac_sha256(std::vector<std::uint8_t>(20, 0x0b),
                                  bytes_of("Hi There")),
            hex_digest("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da7"
                       "26e9376c2e32cff7"));
  EXPECT_EQ(sp::dist::hmac_sha256(bytes_of("Jefe"),
                                  bytes_of("what do ya want for nothing?")),
            hex_digest("5bdcc146bf60754e6a042426089575c75a003f089d273983"
                       "9dec58b964ec3843"));
  EXPECT_EQ(sp::dist::hmac_sha256(std::vector<std::uint8_t>(20, 0xaa),
                                  std::vector<std::uint8_t>(50, 0xdd)),
            hex_digest("773ea91e36800e46854db8ebd09181a72959098b3ef8c122"
                       "d9635514ced565fe"));
  EXPECT_EQ(
      sp::dist::hmac_sha256(
          std::vector<std::uint8_t>(131, 0xaa),
          bytes_of("Test Using Larger Than Block-Size Key - Hash Key First")),
      hex_digest("60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f"
                 "0ee37f54"));
  EXPECT_EQ(
      sp::dist::hmac_sha256(
          std::vector<std::uint8_t>(131, 0xaa),
          bytes_of("This is a test using a larger than block-size key and a "
                   "larger than block-size data. The key needs to be hashed "
                   "before being used by the HMAC algorithm.")),
      hex_digest("9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f5153"
                 "5c3a35e2"));
}

TEST(DistHmac, ConstantTimeCompareExaminesEveryByte) {
  const sp::dist::Digest a = sp::dist::sha256(bytes_of("left"));
  EXPECT_TRUE(sp::dist::digest_equal_consttime(a, a));
  // A single flipped bit at ANY position must be detected.
  for (std::size_t i = 0; i < a.size(); ++i) {
    sp::dist::Digest b = a;
    b[i] ^= 0x01;
    EXPECT_FALSE(sp::dist::digest_equal_consttime(a, b)) << "byte " << i;
  }
}

TEST(DistHmac, FrameAuthDerivesKeyFromPassphrase) {
  EXPECT_FALSE(sp::dist::FrameAuth::from_passphrase("").enabled);
  const auto auth = sp::dist::FrameAuth::from_passphrase("open sesame");
  EXPECT_TRUE(auth.enabled);
  // The wire key is the SHA-256 of the passphrase, not its raw bytes.
  EXPECT_EQ(auth.key, sp::dist::sha256(bytes_of("open sesame")));
  // MACs are deterministic per key and differ across keys.
  const auto other = sp::dist::FrameAuth::from_passphrase("different");
  const auto data = bytes_of("frame bytes");
  EXPECT_EQ(auth.mac(data), auth.mac(data));
  EXPECT_NE(auth.mac(data), other.mac(data));
  // The two-part MAC (a frame's header and payload where they lie) is the
  // MAC of the concatenation, wherever the split falls.
  for (std::size_t cut = 0; cut <= data.size(); ++cut)
    EXPECT_EQ(auth.mac(std::span(data).first(cut),
                       std::span(data).subspan(cut)),
              auth.mac(data))
        << "split at " << cut;
}

// --------------------------------------------- transport authentication

std::pair<sp::dist::Socket, sp::dist::Socket> socket_pair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {sp::dist::Socket(fds[0]), sp::dist::Socket(fds[1])};
}

TEST(DistAuthTransport, AuthenticatedFrameRoundTrips) {
  const auto auth = sp::dist::FrameAuth::from_passphrase("round-trip");
  ByteWriter payload;
  payload.u64(42);
  payload.str("unit body");
  // The trailer costs exactly one digest on the wire.
  EXPECT_EQ(sp::dist::encode_frame(sp::dist::MsgType::kResult,
                                   payload.bytes(), auth)
                .size(),
            sp::dist::encode_frame(sp::dist::MsgType::kResult,
                                   payload.bytes())
                    .size() +
                sp::dist::kDigestSize);
  auto [a, b] = socket_pair();
  sp::dist::send_frame(a, sp::dist::MsgType::kResult, payload.bytes(), auth);
  const auto f = sp::dist::recv_frame(b, auth);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, sp::dist::MsgType::kResult);
  EXPECT_EQ(f->payload, payload.bytes());
}

// The strong tamper property: with authentication on, EVERY single-bit
// flip anywhere in the frame — header, payload, or MAC trailer — must be
// rejected, because the MAC covers header + payload and the trailer
// itself is compared constant-time.
TEST(DistAuthTransport, EveryBitFlipOnAuthenticatedFrameIsRejected) {
  const auto auth = sp::dist::FrameAuth::from_passphrase("flip-key");
  ByteWriter payload;
  payload.u64(3);
  payload.str("streamed unit");
  const std::vector<std::uint8_t> frame = sp::dist::encode_frame(
      sp::dist::MsgType::kResult, payload.bytes(), auth);
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto [a, b] = socket_pair();
      std::vector<std::uint8_t> mutated = frame;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      a.send_all(mutated.data(), mutated.size());
      a.close();  // a size-inflating flip must hit EOF, not block
      EXPECT_THROW((void)sp::dist::recv_frame(b, auth), std::runtime_error)
          << "flip of bit " << bit << " in byte " << byte << " was accepted";
    }
  }
}

TEST(DistAuthTransport, MissingOrUnexpectedAuthIsRejectedBothWays) {
  const auto key = sp::dist::FrameAuth::from_passphrase("strict");
  {
    // Unauthenticated frame at a keyed receiver: no silent downgrade.
    auto [a, b] = socket_pair();
    sp::dist::send_frame(a, sp::dist::MsgType::kHello, {});
    try {
      (void)sp::dist::recv_frame(b, key);
      FAIL() << "unauthenticated frame accepted under a wire key";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unauthenticated"),
                std::string::npos)
          << e.what();
    }
  }
  {
    // Authenticated frame at a keyless receiver: a loud config mismatch,
    // not an ignored trailer.
    auto [a, b] = socket_pair();
    sp::dist::send_frame(a, sp::dist::MsgType::kHello, {}, key);
    try {
      (void)sp::dist::recv_frame(b);
      FAIL() << "authenticated frame accepted without a wire key";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("no wire key"), std::string::npos)
          << e.what();
    }
  }
}

TEST(DistAuthTransport, WrongKeyFailsVerification) {
  const auto alpha = sp::dist::FrameAuth::from_passphrase("alpha");
  const auto beta = sp::dist::FrameAuth::from_passphrase("beta");
  auto [a, b] = socket_pair();
  sp::dist::send_frame(a, sp::dist::MsgType::kHello, {}, alpha);
  EXPECT_THROW((void)sp::dist::recv_frame(b, beta), std::runtime_error);
}

// ----------------------------------------------- transport hardening

TEST(DistTransportHardening, UnknownFlagBitsAreRejected) {
  auto [a, b] = socket_pair();
  std::vector<std::uint8_t> frame =
      sp::dist::encode_frame(sp::dist::MsgType::kHello, {});
  frame[8] |= 0x02;  // flags field, an undefined bit
  a.send_all(frame.data(), frame.size());
  a.close();
  try {
    (void)sp::dist::recv_frame(b);
    FAIL() << "unknown flag bits accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("flag"), std::string::npos)
        << e.what();
  }
}

// Mutation fuzz over an unauthenticated frame: any single-bit corruption
// either still parses at the frame layer (payload bits — upper layers
// validate content) or throws std::runtime_error.  Nothing may crash,
// hang, or throw anything untyped.
TEST(DistTransportHardening, FrameMutationFuzzParsesOrThrows) {
  ByteWriter payload;
  payload.u16(sp::dist::kWireVersion);
  payload.u64(4);
  const std::vector<std::uint8_t> frame =
      sp::dist::encode_frame(sp::dist::MsgType::kHello, payload.bytes());
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto [a, b] = socket_pair();
      std::vector<std::uint8_t> mutated = frame;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      a.send_all(mutated.data(), mutated.size());
      a.close();
      try {
        if (sp::dist::recv_frame(b))
          ++parsed;
        else
          ++rejected;  // clean-EOF reading (possible for a header flip)
      } catch (const std::runtime_error&) {
        ++rejected;
      }
    }
  }
  // Both populations must exist: header corruption is caught, payload
  // corruption is the upper layers' job.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(parsed, 0u);
}

TEST(DistTransportHardening, ReadDeadlineUnwedgesSilentMidFramePeer) {
  auto [a, b] = socket_pair();
  const std::uint32_t magic = sp::dist::kWireMagic;
  a.send_all(&magic, sizeof magic);  // 4 plausible bytes, then silence
  b.set_read_deadline_ms(300);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)sp::dist::recv_frame(b);
    FAIL() << "read of a stalled frame returned";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos)
        << e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
}

// A slow-loris drip defeats plain receive timeouts (every byte restarts
// them) but not the absolute deadline.
TEST(DistTransportHardening, ReadDeadlineBoundsSlowLorisDrip) {
  auto [a, b] = socket_pair();
  std::atomic<bool> stop{false};
  std::thread drip([&] {
    const std::uint8_t byte = 0x53;
    try {
      for (int i = 0; i < 100 && !stop.load(); ++i) {
        a.send_all(&byte, 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(80));
      }
    } catch (const std::exception&) {
    }
  });
  b.set_read_deadline_ms(400);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)sp::dist::recv_frame(b), std::runtime_error);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
  stop = true;
  drip.join();
}

TEST(DistTransportHardening, FaultPlanChunksAndBudgetsAreByteExact) {
  // Chunked + delayed delivery still reassembles the exact frame.
  {
    auto [a, b] = socket_pair();
    sp::dist::testing::FaultPlan plan;
    plan.max_chunk = 3;
    plan.delay_us_per_chunk = 100;
    a.set_fault_plan(&plan);
    ByteWriter payload;
    for (std::uint64_t i = 0; i < 40; ++i) payload.u64(i);
    sp::dist::send_frame(a, sp::dist::MsgType::kResult, payload.bytes());
    const auto f = sp::dist::recv_frame(b);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->payload, payload.bytes());
  }
  // Budget 0: the connection dies before the first byte — a clean EOF at
  // a frame boundary for the receiver (nullopt, not a throw).
  {
    auto [a, b] = socket_pair();
    sp::dist::testing::FaultPlan plan;
    plan.send_byte_budget = 0;
    a.set_fault_plan(&plan);
    try {
      sp::dist::send_frame(a, sp::dist::MsgType::kHello, {});
      FAIL() << "send past an exhausted budget succeeded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(sp::dist::recv_frame(b).has_value());
  }
  // Budget 10: ten header bytes cross, then the cut — a mid-frame EOF the
  // receiver must surface as an error, never a short parse.
  {
    auto [a, b] = socket_pair();
    sp::dist::testing::FaultPlan plan;
    plan.send_byte_budget = 10;
    a.set_fault_plan(&plan);
    EXPECT_THROW(sp::dist::send_frame(a, sp::dist::MsgType::kHello, {}),
                 std::runtime_error);
    EXPECT_THROW((void)sp::dist::recv_frame(b), std::runtime_error);
  }
}

// --------------------------------------------- deterministic fault matrix

// An inline protocol-honest worker whose socket runs through a
// dist::testing::FaultPlan.  With a byte-exact send budget the
// conversation cuts at a chosen offset (before hello, mid-hello, at the
// hello/result boundary, mid-result ...); with chunk caps and delays it
// exercises the partial-IO paths end to end while staying honest.
void faulty_worker(std::uint16_t port, sp::dist::testing::FaultPlan plan) {
  try {
    sp::dist::Socket sock = sp::dist::connect_to("127.0.0.1", port);
    sock.set_fault_plan(&plan);
    sock.set_recv_timeout_ms(60000);
    {
      ByteWriter hello;
      hello.u16(sp::dist::kWireVersion);
      hello.u64(1);
      sp::dist::send_frame(sock, sp::dist::MsgType::kHello, hello.bytes());
    }
    const auto welcome = sp::dist::recv_frame(sock);
    if (!welcome || welcome->type != sp::dist::MsgType::kWelcome) return;
    std::uint64_t session = 0;
    {
      ByteReader r(welcome->payload);
      session = r.u64();
      r.expect_done();
    }
    const auto setup = sp::dist::recv_frame(sock);
    if (!setup || setup->type != sp::dist::MsgType::kSetup) return;
    const std::uint64_t rid = setup->request_id;
    sp::dist::RunDescriptor desc;
    {
      ByteReader r(setup->payload);
      desc = sp::dist::read_run_descriptor(r);
      r.expect_done();
    }
    const sp::dist::UnitRangeRunner runner = sp::dist::make_unit_runner(desc);
    for (;;) {
      const auto f = sp::dist::recv_frame(sock);
      if (!f || f->type != sp::dist::MsgType::kAssign) return;  // shutdown
      ByteReader r(f->payload);
      const std::uint64_t begin = r.u64();
      const std::uint64_t end = r.u64();
      std::uint64_t emitted = 0;
      runner(begin, end,
             [&](std::size_t unit, const std::vector<std::uint8_t>& payload) {
               ByteWriter out;
               out.u64(unit);
               out.append(payload);
               sp::dist::send_frame(sock, sp::dist::MsgType::kResult,
                                    out.bytes(), {}, session, rid);
               emitted += 1;
             });
      ByteWriter done;
      done.u64(begin);
      done.u64(end);
      done.u64(emitted);
      sp::dist::send_frame(sock, sp::dist::MsgType::kRangeDone, done.bytes(),
                           {}, session, rid);
    }
  } catch (const std::exception&) {
    // Budget exhaustion, or the coordinator dropping us after the cut:
    // both are the matrix's expected outcomes.
  }
}

// The satellite matrix: deterministic byte-exact disconnects at each
// stage of the conversation — before hello, inside the hello header,
// exactly at the hello/result frame boundary, inside the first result's
// header, and inside its payload.  Every case must end with the range
// reassigned to the healthy worker and the bitwise-identical result.
TEST(DistFaultMatrix, ByteExactDisconnectsAlwaysReassign) {
  const auto desc = small_descriptor();  // 8 units
  ByteWriter hello;
  hello.u16(sp::dist::kWireVersion);
  hello.u64(1);
  const std::size_t hello_bytes =
      sp::dist::encode_frame(sp::dist::MsgType::kHello, hello.bytes()).size();
  const sp::dist::TaskResult local = sp::dist::run_local_task(desc);
  const std::size_t budgets[] = {0, 7, hello_bytes, hello_bytes + 7,
                                 hello_bytes + 120};
  for (const std::size_t budget : budgets) {
    SCOPED_TRACE("send budget " + std::to_string(budget));
    sp::dist::ClusterOptions opt;
    opt.service.units_per_range = 2;
    opt.service.idle_timeout_ms = 120000;
    sp::dist::ClusterHandle handle(opt);
    sp::dist::TaskResult dist_result;
    std::thread serving([&] { dist_result = handle.submit(desc); });
    sp::dist::testing::FaultPlan plan;
    plan.send_byte_budget = budget;
    std::thread faulty(
        [&, port = handle.port()] { faulty_worker(port, plan); });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const pid_t w = spawn_worker_process(handle.port());
    serving.join();
    handle.close();
    faulty.join();
    reap(handle, w);
    EXPECT_TRUE(sp::dist::bitwise_equal(dist_result, local));
  }
}

// Short reads, short writes and delayed bytes on an HONEST worker change
// nothing: the run completes bitwise-identical through 3-byte chunks.
TEST(DistFaultMatrix, ChunkedAndDelayedIoStaysBitwise) {
  const auto desc = small_descriptor();
  sp::dist::ClusterOptions opt;
  opt.service.units_per_range = 3;
  opt.service.idle_timeout_ms = 120000;
  sp::dist::ClusterHandle handle(opt);
  sp::dist::TaskResult dist_result;
  std::thread serving([&] { dist_result = handle.submit(desc); });
  sp::dist::testing::FaultPlan plan;
  plan.max_chunk = 3;
  plan.delay_us_per_chunk = 50;
  std::thread chunked([&, port = handle.port()] { faulty_worker(port, plan); });
  serving.join();
  handle.close();
  chunked.join();
  EXPECT_TRUE(
      sp::dist::bitwise_equal(dist_result, sp::dist::run_local_task(desc)));
}

// ------------------------------------------------- authenticated cluster

TEST(DistEndToEnd, AuthenticatedTwoWorkerRunMatchesLocalBitwise) {
  const std::string key = "e2e-wire-key";
  const auto desc = small_descriptor();
  sp::dist::ClusterOptions opt;
  opt.service.units_per_range = 2;
  opt.service.idle_timeout_ms = 120000;
  opt.service.auth_key = key;
  sp::dist::ClusterHandle handle(opt);
  const pid_t w1 = spawn_worker_process(handle.port(), key);
  const pid_t w2 = spawn_worker_process(handle.port(), key);
  const sp::dist::TaskResult dist_result = handle.submit(desc);
  handle.close();
  reap(handle, w1);
  reap(handle, w2);
  EXPECT_TRUE(
      sp::dist::bitwise_equal(dist_result, sp::dist::run_local_task(desc)));
}

TEST(DistEndToEnd, MismatchedKeyWorkerIsRejectedAndRunStillCompletes) {
  const auto desc = small_descriptor();
  sp::dist::ClusterOptions opt;
  opt.service.units_per_range = 2;
  opt.service.idle_timeout_ms = 120000;
  opt.service.auth_key = "right-key";
  sp::dist::ClusterHandle handle(opt);
  // The wrong-key worker's hello fails MAC verification at admission; it
  // sees the connection close and exits 1 ("coordinator sent no setup").
  const pid_t bad = spawn_worker_process(handle.port(), "wrong-key");
  const pid_t good = spawn_worker_process(handle.port(), "right-key");
  const sp::dist::TaskResult dist_result = handle.submit(desc);
  handle.close();
  reap(handle, bad, 1);
  reap(handle, good);
  EXPECT_TRUE(
      sp::dist::bitwise_equal(dist_result, sp::dist::run_local_task(desc)));
}

TEST(DistEndToEnd, AuthenticatedWorkerAgainstPlainServiceIsRejected) {
  const auto desc = small_descriptor();
  sp::dist::ClusterOptions opt;
  opt.service.units_per_range = 2;
  opt.service.idle_timeout_ms = 120000;  // no auth_key: plain wire
  sp::dist::ClusterHandle handle(opt);
  // Symmetric strictness: an authenticated hello at a keyless coordinator
  // is a loud config mismatch, not an ignored trailer.
  const pid_t keyed = spawn_worker_process(handle.port(), "stray-key");
  const pid_t plain = spawn_worker_process(handle.port());
  const sp::dist::TaskResult dist_result = handle.submit(desc);
  handle.close();
  reap(handle, keyed, 1);
  reap(handle, plain);
  EXPECT_TRUE(
      sp::dist::bitwise_equal(dist_result, sp::dist::run_local_task(desc)));
}

// ----------------------------------------------- streaming (wire v3)

// One assignment far larger than the worker's streaming chunk: 64 units
// stream over the same connection as many kResult frames and fold into
// the bounded accumulator — bitwise-identical to the local run.
TEST(DistEndToEnd, LargeStreamedRangeSingleWorkerMatchesLocalBitwise) {
  const auto desc = small_descriptor("c432", 4096, 64);  // 64 units
  sp::dist::ClusterOptions opt;
  opt.service.units_per_range = 64;  // a single streamed assignment
  opt.service.idle_timeout_ms = 120000;
  sp::dist::ClusterHandle handle(opt);
  const pid_t w = spawn_worker_process(handle.port());
  const sp::dist::TaskResult dist_result = handle.submit(desc);
  handle.close();
  reap(handle, w);
  EXPECT_TRUE(
      sp::dist::bitwise_equal(dist_result, sp::dist::run_local_task(desc)));
}

// -------------------------------------------------- hostile-peer matrix

// Each saboteur mode attacks a live coordinator that also serves one
// honest worker.  Contract (docs/WIRE_FORMAT.md threat model): the
// coordinator never crashes or hangs, never folds a poisoned unit, the
// saboteur's range is reassigned, and the result stays bitwise-identical.
// The saboteur process itself exits 0 — it verifies its own expectations
// (e.g. that the coordinator actually dropped it).
TEST(DistChaos, SaboteurMatrixOnPlainWireNeverPoisonsTheRun) {
  const auto desc = small_descriptor();  // 8 units, 4 ranges below
  const sp::dist::TaskResult local = sp::dist::run_local_task(desc);
  const char* modes[] = {"truncate", "midframe", "oversize",
                         "garbage",  "dup-unit", "replay"};
  for (const char* mode : modes) {
    SCOPED_TRACE(mode);
    sp::dist::ClusterOptions opt;
    opt.service.units_per_range = 2;
    opt.service.idle_timeout_ms = 120000;
    sp::dist::ClusterHandle handle(opt);
    sp::dist::TaskResult dist_result;
    std::thread serving([&] { dist_result = handle.submit(desc); });
    // Saboteur first, so it wins a range assignment to attack with.
    const pid_t sab = spawn_saboteur_process(handle.port(), mode);
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    const pid_t w = spawn_worker_process(handle.port());
    serving.join();
    handle.close();
    reap(handle, sab);
    reap(handle, w);
    EXPECT_TRUE(sp::dist::bitwise_equal(dist_result, local));
  }
}

TEST(DistChaos, AuthenticatedWireRejectsTamperedAndUnauthenticatedPeers) {
  const auto desc = small_descriptor();
  const sp::dist::TaskResult local = sp::dist::run_local_task(desc);
  const std::string key = "chaos-wire-key";
  const char* modes[] = {"tampered-hmac", "unauthenticated"};
  for (const char* mode : modes) {
    SCOPED_TRACE(mode);
    sp::dist::ClusterOptions opt;
    opt.service.units_per_range = 2;
    opt.service.idle_timeout_ms = 120000;
    opt.service.auth_key = key;
    sp::dist::ClusterHandle handle(opt);
    sp::dist::TaskResult dist_result;
    std::thread serving([&] { dist_result = handle.submit(desc); });
    const bool sab_has_key = std::string(mode) == "tampered-hmac";
    const pid_t sab = spawn_saboteur_process(handle.port(), mode,
                                             sab_has_key ? key : "");
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    const pid_t w = spawn_worker_process(handle.port(), key);
    serving.join();
    handle.close();
    reap(handle, sab);
    reap(handle, w);
    EXPECT_TRUE(sp::dist::bitwise_equal(dist_result, local));
  }
}

// The read-deadline regression test (satellite): a peer that takes a
// range, sends four bytes and then stalls forever must forfeit the range
// after read_deadline_ms — run() completes with the correct result
// instead of wedging on the silent connection.
TEST(DistChaos, StalledPeerForfeitsRangeViaReadDeadline) {
  const auto desc = small_descriptor();
  sp::dist::ClusterOptions opt;
  opt.service.units_per_range = 2;
  opt.service.idle_timeout_ms = 120000;
  opt.service.read_deadline_ms = 1500;
  sp::dist::ClusterHandle handle(opt);
  sp::dist::TaskResult dist_result;
  const auto t0 = std::chrono::steady_clock::now();
  std::thread serving([&] { dist_result = handle.submit(desc); });
  const pid_t sab = spawn_saboteur_process(handle.port(), "stall");
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const pid_t w = spawn_worker_process(handle.port());
  serving.join();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  handle.close();
  reap(handle, w);
  // The stalled saboteur holds its connection open until killed.
  ::kill(sab, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(sab, &status, 0), sab);
  EXPECT_TRUE(WIFSIGNALED(status));
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            60);
  EXPECT_TRUE(
      sp::dist::bitwise_equal(dist_result, sp::dist::run_local_task(desc)));
}

}  // namespace
