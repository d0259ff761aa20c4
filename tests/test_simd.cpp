// Tests for the runtime-dispatched SIMD backend layer (stats/simd.h):
// detection and STATPIPE_SIMD resolution, and the per-backend bitwise
// self-consistency matrix — scalar reference vs. every backend this
// machine can run, at every width the backend accepts, through the ported
// kernels (pow_pos, clark_max_lanes, sample_block_into) and a full
// GateLevelMonteCarlo block run.
//
// All backends are compiled from one kernel source with IEEE-preserving
// flags only (no -mfma, -ffp-contract=off), so cross-backend equality is
// asserted *bitwise* here: any fused or reassociated arithmetic sneaking
// into a backend build is a test failure, not a tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "device/latch.h"
#include "mc/pipeline_mc.h"
#include "netlist/generators.h"
#include "process/variation.h"
#include "stats/clark.h"
#include "stats/lanes.h"
#include "stats/rng.h"
#include "stats/simd.h"

namespace sp = statpipe;
namespace simd = statpipe::stats::simd;

namespace {

/// Clears any forced backend on scope exit so a failing ASSERT inside a
/// forced region cannot leak the forcing into later tests.
struct BackendGuard {
  explicit BackendGuard(simd::Backend b) { simd::force_backend_for_testing(b); }
  ~BackendGuard() { simd::clear_forced_backend_for_testing(); }
};

/// Widths the self-consistency matrix probes, clipped to a backend's max.
std::vector<std::size_t> matrix_widths(std::size_t max_width) {
  std::vector<std::size_t> w;
  for (std::size_t c : {std::size_t{1}, std::size_t{8}, std::size_t{16},
                        std::size_t{32}, std::size_t{64}})
    if (c <= max_width) w.push_back(c);
  return w;
}

}  // namespace

// -------------------------------------------------------------- detection

TEST(SimdDetect, ScalarAlwaysPresentAndPreferenceOrdered) {
  const auto det = simd::detected_backends();
  ASSERT_FALSE(det.empty());
  EXPECT_EQ(det.front(), simd::Backend::kScalar);
  for (simd::Backend b : det) {
    const simd::KernelTable* t = simd::kernels_for(b);
    ASSERT_NE(t, nullptr) << simd::backend_name(b);
    EXPECT_EQ(t->backend, b);
    EXPECT_STREQ(t->name, simd::backend_name(b));
    EXPECT_GE(t->max_width, std::size_t{8});
    EXPECT_LE(t->max_width, sp::stats::lanes::kMaxWidth);
    EXPECT_LE(t->default_width, t->max_width);
  }
  // The active table is one of the detected ones.
  const simd::KernelTable& active = simd::kernels();
  EXPECT_NE(std::find(det.begin(), det.end(), active.backend), det.end());
}

TEST(SimdDetect, ForcingSwitchesActiveTableAndWidthCaps) {
  for (simd::Backend b : simd::detected_backends()) {
    BackendGuard guard(b);
    EXPECT_EQ(simd::kernels().backend, b);
    EXPECT_EQ(sp::stats::lanes::max_width(), simd::kernels_for(b)->max_width);
    // validated_width tracks the forced backend's cap.
    EXPECT_EQ(sp::stats::lanes::validated_width(sp::stats::lanes::max_width()),
              sp::stats::lanes::max_width());
    EXPECT_THROW(
        sp::stats::lanes::validated_width(sp::stats::lanes::max_width() + 1),
        std::invalid_argument);
  }
}

// ------------------------------------------------------------- resolution

TEST(SimdResolve, KnownNamesParse) {
  EXPECT_EQ(simd::parse_backend("scalar"), simd::Backend::kScalar);
  EXPECT_EQ(simd::parse_backend("sse42"), simd::Backend::kSse42);
  EXPECT_EQ(simd::parse_backend("avx2"), simd::Backend::kAvx2);
  EXPECT_EQ(simd::parse_backend("avx512"), simd::Backend::kAvx512);
  EXPECT_EQ(simd::parse_backend("neon"), simd::Backend::kNeon);
  EXPECT_THROW(simd::parse_backend("AVX2"), std::invalid_argument);
  EXPECT_THROW(simd::parse_backend(""), std::invalid_argument);
}

TEST(SimdResolve, UnknownEnvValueThrowsListingDetectedBackends) {
  // STATPIPE_SIMD=<garbage> must fail loudly, and the message must tell
  // the user what this machine actually supports.
  try {
    (void)simd::resolve_env("altivec");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("altivec"), std::string::npos) << msg;
    for (simd::Backend b : simd::detected_backends())
      EXPECT_NE(msg.find(simd::backend_name(b)), std::string::npos) << msg;
  }
}

TEST(SimdResolve, UnsupportedBackendThrowsListingDetectedBackends) {
  // On any one machine at least one named backend is unusable (neon and
  // avx512 are never both runnable); forcing it must throw, not fall back.
  const auto det = simd::detected_backends();
  for (simd::Backend b : {simd::Backend::kSse42, simd::Backend::kAvx2,
                          simd::Backend::kAvx512, simd::Backend::kNeon}) {
    if (std::find(det.begin(), det.end(), b) != det.end()) continue;
    try {
      (void)simd::resolve_env(simd::backend_name(b));
      FAIL() << "expected std::invalid_argument for "
             << simd::backend_name(b);
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("not usable"), std::string::npos) << msg;
      EXPECT_NE(msg.find("scalar"), std::string::npos) << msg;
    }
    return;  // one unusable backend exercised is enough
  }
  FAIL() << "no unusable backend found — detection list is implausible";
}

TEST(SimdResolve, SupportedNamesResolveToTheirTables) {
  for (simd::Backend b : simd::detected_backends())
    EXPECT_EQ(simd::resolve_env(simd::backend_name(b)).backend, b);
}

// --------------------------------------- per-backend bitwise consistency

TEST(SimdMatrix, PowPosLanesMatchesScalarReferenceBitwise) {
  sp::stats::Rng rng(4242);
  for (simd::Backend b : simd::detected_backends()) {
    const simd::KernelTable* t = simd::kernels_for(b);
    for (std::size_t w : matrix_widths(t->max_width)) {
      std::vector<double> x(w), out(w);
      for (double y : {-3.5, -1.0, 0.0, 0.5, 1.3, 3.9}) {
        for (std::size_t j = 0; j < w; ++j) x[j] = rng.uniform(0.05, 20.0);
        t->pow_pos_lanes(x.data(), y, w, out.data());
        for (std::size_t j = 0; j < w; ++j)
          ASSERT_EQ(out[j], sp::stats::lanes::pow_pos(x[j], y))
              << simd::backend_name(b) << " w=" << w << " lane " << j;
      }
    }
  }
}

TEST(SimdMatrix, ClarkMaxLanesMatchesScalarClarkBitwise) {
  sp::stats::Rng rng(777);
  for (simd::Backend b : simd::detected_backends()) {
    BackendGuard guard(b);
    const std::size_t maxw = simd::kernels().max_width;
    for (std::size_t w : matrix_widths(maxw)) {
      std::vector<double> m1(w), s1(w), m2(w), s2(w), rho(w);
      std::vector<double> om(w), os(w), oa(w), oaa(w), op(w);
      for (std::size_t j = 0; j < w; ++j) {
        m1[j] = rng.uniform(-5.0, 5.0);
        m2[j] = rng.uniform(-5.0, 5.0);
        s1[j] = rng.uniform(0.0, 3.0);
        s2[j] = rng.uniform(0.0, 3.0);
        rho[j] = rng.uniform(-1.0, 1.0);
      }
      // Exercise the degenerate select path in a couple of lanes too.
      if (w >= 2) {
        s1[0] = s2[0] = 0.0;
        rho[0] = 0.0;
        s1[1] = s2[1] = 1.0;
        rho[1] = 1.0;
      }
      sp::stats::clark_max_lanes({m1.data(), s1.data()},
                                 {m2.data(), s2.data()}, rho.data(), w,
                                 {om.data(), os.data(), oa.data(),
                                  oaa.data(), op.data()});
      for (std::size_t j = 0; j < w; ++j) {
        const auto cm = sp::stats::clark_max({m1[j], s1[j]}, {m2[j], s2[j]},
                                             rho[j]);
        ASSERT_EQ(om[j], cm.max.mean)
            << simd::backend_name(b) << " w=" << w << " lane " << j;
        ASSERT_EQ(os[j], cm.max.sigma);
        ASSERT_EQ(oa[j], cm.alpha);
        ASSERT_EQ(oaa[j], cm.a);
        ASSERT_EQ(op[j], cm.phi_a);
      }
    }
  }
}

TEST(SimdMatrix, SampleBlockIntoIsBackendInvariantBitwise) {
  // Same seeds, same width -> every backend must produce the identical
  // DieBlock (the draws are dispatched, per-lane Rngs; the field scan is
  // plain code shared by every backend).
  sp::process::Technology tech;
  const auto spec = sp::process::VariationSpec::inter_intra(0.020, 0.010);
  const sp::process::VariationSampler sampler(
      tech, spec, sp::process::linear_sites(37));
  const auto det = simd::detected_backends();
  for (std::size_t w : matrix_widths(sp::stats::lanes::kMaxWidth)) {
    // Reference block from the scalar backend.
    sp::process::DieBlock ref;
    {
      BackendGuard guard(simd::Backend::kScalar);
      if (w > sp::stats::lanes::max_width()) continue;
      sp::stats::Rng root(99);
      std::vector<sp::stats::Rng> rngs;
      for (std::size_t j = 0; j < w; ++j) rngs.push_back(root.fork(j));
      sp::process::BlockWorkspace ws;
      sampler.sample_block_into(rngs.data(), w, ref, ws);
    }
    for (simd::Backend b : det) {
      BackendGuard guard(b);
      if (w > sp::stats::lanes::max_width()) continue;
      sp::stats::Rng root(99);
      std::vector<sp::stats::Rng> rngs;
      for (std::size_t j = 0; j < w; ++j) rngs.push_back(root.fork(j));
      sp::process::DieBlock blk;
      sp::process::BlockWorkspace ws;
      sampler.sample_block_into(rngs.data(), w, blk, ws);
      ASSERT_EQ(blk.dvth_systematic.size(), ref.dvth_systematic.size());
      for (std::size_t i = 0; i < ref.dvth_systematic.size(); ++i)
        ASSERT_EQ(blk.dvth_systematic[i], ref.dvth_systematic[i])
            << simd::backend_name(b) << " w=" << w << " elem " << i;
      for (std::size_t i = 0; i < ref.dvth_random.size(); ++i)
        ASSERT_EQ(blk.dvth_random[i], ref.dvth_random[i]);
      for (std::size_t j = 0; j < w; ++j) {
        ASSERT_EQ(blk.dvth_inter[j], ref.dvth_inter[j]);
        ASSERT_EQ(blk.dl_inter_rel[j], ref.dl_inter_rel[j]);
      }
    }
  }
}

TEST(SimdMatrix, GateLevelMcBlockRunIsBackendAndWidthInvariantBitwise) {
  // End-to-end: full gate-level MC through the dispatched walk kernel.
  // Fix (seed, samples, shard size); sweep backend x width; every run must
  // produce the identical sample stream.
  std::vector<sp::netlist::Netlist> stages;
  for (std::size_t i = 0; i < 2; ++i) {
    stages.push_back(sp::netlist::inverter_chain(6));
    stages.back().set_name("stage" + std::to_string(i));
  }
  std::vector<const sp::netlist::Netlist*> views;
  for (const auto& s : stages) views.push_back(&s);
  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  const sp::device::LatchModel latch{{}, model};
  const auto spec = sp::process::VariationSpec::inter_intra(0.020, 0.010);
  const sp::mc::GateLevelMonteCarlo mc(views, model, spec, latch);

  std::vector<double> ref;  // scalar backend, width 1
  {
    BackendGuard guard(simd::Backend::kScalar);
    sp::sim::ExecutionOptions exec;
    exec.threads = 1;
    exec.block_width = 1;
    sp::stats::Rng rng(31337);
    ref = mc.run(500, rng, exec).tp_samples;
  }
  ASSERT_EQ(ref.size(), 500u);

  for (simd::Backend b : simd::detected_backends()) {
    BackendGuard guard(b);
    for (std::size_t w : matrix_widths(simd::kernels().max_width)) {
      sp::sim::ExecutionOptions exec;
      exec.threads = 2;
      exec.block_width = w;
      sp::stats::Rng rng(31337);
      const auto r = mc.run(500, rng, exec);
      ASSERT_EQ(r.tp_samples.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(r.tp_samples[i], ref[i])
            << simd::backend_name(b) << " w=" << w << " sample " << i;
    }
  }
}

TEST(SimdMatrix, RngDrawKernelsMatchScalarReferenceBitwise) {
  // The lane-batched draw kernels (uniform_u64_lanes / normal_fill_lanes)
  // must reproduce each lane's scalar stream bitwise on every backend at
  // every width — including through the masked ziggurat fast path and the
  // per-lane rejection fallback.  n is big enough that the ~1.2% slow path
  // (tail + wedge) fires on every (backend, width) cell.
  const std::size_t n = 2048;
  std::size_t tail_draws = 0;
  for (simd::Backend b : simd::detected_backends()) {
    BackendGuard guard(b);
    for (std::size_t w : matrix_widths(simd::kernels().max_width)) {
      sp::stats::Rng root(424242);
      std::vector<sp::stats::Rng> lanes, ref;
      for (std::size_t j = 0; j < w; ++j) lanes.push_back(root.fork(j));
      ref = lanes;
      std::vector<sp::stats::Xoshiro256> engines;
      for (std::size_t j = 0; j < w; ++j) engines.push_back(ref[j].engine());

      sp::stats::RngBlock rb;
      rb.pack(lanes.data(), w);
      std::vector<std::uint64_t> words(n * w);
      rb.uniform_u64(words.data(), n, w);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < w; ++j)
          ASSERT_EQ(words[i * w + j], engines[j]())
              << simd::backend_name(b) << " w=" << w << " lane " << j;

      // Re-pack fresh streams for the normal kernel (the uniform pass above
      // advanced the block's states).
      for (std::size_t j = 0; j < w; ++j) lanes[j] = root.fork(j);
      ref = lanes;
      rb.pack(lanes.data(), w);
      std::vector<double> got(n * w);
      rb.normal_fill(0.35, got.data(), n, w);
      for (std::size_t j = 0; j < w; ++j) {
        std::vector<double> want(n);
        ref[j].normal_fill_scaled(0.35, want.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i * w + j], want[i])
              << simd::backend_name(b) << " w=" << w << " lane " << j
              << " draw " << i;
          if (std::abs(want[i]) > 0.35 * sp::stats::ziggurat::kR)
            ++tail_draws;
        }
      }
    }
  }
  // The matrix must actually have exercised the rejection fallback.
  EXPECT_GT(tail_draws, 0u);
}

TEST(SimdMatrix, GateLevelMcBlockRunTailHeavySeedInvariant) {
  // Second end-to-end seed for the block-run matrix, sized so the ziggurat
  // slow path fires hundreds of times per run (~1.2% of draws; one die
  // draws one normal per site plus latch overheads): the lanes that hit
  // rejection re-enter the scalar path mid-block, and the equality below
  // proves they rejoin their streams bit for bit on every backend x width.
  std::vector<sp::netlist::Netlist> stages;
  for (std::size_t i = 0; i < 2; ++i) {
    stages.push_back(sp::netlist::inverter_chain(12));
    stages.back().set_name("tail_stage" + std::to_string(i));
  }
  std::vector<const sp::netlist::Netlist*> views;
  for (const auto& s : stages) views.push_back(&s);
  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  const sp::device::LatchModel latch{{}, model};
  const auto spec = sp::process::VariationSpec::inter_intra(0.030, 0.015);
  const sp::mc::GateLevelMonteCarlo mc(views, model, spec, latch);

  std::vector<double> ref;  // scalar backend, width 1
  {
    BackendGuard guard(simd::Backend::kScalar);
    sp::sim::ExecutionOptions exec;
    exec.threads = 1;
    exec.block_width = 1;
    sp::stats::Rng rng(0xD1CEBA11);
    ref = mc.run(1000, rng, exec).tp_samples;
  }
  ASSERT_EQ(ref.size(), 1000u);

  for (simd::Backend b : simd::detected_backends()) {
    BackendGuard guard(b);
    for (std::size_t w : matrix_widths(simd::kernels().max_width)) {
      sp::sim::ExecutionOptions exec;
      exec.threads = 2;
      exec.block_width = w;
      sp::stats::Rng rng(0xD1CEBA11);
      const auto r = mc.run(1000, rng, exec);
      ASSERT_EQ(r.tp_samples.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(r.tp_samples[i], ref[i])
            << simd::backend_name(b) << " w=" << w << " sample " << i;
    }
  }
}

TEST(SimdMatrix, WalkDomainFaultThrowsTheScalarError) {
  // A die far out of saturation must produce the same std::domain_error
  // through the dispatched walk as through the scalar variation_factor,
  // on every backend.
  for (simd::Backend b : simd::detected_backends()) {
    BackendGuard guard(b);
    const sp::device::AlphaPowerModel model{sp::process::Technology{}};
    std::vector<double> dvth{0.0, 5.0};  // lane 1: Vth shift >> Vdd
    std::vector<double> dl{0.0, 0.0};
    std::vector<double> out(2);
    try {
      model.variation_factor_lanes(dvth.data(), dl.data(), 2, out.data());
      FAIL() << "expected std::domain_error on " << simd::backend_name(b);
    } catch (const std::domain_error& e) {
      EXPECT_NE(std::string(e.what()).find("out of saturation"),
                std::string::npos);
    }
  }
}
