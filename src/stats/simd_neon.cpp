// NEON backend (arm64 only): 2 doubles per register.  Advanced SIMD is
// architecturally mandatory on AArch64, so this backend needs no extra -m
// flags and no runtime CPU check — it is simply the aarch64 baseline
// compile of the kernels, named so dispatch, STATPIPE_SIMD forcing and
// bench metadata treat both architectures uniformly.  AArch64's baseline
// ISA includes fused multiply-add, so the project-wide -ffp-contract=off
// (CMakeLists.txt) is what keeps contraction out of this backend — and out
// of the aarch64 scalar reference — preserving the bitwise contract.
//
// Width policy mirrors the SSE4.2 backend (same register width): max 16,
// default 8.
#if defined(__aarch64__) || defined(_M_ARM64)

#define STATPIPE_SIMD_NS neon
#include "stats/lanes_kernels.inl"

namespace statpipe::stats::simd::detail {

const KernelTable* neon_table() noexcept {
  static constexpr KernelTable t{
      Backend::kNeon,
      "neon",
      /*max_width=*/16,
      /*default_width=*/8,
      &neon::pow_pos_lanes,
      &neon::variation_factor_lanes,
      &neon::clark_max_lanes,
      &neon::uniform_u64_lanes,
      &neon::normal_fill_lanes,
      &neon::sta_block_walk,
  };
  return &t;
}

}  // namespace statpipe::stats::simd::detail

#else  // non-arm64: backend compiled out

#include "stats/simd.h"

namespace statpipe::stats::simd::detail {
const KernelTable* neon_table() noexcept { return nullptr; }
}  // namespace statpipe::stats::simd::detail

#endif
