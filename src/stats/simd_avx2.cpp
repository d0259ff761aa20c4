// AVX2 backend (x86-64 only): 4 doubles per register, full-width integer
// ops for pow_pos's exponent splicing.  Compiled with -mavx2 but never
// -mfma, and under the project-wide -ffp-contract=off, so the wider lanes
// execute the exact IEEE sequence of the scalar reference — which is what
// keeps this backend on the repository's bitwise determinism contract.
//
// Width policy: max 32 (one lane row of the four Clark SoA arrays at width
// 32 spans four cache lines — past that the walk turns memory-bound before
// the wider registers help), default 16.
#if defined(__x86_64__) || defined(_M_X64)

#define STATPIPE_SIMD_NS avx2
#include "stats/lanes_kernels.inl"

namespace statpipe::stats::simd::detail {

const KernelTable* avx2_table() noexcept {
  static constexpr KernelTable t{
      Backend::kAvx2,
      "avx2",
      /*max_width=*/32,
      /*default_width=*/16,
      &avx2::pow_pos_lanes,
      &avx2::variation_factor_lanes,
      &avx2::clark_max_lanes,
      &avx2::uniform_u64_lanes,
      &avx2::normal_fill_lanes,
      &avx2::sta_block_walk,
  };
  return &t;
}

}  // namespace statpipe::stats::simd::detail

#else  // non-x86: backend compiled out

#include "stats/simd.h"

namespace statpipe::stats::simd::detail {
const KernelTable* avx2_table() noexcept { return nullptr; }
}  // namespace statpipe::stats::simd::detail

#endif
