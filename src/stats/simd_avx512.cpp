// AVX-512 backend (x86-64 only): 8 doubles per register.  Requires the
// F+DQ+BW+VL subset — DQ for native packed int64 arithmetic in pow_pos's
// exponent splicing, VL so the compiler can use 512-bit-profile encodings
// at narrower widths for the tail loops.  -mprefer-vector-width=512 opts
// into full-width vectors (gcc's default of 256 leaves half the unit idle;
// the frequency-licensing downside mostly concerns pre-Ice-Lake parts).
// No -mfma, same rationale as the AVX2 backend.
//
// Width policy: the absolute cap (lanes::kMaxWidth = 64, eight full
// registers per lane row), default 32.
#if defined(__x86_64__) || defined(_M_X64)

#define STATPIPE_SIMD_NS avx512
#include "stats/lanes_kernels.inl"

namespace statpipe::stats::simd::detail {

const KernelTable* avx512_table() noexcept {
  static constexpr KernelTable t{
      Backend::kAvx512,
      "avx512",
      /*max_width=*/lanes::kMaxWidth,
      /*default_width=*/32,
      &avx512::pow_pos_lanes,
      &avx512::variation_factor_lanes,
      &avx512::clark_max_lanes,
      &avx512::uniform_u64_lanes,
      &avx512::normal_fill_lanes,
      &avx512::sta_block_walk,
  };
  return &t;
}

}  // namespace statpipe::stats::simd::detail

#else  // non-x86: backend compiled out

#include "stats/simd.h"

namespace statpipe::stats::simd::detail {
const KernelTable* avx512_table() noexcept { return nullptr; }
}  // namespace statpipe::stats::simd::detail

#endif
