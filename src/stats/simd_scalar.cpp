// Scalar reference backend: the lane kernels compiled with the target's
// baseline flags only.  This is the portable fallback every platform gets
// and the reference side of the per-backend self-consistency tests; on
// x86-64 "baseline" still means SSE2, but nothing beyond it.
//
// Width policy: kernels are width-agnostic loops, so the scalar backend
// accepts the absolute cap (lanes::kMaxWidth) — wide blocks still amortize
// the per-gate walk overhead even without wide registers — and prefers the
// historical default of 8.
#define STATPIPE_SIMD_NS scalar
#include "stats/lanes_kernels.inl"

namespace statpipe::stats::simd::detail {

const KernelTable* scalar_table() noexcept {
  static constexpr KernelTable t{
      Backend::kScalar,
      "scalar",
      /*max_width=*/lanes::kMaxWidth,
      /*default_width=*/8,
      &scalar::pow_pos_lanes,
      &scalar::variation_factor_lanes,
      &scalar::clark_max_lanes,
      &scalar::uniform_u64_lanes,
      &scalar::normal_fill_lanes,
      &scalar::sta_block_walk,
  };
  return &t;
}

}  // namespace statpipe::stats::simd::detail
