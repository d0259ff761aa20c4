#include "sta/ssta.h"

#include <algorithm>
#include <cmath>

namespace statpipe::sta {

double CanonicalDelay::sigma() const noexcept { return std::sqrt(variance()); }

stats::Gaussian CanonicalDelay::as_gaussian() const { return {mu, sigma()}; }

double CanonicalDelay::correlation(const CanonicalDelay& other) const noexcept {
  const double s1 = sigma(), s2 = other.sigma();
  if (s1 <= 0.0 || s2 <= 0.0) return 0.0;
  return std::clamp(
      (b_inter * other.b_inter + b_sys * other.b_sys) / (s1 * s2), -1.0, 1.0);
}

CanonicalDelay operator+(const CanonicalDelay& a,
                         const CanonicalDelay& b) noexcept {
  return {a.mu + b.mu, a.b_inter + b.b_inter,
          std::sqrt(a.sigma_ind * a.sigma_ind + b.sigma_ind * b.sigma_ind),
          a.b_sys + b.b_sys};
}

namespace {

// Re-projection of a pairwise Clark result onto the canonical form: each
// shared coefficient matches Cov(max, Z) = b_a*Phi(alpha) + b_b*Phi(-alpha)
// (Clark eq. 6).  Shared by the scalar and the lane-batched max so both
// paths execute the identical floating-point sequence.
CanonicalDelay reproject_max(const CanonicalDelay& a, const CanonicalDelay& b,
                             const stats::ClarkMax& cm) {
  const double w = cm.phi_a;
  double bi = a.b_inter * w + b.b_inter * (1.0 - w);
  double bs = a.b_sys * w + b.b_sys * (1.0 - w);
  const double var = cm.max.variance();
  const double resid = var - bi * bi - bs * bs;
  CanonicalDelay r;
  r.mu = cm.max.mean;
  if (resid >= 0.0) {
    r.b_inter = bi;
    r.b_sys = bs;
    r.sigma_ind = std::sqrt(resid);
  } else if (var > 0.0) {
    // Moment matching overshot the shared part: rescale the b's so the
    // total variance is preserved exactly.
    const double scale = std::sqrt(var / (bi * bi + bs * bs));
    r.b_inter = bi * scale;
    r.b_sys = bs * scale;
    r.sigma_ind = 0.0;
  }
  return r;
}

}  // namespace

CanonicalDelay canonical_max(const CanonicalDelay& a, const CanonicalDelay& b) {
  const double rho = a.correlation(b);
  const auto cm = stats::clark_max(a.as_gaussian(), b.as_gaussian(), rho);
  return reproject_max(a, b, cm);
}

namespace {

// canonical_max_lanes past one lane, out of line so the one-lane path sets
// up none of its stack scratch.
[[gnu::noinline]] void max_lane_chunks(const CanonicalLanes& acc,
                                       const CanonicalLanes& other,
                                       std::size_t lanes) {
  // Fixed-size chunks keep the SoA scratch (sigmas, correlations, Clark
  // outputs) on the stack while feeding clark_max_lanes contiguous blocks.
  // Per lane the sequence is exactly canonical_max's: correlation ->
  // clark_max -> reproject, so results are bitwise-identical to scalar
  // folding lane by lane.  No per-lane dispatch into the scalar operator:
  // the sigma/correlation prologue below and the Clark kernel itself are
  // straight-line loops over the canonical-form arrays.
  constexpr std::size_t kChunk = stats::lanes::kMaxWidth;  // 64: widest
  // block any SIMD backend accepts, so one chunk feeds even the AVX-512
  // kernel full rows while the stack scratch stays at 4 KiB.
  double s1[kChunk], s2[kChunk], rho[kChunk];
  double cmean[kChunk], csigma[kChunk], calpha[kChunk], ca[kChunk],
      cphi[kChunk];
  for (std::size_t base = 0; base < lanes; base += kChunk) {
    const std::size_t n = std::min(kChunk, lanes - base);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = base + k;
      // sigma() of each side, then the shared-normal correlation — the exact
      // expressions of CanonicalDelay::sigma / ::correlation, with the
      // degenerate zero-sigma case resolved by select on a sanitized divisor.
      const double v1 = acc.b_inter[i] * acc.b_inter[i] +
                        acc.b_sys[i] * acc.b_sys[i] +
                        acc.sigma_ind[i] * acc.sigma_ind[i];
      const double v2 = other.b_inter[i] * other.b_inter[i] +
                        other.b_sys[i] * other.b_sys[i] +
                        other.sigma_ind[i] * other.sigma_ind[i];
      s1[k] = std::sqrt(v1);
      s2[k] = std::sqrt(v2);
      const bool zero = s1[k] <= 0.0 || s2[k] <= 0.0;
      const double denom = stats::lanes::select(zero, 1.0, s1[k] * s2[k]);
      const double num = acc.b_inter[i] * other.b_inter[i] +
                         acc.b_sys[i] * other.b_sys[i];
      rho[k] = stats::lanes::select(zero, 0.0,
                                    std::clamp(num / denom, -1.0, 1.0));
    }
    const stats::GaussianLanesView ga{acc.mu + base, s1};
    const stats::GaussianLanesView gb{other.mu + base, s2};
    stats::clark_max_lanes(ga, gb, rho, n,
                           {cmean, csigma, calpha, ca, cphi});
    for (std::size_t k = 0; k < n; ++k) {
      const stats::ClarkMax cm{{cmean[k], csigma[k]}, calpha[k], ca[k],
                               cphi[k]};
      acc.store(base + k,
                reproject_max(acc.load(base + k), other.load(base + k), cm));
    }
  }
}

}  // namespace

void canonical_max_lanes(const CanonicalLanes& acc, const CanonicalLanes& other,
                         std::size_t lanes) {
  if (lanes == 1)  // the scalar operator itself: no chunk or kernel dispatch
    acc.store(0, canonical_max(acc.load(0), other.load(0)));
  else
    max_lane_chunks(acc, other, lanes);
}

}  // namespace statpipe::sta
