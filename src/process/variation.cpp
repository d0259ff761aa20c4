#include "process/variation.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "obs/telemetry.h"

namespace statpipe::process {

double Technology::sigma_vth_rdf(double width_mult) const {
  if (width_mult <= 0.0)
    throw std::invalid_argument("sigma_vth_rdf: width_mult must be > 0");
  return avt / std::sqrt(width_mult * wmin * leff);
}

VariationSpec VariationSpec::intra_only() {
  VariationSpec s;
  s.sigma_vth_inter = 0.0;
  s.sigma_vth_systematic = 0.0;
  s.enable_rdf = true;
  return s;
}

VariationSpec VariationSpec::inter_only(double sigma_v) {
  VariationSpec s;
  s.sigma_vth_inter = sigma_v;
  s.sigma_vth_systematic = 0.0;
  s.enable_rdf = false;
  return s;
}

VariationSpec VariationSpec::inter_intra(double sigma_v_inter,
                                         double sigma_v_systematic,
                                         double corr_length) {
  VariationSpec s;
  s.sigma_vth_inter = sigma_v_inter;
  s.sigma_vth_systematic = sigma_v_systematic;
  s.correlation_length = corr_length;
  s.enable_rdf = true;
  return s;
}

double DieSample::dvth_at(std::size_t i, double width_mult) const {
  double d = dvth_inter;
  if (i < dvth_systematic.size()) d += dvth_systematic[i];
  if (i < dvth_random.size()) d += dvth_random[i] / std::sqrt(width_mult);
  return d;
}

double DieSample::dvth_shared_at(std::size_t i) const {
  double d = dvth_inter;
  if (i < dvth_systematic.size()) d += dvth_systematic[i];
  return d;
}

double DieSample::dl_rel_at(std::size_t i) const {
  double d = dl_inter_rel;
  if (i < dl_systematic_rel.size()) d += dl_systematic_rel[i];
  return d;
}

double DieBlock::dvth_at(std::size_t i, std::size_t j,
                         double width_mult) const {
  double d = dvth_inter[j];
  if (!dvth_systematic.empty()) d += dvth_systematic[i * width + j];
  if (!dvth_random.empty())
    d += dvth_random[i * width + j] / std::sqrt(width_mult);
  return d;
}

double DieBlock::dvth_shared_at(std::size_t i, std::size_t j) const {
  double d = dvth_inter[j];
  if (!dvth_systematic.empty()) d += dvth_systematic[i * width + j];
  return d;
}

double DieBlock::dl_rel_at(std::size_t i, std::size_t j) const {
  double d = dl_inter_rel[j];
  if (!dl_systematic_rel.empty()) d += dl_systematic_rel[i * width + j];
  return d;
}

VariationSampler::VariationSampler(Technology tech, VariationSpec spec,
                                   std::vector<double> site_positions)
    : tech_(tech), spec_(spec), positions_(std::move(site_positions)) {
  if (positions_.empty())
    throw std::invalid_argument("VariationSampler: no device sites");
  if (spec_.sigma_vth_inter < 0.0 || spec_.sigma_vth_systematic < 0.0)
    throw std::invalid_argument("VariationSampler: negative sigma");
  has_systematic_ = spec_.sigma_vth_systematic > 0.0 ||
                    spec_.sigma_l_systematic_rel > 0.0;
  if (!has_systematic_) return;
  const double len = spec_.correlation_length;
  if (!std::isfinite(len) || len <= 0.0)
    throw std::invalid_argument(
        "VariationSampler: correlation_length must be finite and > 0");
  for (const double p : positions_)
    if (!std::isfinite(p))
      throw std::invalid_argument(
          "VariationSampler: non-finite device site position");
  const std::size_t n = positions_.size();
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return positions_[a] < positions_[b];
                   });
  rho_.assign(n, 0.0);
  sq_.assign(n, 1.0);
  for (std::size_t k = 1; k < n; ++k) {
    const double d = (positions_[order_[k]] - positions_[order_[k - 1]]) / len;
    rho_[k] = std::exp(-d);
    sq_[k] = std::sqrt(-std::expm1(-2.0 * d));  // sqrt(1 - rho^2), no
                                                // cancellation at small d
  }
}

void VariationSampler::correlate_field(const double* z, std::size_t width,
                                       double* field) const {
  // Sequential over sorted sites, lanes contiguous within each site: the
  // per-lane arithmetic is identical at every width, which is what makes
  // sample_into (width 1) and sample_block_into bitwise-equal per lane.
  const std::size_t n = order_.size();
  const double* prev = field + order_[0] * width;
  std::copy(z, z + width, field + order_[0] * width);
  for (std::size_t k = 1; k < n; ++k) {
    double* cur = field + order_[k] * width;
    const double* zk = z + k * width;
    const double r = rho_[k];
    const double s = sq_[k];
    for (std::size_t j = 0; j < width; ++j) cur[j] = r * prev[j] + s * zk[j];
    prev = cur;
  }
}

DieSample VariationSampler::sample(stats::Rng& rng) const {
  DieSample d;
  DieWorkspace ws;
  sample_into(rng, d, ws);
  return d;
}

void VariationSampler::sample_into(stats::Rng& rng, DieSample& d,
                                   DieWorkspace& ws) const {
  const std::size_t n = positions_.size();
  // Inter draws as sigma * normal() — phrased through the strided core so
  // the scalar path computes the exact expression the lane-batched kernel
  // writes (a literal normal(0.0, sigma) would prepend `0.0 +`, which
  // flushes a -0.0 draw to +0.0 and silently breaks the bitwise contract
  // in that one-in-2^55 corner).
  d.dvth_inter = 0.0;
  if (spec_.sigma_vth_inter > 0.0)
    rng.normal_fill_scaled(spec_.sigma_vth_inter, &d.dvth_inter, 1);
  d.dl_inter_rel = 0.0;
  if (spec_.sigma_l_inter_rel > 0.0)
    rng.normal_fill_scaled(spec_.sigma_l_inter_rel, &d.dl_inter_rel, 1);
  d.dvth_systematic.clear();
  d.dl_systematic_rel.clear();
  d.dvth_random.clear();

  if (has_systematic_) {
    // One correlated standard-normal field drives both Vth and L systematic
    // components (they share the same lithographic origin).
    rng.normal_fill(ws.z, n);
    ws.field.resize(n);
    correlate_field(ws.z.data(), 1, ws.field.data());
    if (spec_.sigma_vth_systematic > 0.0) {
      d.dvth_systematic.resize(n);
      for (std::size_t i = 0; i < n; ++i)
        d.dvth_systematic[i] = spec_.sigma_vth_systematic * ws.field[i];
    }
    if (spec_.sigma_l_systematic_rel > 0.0) {
      d.dl_systematic_rel.resize(n);
      for (std::size_t i = 0; i < n; ++i)
        d.dl_systematic_rel[i] = spec_.sigma_l_systematic_rel * ws.field[i];
    }
  }

  if (spec_.enable_rdf) {
    const double s_rdf = tech_.sigma_vth_rdf(1.0);  // unit-width sigma
    d.dvth_random.resize(n);
    rng.normal_fill_scaled(s_rdf, d.dvth_random.data(), n);
  }
}

void VariationSampler::sample_block_into(stats::Rng* lane_rngs,
                                         std::size_t width, DieBlock& d,
                                         BlockWorkspace& ws) const {
  // Single source of truth for the kernel width rule: throws on 0 or
  // beyond the active SIMD backend's max_width() — validated, never
  // clamped.
  const std::size_t W = stats::lanes::validated_width(width);
  const std::size_t n = positions_.size();
  d.width = W;
  d.sites = n;
  d.dvth_inter.resize(W);
  d.dl_inter_rel.resize(W);
  const bool sys_vth = has_systematic_ && spec_.sigma_vth_systematic > 0.0;
  const bool sys_l = has_systematic_ && spec_.sigma_l_systematic_rel > 0.0;
  d.dvth_systematic.resize(sys_vth ? n * W : 0);
  d.dl_systematic_rel.resize(sys_l ? n * W : 0);
  d.dvth_random.resize(spec_.enable_rdf ? n * W : 0);

  // Lane j's draw sequence is exactly sample_into's on lane_rngs[j] (inter
  // draws, the field's standard normals, then per-site RDF); each lane owns
  // its stream, so batching the draws reorders them only *across* lanes,
  // which no lane's stream can observe.  All draws below run through one
  // RngBlock — W interleaved engine states advanced by the active SIMD
  // backend's draw kernels (stats/simd.h normal_fill_lanes), each lane
  // bitwise on its own stream — and the advanced states are written back
  // to lane_rngs at the end for the consumers that follow (latch draws).
  //
  // Phase 1 — inter shifts, then the field's standard normals drawn
  // site-major straight into ws.zt (lane j at [i*W + j]): the layout the
  // field scan wants, with no per-lane transpose pass.
  // mc.draw / mc.chol spans: the block-MC phase breakdown the bench harness
  // and the Chrome trace both read (docs/OBSERVABILITY.md).  Phases 1 and 3
  // fold into one mc.draw aggregate; the field scan is mc.chol (the name
  // predates the scan and stays, since bench records key on it).
  static const obs::SpanId kDraw("mc.draw");
  static const obs::SpanId kChol("mc.chol");
  stats::RngBlock rb;
  rb.pack(lane_rngs, W);
  {
    obs::ScopedSpan draw_span(kDraw, static_cast<std::int64_t>(W));
    if (spec_.sigma_vth_inter > 0.0)
      rb.normal_fill(spec_.sigma_vth_inter, d.dvth_inter.data(), 1, W);
    else
      std::fill(d.dvth_inter.begin(), d.dvth_inter.end(), 0.0);
    if (spec_.sigma_l_inter_rel > 0.0)
      rb.normal_fill(spec_.sigma_l_inter_rel, d.dl_inter_rel.data(), 1, W);
    else
      std::fill(d.dl_inter_rel.begin(), d.dl_inter_rel.end(), 0.0);
    if (has_systematic_) {
      ws.zt.resize(n * W);
      rb.normal_fill(1.0, ws.zt.data(), n, W);
    }
  }

  // Phase 2 — one lane-batched field scan for all W fields (sample_into's
  // own correlate_field, at width W), then the per-component sigma
  // scaling as contiguous SoA sweeps.
  if (has_systematic_) {
    obs::ScopedSpan chol_span(kChol, static_cast<std::int64_t>(W));
    ws.fieldw.resize(n * W);
    correlate_field(ws.zt.data(), W, ws.fieldw.data());
    if (sys_vth)
      for (std::size_t i = 0; i < n * W; ++i)
        d.dvth_systematic[i] = spec_.sigma_vth_systematic * ws.fieldw[i];
    if (sys_l)
      for (std::size_t i = 0; i < n * W; ++i)
        d.dl_systematic_rel[i] = spec_.sigma_l_systematic_rel * ws.fieldw[i];
  }

  // Phase 3 — RDF draws, batched site-major into the block (the target is
  // already [i*W + j], exactly the kernel's output layout).
  if (spec_.enable_rdf) {
    obs::ScopedSpan draw_span(kDraw, static_cast<std::int64_t>(W));
    const double s_rdf = tech_.sigma_vth_rdf(1.0);  // unit-width sigma
    rb.normal_fill(s_rdf, d.dvth_random.data(), n, W);
  }
  rb.unpack(lane_rngs);
}

double VariationSampler::implied_correlation(double sigma_shared,
                                             double sigma_private) {
  const double vs = sigma_shared * sigma_shared;
  const double vp = sigma_private * sigma_private;
  if (vs + vp == 0.0) return 0.0;
  return vs / (vs + vp);
}

std::vector<double> linear_sites(std::size_t n) {
  if (n == 0) throw std::invalid_argument("linear_sites: n == 0");
  std::vector<double> p(n);
  if (n == 1) {
    p[0] = 0.5;
    return p;
  }
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<double>(i) / static_cast<double>(n - 1);
  return p;
}

}  // namespace statpipe::process
