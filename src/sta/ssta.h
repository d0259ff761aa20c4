// Gate-level statistical static timing analysis (SSTA) in a reduced
// canonical first-order form.
//
// Every arrival time is represented as
//
//   A = mu + b_inter * Z_inter + b_sys * Z_sys + sigma_ind * Z_local
//
// where Z_inter is the single die-wide standard normal shared by all gates
// (inter-die variation), Z_sys is the stage-wide systematic normal (the
// spatially-correlated intra-die field: its correlation length spans a
// whole pipe stage, so within one stage netlist it acts as a single shared
// variable — matching process::VariationSampler's geometry), and Z_local
// is the gate-private RDF residual (treated as independent between paths;
// reconvergent-path residual correlation is the standard first-order SSTA
// approximation, quantified against full Monte-Carlo in tests/bench).
//
//   SUM:  mus add, b's add linearly, sigma_ind adds in quadrature.
//   MAX:  Clark's operator with rho = (b1i*b2i + b1s*b2s) / (s1*s2); the
//         result's b's are split back out by matching covariance with each
//         shared normal (Cov(max, Z) = b1*Phi(alpha) + b2*Phi(-alpha),
//         Clark eq. 6), the residual keeps the total variance exact.
#pragma once

#include "device/delay_model.h"
#include "netlist/netlist.h"
#include "process/variation.h"
#include "stats/clark.h"
#include "stats/gaussian.h"

namespace statpipe::sta {

/// First-order canonical arrival time.  (b_sys is declared after
/// sigma_ind so two-/three-value aggregate initializers keep their
/// historical meaning {mu, b_inter, sigma_ind}.)
struct CanonicalDelay {
  double mu = 0.0;
  double b_inter = 0.0;    ///< coefficient on the shared inter-die normal
  double sigma_ind = 0.0;  ///< independent residual sigma
  double b_sys = 0.0;      ///< coefficient on the stage-wide systematic normal

  double variance() const noexcept {
    return b_inter * b_inter + b_sys * b_sys + sigma_ind * sigma_ind;
  }
  double sigma() const noexcept;
  stats::Gaussian as_gaussian() const;

  /// Correlation with another canonical delay through both shared normals:
  /// (b_inter*b_inter' + b_sys*b_sys') / (sigma*sigma'), clamped to [-1, 1];
  /// 0 when either sigma is 0.
  double correlation(const CanonicalDelay& other) const noexcept;

  friend CanonicalDelay operator+(const CanonicalDelay& a,
                                  const CanonicalDelay& b) noexcept;
};

/// Clark max of two canonical delays, re-projected onto the canonical form.
CanonicalDelay canonical_max(const CanonicalDelay& a, const CanonicalDelay& b);

/// Structure-of-arrays view over K parallel canonical delays (one sweep lane
/// each) — the layout the batched SSTA propagation keeps per gate: four
/// contiguous K-wide vectors instead of K interleaved structs.
struct CanonicalLanes {
  double* mu = nullptr;
  double* b_inter = nullptr;
  double* sigma_ind = nullptr;
  double* b_sys = nullptr;

  CanonicalDelay load(std::size_t k) const {
    return {mu[k], b_inter[k], sigma_ind[k], b_sys[k]};
  }
  void store(std::size_t k, const CanonicalDelay& d) const {
    mu[k] = d.mu;
    b_inter[k] = d.b_inter;
    sigma_ind[k] = d.sigma_ind;
    b_sys[k] = d.b_sys;
  }
};

/// acc[k] = canonical_max(acc[k], other[k]) for every lane — exactly the
/// scalar operator per lane (bitwise-identical), evaluated over contiguous
/// lane blocks via stats::clark_max_lanes so one gate visit of the bound
/// walk (sta::SstaBatch) services all its lanes.  One lane takes the scalar
/// operator directly.
void canonical_max_lanes(const CanonicalLanes& acc, const CanonicalLanes& other,
                         std::size_t lanes);

struct SstaOptions {
  double output_load = 2.0;
};

/// Full-netlist SSTA: canonical arrival at the critical output.  One bound
/// lane of sta::SstaBatch (defined in ssta_batch.cpp), so it binds the
/// netlist on every call.
CanonicalDelay analyze_ssta(const netlist::Netlist& nl,
                            const device::AlphaPowerModel& model,
                            const process::VariationSpec& spec,
                            const SstaOptions& opt = {});

}  // namespace statpipe::sta
