// Process-variation model for sub-100nm CMOS, mirroring the decomposition
// used in the paper (section 2.1):
//
//   dVth(total) = dVth(inter-die)                 -- one draw per die,
//                                                    shared by every device
//             + dVth(intra, systematic/spatial)   -- correlated across the
//                                                    die with a decay length
//             + dVth(intra, random / RDF)         -- independent per device,
//                                                    sigma ~ Avt/sqrt(W L)
//
// Channel-length variation uses the same inter/systematic split (RDF does
// not apply to L).  These parameter shifts feed the device module's
// alpha-power delay model, which converts them into gate-delay shifts —
// the stand-in for the paper's 70nm-BPTM SPICE Monte-Carlo.
//
// Layer contract (src/process, see docs/ARCHITECTURE.md): owns the
// variation decomposition and correlated die sampling — parameter space
// only, never delays.  May depend on src/stats alone; must not know about
// devices, netlists, timing or anything above them.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/lanes.h"
#include "stats/rng.h"

namespace statpipe::process {

/// Nominal technology parameters, loosely matched to the 70nm Berkeley
/// Predictive Technology Model node the paper simulates.
struct Technology {
  double vdd = 1.0;          ///< supply voltage [V]
  double vth0 = 0.20;        ///< nominal NMOS threshold [V]
  double leff = 70e-9;       ///< nominal effective channel length [m]
  double wmin = 140e-9;      ///< minimum device width [m]
  double alpha = 1.3;        ///< alpha-power-law velocity-saturation index
  double tau_ps = 4.0;       ///< delay of a min inverter driving one copy [ps]

  /// Avt mismatch coefficient: sigma_Vth(RDF) = avt / sqrt(W*L) [V*m].
  /// Chosen so a minimum device (W=wmin, L=leff) sees ~30 mV RDF sigma,
  /// consistent with sub-100nm random-dopant-fluctuation data [6].
  double avt = 30e-3 * 9.899494936611665e-8;  // 30mV * sqrt(140e-9 * 70e-9)

  /// sigma_Vth(RDF) for a device of `width_mult` minimum widths.
  double sigma_vth_rdf(double width_mult) const;
};

/// Strengths of each variation component.
struct VariationSpec {
  double sigma_vth_inter = 0.020;      ///< inter-die Vth sigma [V]
  double sigma_vth_systematic = 0.0;   ///< intra-die spatially-correlated [V]
  double correlation_length = 0.5;     ///< decay length for systematic field,
                                       ///< in normalized die units
  bool enable_rdf = true;              ///< random (RDF) component on/off
  double sigma_l_inter_rel = 0.0;      ///< inter-die dL/L (relative)
  double sigma_l_systematic_rel = 0.0; ///< systematic dL/L (relative)

  /// Named presets used across benches (match the paper's figure legends).
  static VariationSpec intra_only();                  ///< RDF only
  static VariationSpec inter_only(double sigma_v = 0.040);
  static VariationSpec inter_intra(double sigma_v_inter,
                                   double sigma_v_systematic = 0.010,
                                   double corr_length = 0.5);
};

/// One sampled die: parameter shifts for every device site.
struct DieSample {
  double dvth_inter = 0.0;              ///< shared Vth shift [V]
  double dl_inter_rel = 0.0;            ///< shared relative L shift
  std::vector<double> dvth_systematic;  ///< per-site systematic Vth [V]
  std::vector<double> dl_systematic_rel;///< per-site systematic dL/L
  std::vector<double> dvth_random;      ///< per-site RDF Vth [V] (unit width;
                                        ///< scale by 1/sqrt(w) at the device)

  /// Total Vth shift at site i for a device of `width_mult` min-widths.
  double dvth_at(std::size_t i, double width_mult) const;
  /// Shared (inter + systematic) Vth shift at site i, excluding RDF — the
  /// shift seen by multi-transistor cells like latches whose internal RDF
  /// is modeled separately (device::LatchTiming::random_sigma_rel).
  double dvth_shared_at(std::size_t i) const;
  /// Total relative channel-length shift at site i.
  double dl_rel_at(std::size_t i) const;
};

/// Reusable scratch buffers for VariationSampler::sample_into — one per
/// Monte-Carlo shard, so the per-sample loop is allocation-free.
struct DieWorkspace {
  std::vector<double> z;      ///< standard-normal draws for the field
  std::vector<double> field;  ///< correlated systematic field
};

/// Structure-of-arrays block of `width` sampled dies — the unit the
/// block-vectorized sampling/STA kernel layer streams through the gate-level
/// Monte-Carlo hot path.  Per-site arrays are site-major with lanes
/// contiguous: value of site i on die (lane) j lives at [i * width + j], so
/// one gate visit of the block sample STA reads `width` consecutive doubles.
/// Component presence mirrors DieSample: an absent component's vector is
/// empty, and lane accessors execute exactly the scalar DieSample accessors'
/// floating-point sequence (same adds, same order) so per-die results are
/// bitwise-identical to the scalar path.
struct DieBlock {
  std::size_t width = 0;  ///< lanes (dies) per block, <= the active SIMD
                          ///< backend's stats::lanes::max_width()
  std::size_t sites = 0;  ///< device sites per die
  std::vector<double> dvth_inter;         ///< [width] shared Vth shift [V]
  std::vector<double> dl_inter_rel;       ///< [width] shared relative L shift
  std::vector<double> dvth_systematic;    ///< [sites*width] or empty
  std::vector<double> dl_systematic_rel;  ///< [sites*width] or empty
  std::vector<double> dvth_random;        ///< [sites*width] or empty (unit width)

  /// Total Vth shift at site i on lane j for a device of `width_mult`
  /// min-widths — DieSample::dvth_at, lane-indexed.
  double dvth_at(std::size_t i, std::size_t j, double width_mult) const;
  /// Shared (inter + systematic) Vth shift at site i on lane j, excluding
  /// RDF — DieSample::dvth_shared_at, lane-indexed.
  double dvth_shared_at(std::size_t i, std::size_t j) const;
  /// Total relative channel-length shift at site i on lane j.
  double dl_rel_at(std::size_t i, std::size_t j) const;
};

/// Reusable scratch for VariationSampler::sample_block_into — the SoA
/// buffers the lane-batched draw kernel writes and the field scan
/// (VariationSampler::correlate_field) reads, one per Monte-Carlo shard.
/// Layout is backend-agnostic plain arrays: which SIMD backend consumes
/// them never changes their shape.
struct BlockWorkspace {
  std::vector<double> zt;     ///< [sites*width] site-major field draws
  std::vector<double> fieldw; ///< [sites*width] site-major correlated field
};

/// Generates correlated DieSamples for a fixed set of device sites.
///
/// Sites are positions in normalized die coordinates [0,1]; the systematic
/// field over sites has correlation exp(-d/correlation_length).  Sites are
/// 1-D and that kernel is an Ornstein-Uhlenbeck (Markov) covariance, so
/// its exact factor is a first-order recursion over the sites sorted by
/// position: with gap d_k to the previous sorted site,
///   x_0 = z_0,   x_k = rho_k * x_{k-1} + sqrt(1 - rho_k^2) * z_k,
///   rho_k = exp(-d_k / correlation_length),
/// and x_k is the field at the k-th sorted site.  Construction sorts once
/// (O(n log n)); every die costs O(n) and the sampler holds O(n) state.
/// Tied positions get rho = 1 and a zero innovation — the field is then
/// exactly equal at both sites.
/// Sampling is const and reentrant: concurrent sample()/sample_into calls
/// on one sampler are safe as long as each caller owns its Rng/workspace.
class VariationSampler {
 public:
  /// Throws std::invalid_argument on no sites or a negative sigma, and —
  /// when the systematic field is on — on a non-finite or non-positive
  /// correlation_length or a non-finite site position.
  VariationSampler(Technology tech, VariationSpec spec,
                   std::vector<double> site_positions);

  const Technology& technology() const noexcept { return tech_; }
  const VariationSpec& spec() const noexcept { return spec_; }
  std::size_t site_count() const noexcept { return positions_.size(); }

  /// Draw one die.
  DieSample sample(stats::Rng& rng) const;

  /// Draw one die into caller-owned storage (identical draw sequence to
  /// sample()); `out` and `ws` are reused across calls.
  void sample_into(stats::Rng& rng, DieSample& out, DieWorkspace& ws) const;

  /// Draw `width` correlated dies into an SoA block in one call: every draw
  /// — inter shifts, the systematic field's standard normals (written
  /// site-major directly, no transpose pass) and RDF — runs lane-batched
  /// through the active SIMD backend's draw kernels (stats::RngBlock over
  /// stats/simd.h's normal_fill_lanes), and the field through the same
  /// correlate_field scan sample_into runs at width 1, so the per-lane
  /// arithmetic is shared by construction.  Lane j consumes lane_rngs[j]
  /// with exactly the draw sequence of sample_into (lane_rngs[j] is left
  /// advanced accordingly), so lane j of the block is bitwise-identical to
  /// a scalar sample_into call on the same Rng state — the equivalence the
  /// block Monte-Carlo path's determinism rests on.  `out` and `ws` are
  /// reused across calls; width must be in [1, stats::lanes::max_width()]
  /// for the active backend (validated, never clamped).
  void sample_block_into(stats::Rng* lane_rngs, std::size_t width,
                         DieBlock& out, BlockWorkspace& ws) const;

  /// Effective stage-to-stage delay correlation implied by the spec when a
  /// stage's delay sigma decomposes into inter + systematic + random parts:
  /// rho = shared_variance / total_variance.  Used by the analytical side
  /// to build stage correlation matrices consistent with MC.
  static double implied_correlation(double sigma_shared, double sigma_private);

  /// Applies the systematic field's exact factor F to `width` site-major
  /// lanes of standard normals: field[i*width + j] = (F z_j)[i], where lane
  /// j's z_j is z[k*width + j] over k (k in sorted-site order), so that
  /// F F^T = stats::spatial_correlation(positions, correlation_length).
  /// The one field path of sample_into (width 1) and sample_block_into;
  /// tests feed unit vectors through it to recover F.  Requires the field
  /// to be on; `field` must hold site_count()*width doubles.
  void correlate_field(const double* z, std::size_t width,
                       double* field) const;

 private:
  Technology tech_;
  VariationSpec spec_;
  std::vector<double> positions_;
  bool has_systematic_ = false;
  // The field recursion, empty when the field is off: sites in ascending
  // position (ties by index), and per sorted step k >= 1 the decay rho_[k]
  // and innovation scale sq_[k] = sqrt(1 - rho_[k]^2).
  std::vector<std::size_t> order_;
  std::vector<double> rho_;
  std::vector<double> sq_;
};

/// Evenly spaced site positions in [0,1] — the default placement for a
/// pipeline's stages or a chain's gates along the die.
std::vector<double> linear_sites(std::size_t n);

}  // namespace statpipe::process
