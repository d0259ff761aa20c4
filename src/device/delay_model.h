// Alpha-power-law gate-delay model — the SPICE stand-in.
//
// The drain saturation current of a velocity-saturated MOSFET follows
// I_dsat ~ (W/L) (Vdd - Vth)^alpha (Sakurai-Newton), so gate delay scales as
//
//   d = d_nominal * (L/L0)^2-ish * [(Vdd - Vth0)/(Vdd - Vth0 - dVth)]^alpha
//
// (the L exponent ~2 folds the mobility/short-channel dependence into one
// knob; only relative sensitivities matter for reproducing the paper).
// Composed with the logical-effort decomposition this gives, for a cell of
// kind k, size x, driving load C (inverter-cap units), at parameter shift
// (dVth, dL/L):
//
//   d = tau * (p_k + C/x) * varfactor(dVth, dL/L)      [ps]
//
// which is exactly the quantity the paper's SPICE Monte-Carlo measures per
// stage before feeding (mu_i, sigma_i) into the analytical model.
//
// Layer contract (src/device, see docs/ARCHITECTURE.md): owns cell-level
// physics — delay, power and latch models over (kind, size, load,
// parameter shift).  May depend on src/stats and src/process; must not
// know about netlists (a cell instance is described by its arguments, not
// by graph position) or any layer above.
#pragma once

#include "device/gate_library.h"
#include "process/variation.h"

namespace statpipe::device {

class AlphaPowerModel {
 public:
  /// Throws std::invalid_argument unless 0 < tech.alpha <= 3.9: the
  /// velocity-saturation index is physically 1..2, and the cap is what
  /// lets variation_factor's fixed drive-ratio window guarantee the pow
  /// core's |alpha * log2(ratio)| <= 1020 precondition (delay_model.cpp).
  explicit AlphaPowerModel(process::Technology tech);

  const process::Technology& technology() const noexcept { return tech_; }

  /// Multiplicative delay factor for threshold shift dvth [V] and relative
  /// channel-length shift dl_rel.  factor(0,0) == 1.
  /// Throws std::domain_error if dvth drives the gate out of saturation
  /// (Vdd - Vth <= 0) — a die that badly broken is a functional failure,
  /// not a timing sample.
  /// The exponentiation runs on the shared vectorizable pow core
  /// (stats::lanes::pow_pos), the same per-element function the lane form
  /// below evaluates — so the scalar and block sample-STA paths stay
  /// bitwise-identical by construction.
  double variation_factor(double dvth, double dl_rel = 0.0) const;

  /// Lane form: out[j] = variation_factor(dvth[j], dl_rel[j]) for j < n,
  /// bitwise-equal to n scalar calls (same pow core, same operation order
  /// per element) but dispatched to the active SIMD backend's vectorized
  /// kernel (stats/simd.h) — this call is the hot kernel of the block
  /// sample STA.  Domain violations are checked for every lane up front
  /// and throw std::domain_error before anything is written to `out`.
  void variation_factor_lanes(const double* dvth, const double* dl_rel,
                              std::size_t n, double* out) const;

  /// The variation-factor arithmetic flattened to plain doubles, for
  /// callers that inline the computation into a dispatched SIMD kernel
  /// (the block sample-STA walk): factor = pow_pos(drive0 / (drive0 -
  /// dvth), alpha) * (1 + dl_rel)^2, valid only while drive0 - dvth > 0,
  /// 1 + dl_rel > 0 and the drive ratio stays within [min_ratio,
  /// max_ratio] — outside that window the scalar variation_factor throws,
  /// and kernel callers must reproduce the same rejection.
  struct VariationKernelParams {
    double drive0;     ///< Vdd - Vth0
    double alpha;      ///< velocity-saturation index
    double min_ratio;  ///< drive-ratio window accepted by the pow core
    double max_ratio;
  };
  VariationKernelParams variation_kernel_params() const noexcept;

  /// Nominal (variation-free) delay of a cell instance [ps].
  /// `load_cap` in min-inverter-cap units; `size` >= minimum size.
  double nominal_delay(GateKind kind, double size, double load_cap) const;

  /// Delay under parameter shift [ps].
  double delay(GateKind kind, double size, double load_cap, double dvth,
               double dl_rel = 0.0) const;

  /// First-order sensitivity d(delay)/d(Vth) [ps/V] at the nominal point —
  /// used to map sigma_Vth into per-gate delay sigma analytically:
  ///   sigma_d ~ |d(delay)/dVth| * sigma_Vth.
  double dvth_sensitivity(GateKind kind, double size, double load_cap) const;

  /// Analytic per-gate delay sigma decomposition for a cell instance:
  /// {sigma from inter-die Vth, sigma from systematic Vth, sigma from RDF}.
  struct DelaySigmas {
    double inter = 0.0;
    double systematic = 0.0;
    double random = 0.0;
    double total() const;
  };
  DelaySigmas delay_sigmas(GateKind kind, double size, double load_cap,
                           const process::VariationSpec& spec) const;
  /// The same decomposition from a nominal delay the caller already holds
  /// (= nominal_delay(kind, size, load_cap)), so a timing walk evaluates
  /// each gate's nominal delay once.  Bitwise-equal to the form above.
  DelaySigmas delay_sigmas_at(double nominal, double size,
                              const process::VariationSpec& spec) const;

 private:
  process::Technology tech_;
};

}  // namespace statpipe::device
