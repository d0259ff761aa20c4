#include "device/delay_model.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "stats/lanes.h"
#include "stats/simd.h"

namespace statpipe::device {

namespace {

// Drive-ratio window accepted by the pow core: together with the
// constructor's alpha <= 3.9 cap it keeps |alpha * log2(ratio)| <= 998,
// inside pow_pos's documented |y*log2 x| <= 1020 precondition.  A die
// whose drive collapsed (or exploded) by 2^256 is a functional failure,
// not a timing sample — same rationale as the existing out-of-saturation
// rejection.
constexpr double kMinDriveRatio = 0x1p-256;
constexpr double kMaxDriveRatio = 0x1p256;
constexpr double kMaxAlpha = 3.9;

}  // namespace

AlphaPowerModel::AlphaPowerModel(process::Technology tech) : tech_(tech) {
  if (!(tech_.alpha > 0.0 && tech_.alpha <= kMaxAlpha))
    throw std::invalid_argument(
        "AlphaPowerModel: alpha must be in (0, " + std::to_string(kMaxAlpha) +
        "] (velocity saturation is physically 1..2; the cap bounds the pow "
        "core's exponent range)");
}

double AlphaPowerModel::variation_factor(double dvth, double dl_rel) const {
  const double drive0 = tech_.vdd - tech_.vth0;
  const double drive = drive0 - dvth;
  if (drive <= 0.0)
    throw std::domain_error(
        "variation_factor: Vth shift drives gate out of saturation");
  const double lf = 1.0 + dl_rel;
  if (lf <= 0.0)
    throw std::domain_error("variation_factor: channel length <= 0");
  const double ratio = drive0 / drive;
  if (!(ratio >= kMinDriveRatio && ratio <= kMaxDriveRatio))
    throw std::domain_error(
        "variation_factor: drive ratio beyond physical range");
  return stats::lanes::pow_pos(ratio, tech_.alpha) * lf * lf;
}

// The arithmetic loop is dispatched to the active SIMD backend's kernel
// (stats/simd.h), which compiled the identical straight-line C++ under
// that backend's -m flags.  FP semantics are unchanged across backends —
// the project-wide -ffp-contract=off forbids fusion and no backend is
// built with -mfma — which is what keeps the vector lanes bitwise-equal
// to the scalar variation_factor path on every backend.
void AlphaPowerModel::variation_factor_lanes(const double* dvth,
                                             const double* dl_rel,
                                             std::size_t n,
                                             double* out) const {
  const double drive0 = tech_.vdd - tech_.vth0;
  const double alpha = tech_.alpha;
  // Domain checks hoisted out of the hot loop (and completed before any
  // write) so the dispatched kernel is straight-line vectorizable code.
  for (std::size_t j = 0; j < n; ++j) {
    const double drive = drive0 - dvth[j];
    if (drive <= 0.0)
      throw std::domain_error(
          "variation_factor: Vth shift drives gate out of saturation");
    if (1.0 + dl_rel[j] <= 0.0)
      throw std::domain_error("variation_factor: channel length <= 0");
    const double ratio = drive0 / drive;
    if (!(ratio >= kMinDriveRatio && ratio <= kMaxDriveRatio))
      throw std::domain_error(
          "variation_factor: drive ratio beyond physical range");
  }
  stats::simd::kernels().variation_factor_lanes(drive0, alpha, dvth, dl_rel,
                                                n, out);
}

AlphaPowerModel::VariationKernelParams
AlphaPowerModel::variation_kernel_params() const noexcept {
  return {tech_.vdd - tech_.vth0, tech_.alpha, kMinDriveRatio,
          kMaxDriveRatio};
}

double AlphaPowerModel::nominal_delay(GateKind kind, double size,
                                      double load_cap) const {
  const auto& t = traits(kind);
  if (t.is_pseudo) return 0.0;
  if (size <= 0.0) throw std::invalid_argument("nominal_delay: size <= 0");
  if (load_cap < 0.0) throw std::invalid_argument("nominal_delay: load < 0");
  return tech_.tau_ps * (t.parasitic + load_cap / size);
}

double AlphaPowerModel::delay(GateKind kind, double size, double load_cap,
                              double dvth, double dl_rel) const {
  return nominal_delay(kind, size, load_cap) * variation_factor(dvth, dl_rel);
}

double AlphaPowerModel::dvth_sensitivity(GateKind kind, double size,
                                         double load_cap) const {
  // d/dVth [ (drive0/(drive0 - dvth))^alpha ] at dvth=0  =  alpha/drive0.
  const double drive0 = tech_.vdd - tech_.vth0;
  return nominal_delay(kind, size, load_cap) * tech_.alpha / drive0;
}

double AlphaPowerModel::DelaySigmas::total() const {
  return std::sqrt(inter * inter + systematic * systematic + random * random);
}

AlphaPowerModel::DelaySigmas AlphaPowerModel::delay_sigmas(
    GateKind kind, double size, double load_cap,
    const process::VariationSpec& spec) const {
  return delay_sigmas_at(nominal_delay(kind, size, load_cap), size, spec);
}

AlphaPowerModel::DelaySigmas AlphaPowerModel::delay_sigmas_at(
    double nominal, double size, const process::VariationSpec& spec) const {
  // dvth_sensitivity's expression, on the caller's nominal delay.
  const double drive0 = tech_.vdd - tech_.vth0;
  const double sens = nominal * tech_.alpha / drive0;
  DelaySigmas s;
  s.inter = sens * spec.sigma_vth_inter;
  s.systematic = sens * spec.sigma_vth_systematic;
  if (spec.enable_rdf) s.random = sens * tech_.sigma_vth_rdf(size);
  return s;
}

}  // namespace statpipe::device
