#include "dist/serialize.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "stats/rng.h"

namespace statpipe::dist {

// -------------------------------------------------------------- TaskKind

const char* task_kind_name(TaskKind kind) noexcept {
  switch (kind) {
    case TaskKind::kMonteCarlo:
      return "monte-carlo";
    case TaskKind::kSstaGrid:
      return "ssta-grid";
  }
  return "unknown";
}

bool is_known_task_kind(std::uint16_t raw) noexcept {
  return raw == static_cast<std::uint16_t>(TaskKind::kMonteCarlo) ||
         raw == static_cast<std::uint16_t>(TaskKind::kSstaGrid);
}

// ------------------------------------------------------------ ByteWriter

void ByteWriter::str(const std::string& s) {
  u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::f64_vec(const std::vector<double>& v) {
  u64(v.size());
  if constexpr (std::endian::native == std::endian::little) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    buf_.insert(buf_.end(), p, p + 8 * v.size());
  } else {
    for (double d : v) f64(d);
  }
}

void ByteWriter::append(std::span<const std::uint8_t> b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

// ------------------------------------------------------------ ByteReader

void ByteReader::throw_truncated(std::size_t n) const {
  throw std::runtime_error("dist: truncated payload (need " +
                           std::to_string(n) + " bytes, have " +
                           std::to_string(remaining()) + ")");
}

std::string ByteReader::str() {
  const std::uint64_t n = u64();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data()) + pos_, n);
  pos_ += n;
  return s;
}

std::vector<double> ByteReader::f64_vec() {
  const std::uint64_t n = u64();
  // Overflow-safe length sanity before allocating: a hostile/corrupt
  // length must throw, not trigger a giant allocation.
  if (n > remaining() / 8)
    throw std::runtime_error("dist: truncated payload (vector of " +
                             std::to_string(n) + " doubles, " +
                             std::to_string(remaining()) + " bytes left)");
  std::vector<double> v(n);
  if constexpr (std::endian::native == std::endian::little) {
    if (n != 0) std::memcpy(v.data(), data_.data() + pos_, 8 * n);
    pos_ += 8 * n;
  } else {
    for (double& d : v) d = f64();
  }
  return v;
}

std::vector<std::uint8_t> ByteReader::rest() {
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.end());
  pos_ = data_.size();
  return out;
}

void ByteReader::expect_done() const {
  if (!done())
    throw std::runtime_error("dist: " + std::to_string(remaining()) +
                             " trailing byte(s) after payload");
}

// --------------------------------------------------------------- payloads

void write_running_stats(ByteWriter& w, const stats::RunningStats& s) {
  const stats::RunningStats::State st = s.state();
  w.u64(st.n);
  w.f64(st.mean);
  w.f64(st.m2);
  w.f64(st.min);
  w.f64(st.max);
}

stats::RunningStats read_running_stats(ByteReader& r) {
  stats::RunningStats::State st;
  st.n = r.u64();
  st.mean = r.f64();
  st.m2 = r.f64();
  st.min = r.f64();
  st.max = r.f64();
  return stats::RunningStats::from_state(st);
}

void write_histogram(ByteWriter& w, const stats::Histogram& h) {
  w.f64(h.lo());
  w.f64(h.hi());
  w.u64(h.bins());
  for (std::size_t i = 0; i < h.bins(); ++i) w.u64(h.count(i));
}

stats::Histogram read_histogram(ByteReader& r) {
  const double lo = r.f64();
  const double hi = r.f64();
  const std::uint64_t bins = r.u64();
  if (bins == 0) throw std::runtime_error("dist: histogram with zero bins");
  if (bins > r.remaining() / 8)
    throw std::runtime_error("dist: truncated payload (histogram of " +
                             std::to_string(bins) + " bins, " +
                             std::to_string(r.remaining()) + " bytes left)");
  std::vector<std::size_t> counts;
  counts.reserve(bins);
  for (std::uint64_t i = 0; i < bins; ++i) counts.push_back(r.u64());
  return stats::Histogram::from_counts(lo, hi, std::move(counts));
}

void write_mc_result(ByteWriter& w, const mc::McResult& r) {
  w.str(r.label);
  w.f64_vec(r.tp_samples);
  w.u64(r.stage_stats.size());
  for (const auto& s : r.stage_stats) write_running_stats(w, s);
}

mc::McResult read_mc_result(ByteReader& r) {
  mc::McResult out;
  out.label = r.str();
  out.tp_samples = r.f64_vec();
  const std::uint64_t n_stages = r.u64();
  // A serialized RunningStats is 40 bytes; reject hostile counts before
  // reserving (same rationale as f64_vec's length guard).
  if (n_stages > r.remaining() / 40)
    throw std::runtime_error("dist: truncated payload (" +
                             std::to_string(n_stages) + " stage stats, " +
                             std::to_string(r.remaining()) + " bytes left)");
  out.stage_stats.reserve(n_stages);
  for (std::uint64_t i = 0; i < n_stages; ++i)
    out.stage_stats.push_back(read_running_stats(r));
  return out;
}

void write_stage_characterization(ByteWriter& w,
                                  const sta::StageCharacterization& c) {
  w.f64(c.delay.mean);
  w.f64(c.delay.sigma);
  w.f64(c.sigma_inter);
  w.f64(c.sigma_private);
  w.f64(c.area);
  w.f64(c.nominal_delay);
}

sta::StageCharacterization read_stage_characterization(ByteReader& r) {
  sta::StageCharacterization c;
  c.delay.mean = r.f64();
  c.delay.sigma = r.f64();
  c.sigma_inter = r.f64();
  c.sigma_private = r.f64();
  c.area = r.f64();
  c.nominal_delay = r.f64();
  return c;
}

std::size_t run_descriptor_wire_bytes(const RunDescriptor& d) noexcept {
  // u16 kind, str workload, 7 u64 (hash .. block_width, lane count), the
  // lanes, one u8 (enable_rdf) and 16 f64 fields.
  std::size_t n = 2 + 8 + d.workload.size() + 7 * 8 + 1 + 16 * 8;
  for (const auto& lane : d.size_grid) n += 8 + 8 * lane.size();
  return n;
}

void write_run_descriptor(ByteWriter& w, const RunDescriptor& d) {
  w.reserve(run_descriptor_wire_bytes(d));
  w.u16(static_cast<std::uint16_t>(d.task_kind));
  w.str(d.workload);
  w.u64(d.netlist_hash);
  w.u64(d.seed);
  w.u64(d.root_seed);
  w.u64(d.n_samples);
  w.u64(d.samples_per_shard);
  w.u64(d.block_width);
  w.u64(d.size_grid.size());
  for (const auto& lane : d.size_grid) w.f64_vec(lane);
  w.f64(d.sigma_vth_inter);
  w.f64(d.sigma_vth_systematic);
  w.f64(d.correlation_length);
  w.u8(d.enable_rdf);
  w.f64(d.sigma_l_inter_rel);
  w.f64(d.sigma_l_systematic_rel);
  w.f64(d.output_load);
  w.f64(d.latch_tcq_ps);
  w.f64(d.latch_tsetup_ps);
  w.f64(d.latch_random_sigma_rel);
  w.f64(d.tech_vdd);
  w.f64(d.tech_vth0);
  w.f64(d.tech_leff);
  w.f64(d.tech_wmin);
  w.f64(d.tech_alpha);
  w.f64(d.tech_tau_ps);
  w.f64(d.tech_avt);
}

RunDescriptor read_run_descriptor(ByteReader& r) {
  RunDescriptor d;
  // The discriminator leads so an unknown task kind fails as exactly that
  // — a clear capability error — instead of a generic deserialize failure
  // somewhere down the payload.
  const std::uint16_t raw_kind = r.u16();
  if (!is_known_task_kind(raw_kind))
    throw std::runtime_error(
        "dist: unknown task kind " + std::to_string(raw_kind) +
        " (this build knows monte-carlo=1, ssta-grid=2)");
  d.task_kind = static_cast<TaskKind>(raw_kind);
  d.workload = r.str();
  d.netlist_hash = r.u64();
  d.seed = r.u64();
  d.root_seed = r.u64();
  d.n_samples = r.u64();
  d.samples_per_shard = r.u64();
  d.block_width = r.u64();
  const std::uint64_t lanes = r.u64();
  // Lane-count guard before reserving: each lane is at least a u64 length
  // prefix, so a claimed count beyond remaining()/8 is hostile or corrupt.
  if (lanes > r.remaining() / 8)
    throw std::runtime_error("dist: truncated payload (size grid of " +
                             std::to_string(lanes) + " lanes, " +
                             std::to_string(r.remaining()) + " bytes left)");
  d.size_grid.reserve(lanes);
  for (std::uint64_t i = 0; i < lanes; ++i) d.size_grid.push_back(r.f64_vec());
  d.sigma_vth_inter = r.f64();
  d.sigma_vth_systematic = r.f64();
  d.correlation_length = r.f64();
  d.enable_rdf = r.u8();
  d.sigma_l_inter_rel = r.f64();
  d.sigma_l_systematic_rel = r.f64();
  d.output_load = r.f64();
  d.latch_tcq_ps = r.f64();
  d.latch_tsetup_ps = r.f64();
  d.latch_random_sigma_rel = r.f64();
  d.tech_vdd = r.f64();
  d.tech_vth0 = r.f64();
  d.tech_leff = r.f64();
  d.tech_wmin = r.f64();
  d.tech_alpha = r.f64();
  d.tech_tau_ps = r.f64();
  d.tech_avt = r.f64();
  return d;
}

std::uint64_t derive_root_seed(std::uint64_t seed) {
  stats::Rng rng(seed);
  return rng.fork().seed();
}

// ------------------------------------------------------------ file blobs

std::vector<std::uint8_t> serialize_mc_result(const mc::McResult& r) {
  ByteWriter w;
  w.u32(kWireMagic);
  w.u16(kWireVersion);
  write_mc_result(w, r);
  return w.take();
}

mc::McResult deserialize_mc_result(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const std::uint32_t magic = r.u32();
  if (magic != kWireMagic) {
    char hex[16];
    std::snprintf(hex, sizeof hex, "0x%08x", magic);
    throw std::runtime_error("dist: bad magic " + std::string(hex) +
                             " (not a statpipe result blob)");
  }
  const std::uint16_t version = r.u16();
  if (version != kWireVersion)
    throw std::runtime_error("dist: unsupported wire version " +
                             std::to_string(version) + " (this build speaks " +
                             std::to_string(kWireVersion) + ")");
  mc::McResult out = read_mc_result(r);
  r.expect_done();
  return out;
}

std::vector<std::uint8_t> serialize_characterizations(
    const std::vector<sta::StageCharacterization>& lanes) {
  ByteWriter w;
  w.u32(kWireMagic);
  w.u16(kWireVersion);
  w.u64(lanes.size());
  for (const auto& c : lanes) write_stage_characterization(w, c);
  return w.take();
}

std::vector<sta::StageCharacterization> deserialize_characterizations(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const std::uint32_t magic = r.u32();
  if (magic != kWireMagic)
    throw std::runtime_error("dist: bad magic (not a statpipe lane blob)");
  const std::uint16_t version = r.u16();
  if (version != kWireVersion)
    throw std::runtime_error("dist: unsupported wire version " +
                             std::to_string(version) + " (this build speaks " +
                             std::to_string(kWireVersion) + ")");
  const std::uint64_t n = r.u64();
  // A serialized StageCharacterization is 48 bytes; same hostile-length
  // rationale as read_mc_result's stage count.
  if (n > r.remaining() / 48)
    throw std::runtime_error("dist: truncated payload (" + std::to_string(n) +
                             " lanes, " + std::to_string(r.remaining()) +
                             " bytes left)");
  std::vector<sta::StageCharacterization> lanes;
  lanes.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    lanes.push_back(read_stage_characterization(r));
  r.expect_done();
  return lanes;
}

bool bitwise_equal(const mc::McResult& a, const mc::McResult& b) {
  return serialize_mc_result(a) == serialize_mc_result(b);
}

bool bitwise_equal(const std::vector<sta::StageCharacterization>& a,
                   const std::vector<sta::StageCharacterization>& b) {
  return serialize_characterizations(a) == serialize_characterizations(b);
}

}  // namespace statpipe::dist
