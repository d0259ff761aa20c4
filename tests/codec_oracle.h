// Reference codec for the wire-format bitwise tests: the byte-by-byte
// little-endian writer and reader the dist codec used before it moved to
// one memcpy per field, with the record layouts of docs/WIRE_FORMAT.md
// spelled out field by field on top of them.
//
// Every integer is assembled with shifts, one byte at a time, and every
// record lists its fields here again, so nothing is shared with
// src/dist/serialize.cpp: a test that compares the library's bytes with
// these never compares the codec with itself.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/serialize.h"

namespace codec_oracle {

class Writer {
 public:
  void u8(std::uint8_t v) { buf.push_back(v); }
  void u16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i) buf.push_back((v >> (8 * i)) & 0xff);
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf.push_back((v >> (8 * i)) & 0xff);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf.push_back((v >> (8 * i)) & 0xff);
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    buf.insert(buf.end(), s.begin(), s.end());
  }
  void f64_vec(const std::vector<double>& v) {
    u64(v.size());
    for (double d : v) f64(d);
  }

  std::vector<std::uint8_t> buf;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i)
      v |= static_cast<std::uint16_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data()) + pos_, n);
    pos_ += n;
    return s;
  }
  std::vector<double> f64_vec() {
    const std::uint64_t n = u64();
    std::vector<double> v;
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(f64());
    return v;
  }
  bool done() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n)
      throw std::runtime_error("oracle: truncated payload");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------------- records

inline std::vector<std::uint8_t> run_descriptor_bytes(
    const statpipe::dist::RunDescriptor& d) {
  Writer w;
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
  for (double v : {d.sigma_vth_inter, d.sigma_vth_systematic,
                   d.correlation_length})
    w.f64(v);
  w.u8(d.enable_rdf);
  for (double v : {d.sigma_l_inter_rel, d.sigma_l_systematic_rel,
                   d.output_load, d.latch_tcq_ps, d.latch_tsetup_ps,
                   d.latch_random_sigma_rel, d.tech_vdd, d.tech_vth0,
                   d.tech_leff, d.tech_wmin, d.tech_alpha, d.tech_tau_ps,
                   d.tech_avt})
    w.f64(v);
  return w.buf;
}

/// Decodes a whole descriptor record; throws on truncation or trailing
/// bytes.  The task kind is taken as is (the library validates it).
inline statpipe::dist::RunDescriptor read_run_descriptor(
    std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  statpipe::dist::RunDescriptor d;
  d.task_kind = static_cast<statpipe::dist::TaskKind>(r.u16());
  d.workload = r.str();
  d.netlist_hash = r.u64();
  d.seed = r.u64();
  d.root_seed = r.u64();
  d.n_samples = r.u64();
  d.samples_per_shard = r.u64();
  d.block_width = r.u64();
  const std::uint64_t lanes = r.u64();
  for (std::uint64_t i = 0; i < lanes; ++i) d.size_grid.push_back(r.f64_vec());
  for (double* v : {&d.sigma_vth_inter, &d.sigma_vth_systematic,
                    &d.correlation_length})
    *v = r.f64();
  d.enable_rdf = r.u8();
  for (double* v : {&d.sigma_l_inter_rel, &d.sigma_l_systematic_rel,
                    &d.output_load, &d.latch_tcq_ps, &d.latch_tsetup_ps,
                    &d.latch_random_sigma_rel, &d.tech_vdd, &d.tech_vth0,
                    &d.tech_leff, &d.tech_wmin, &d.tech_alpha,
                    &d.tech_tau_ps, &d.tech_avt})
    *v = r.f64();
  if (!r.done()) throw std::runtime_error("oracle: trailing bytes");
  return d;
}

inline void header(Writer& w) {
  w.u32(statpipe::dist::kWireMagic);
  w.u16(statpipe::dist::kWireVersion);
}

/// serialize_mc_result's blob: header, label, samples, stage stats.
inline std::vector<std::uint8_t> mc_result_blob(
    const statpipe::mc::McResult& m) {
  Writer w;
  header(w);
  w.str(m.label);
  w.f64_vec(m.tp_samples);
  w.u64(m.stage_stats.size());
  for (const auto& s : m.stage_stats) {
    const auto st = s.state();
    w.u64(st.n);
    for (double v : {st.mean, st.m2, st.min, st.max}) w.f64(v);
  }
  return w.buf;
}

/// serialize_characterizations' blob: header, lane count, six f64 a lane.
inline std::vector<std::uint8_t> characterizations_blob(
    const std::vector<statpipe::sta::StageCharacterization>& lanes) {
  Writer w;
  header(w);
  w.u64(lanes.size());
  for (const auto& c : lanes)
    for (double v : {c.delay.mean, c.delay.sigma, c.sigma_inter,
                     c.sigma_private, c.area, c.nominal_delay})
      w.f64(v);
  return w.buf;
}

}  // namespace codec_oracle
