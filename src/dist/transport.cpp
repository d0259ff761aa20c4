#include "dist/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "dist/serialize.h"
#include "obs/telemetry.h"

namespace statpipe::dist {

namespace {

// Wire-level obs counters (docs/OBSERVABILITY.md): frames/bytes both
// directions plus the two hostile-peer rejection classes.  Cheap enough to
// live on every frame: one relaxed load when telemetry is off.
obs::Counter& c_tx_frames() {
  static obs::Counter c("dist.tx_frames");
  return c;
}
obs::Counter& c_tx_bytes() {
  static obs::Counter c("dist.tx_bytes");
  return c;
}
obs::Counter& c_rx_frames() {
  static obs::Counter c("dist.rx_frames");
  return c;
}
obs::Counter& c_rx_bytes() {
  static obs::Counter c("dist.rx_bytes");
  return c;
}
obs::Counter& c_auth_rejects() {
  static obs::Counter c("dist.auth_rejects");
  return c;
}
obs::Counter& c_deadline_trips() {
  static obs::Counter c("dist.deadline_trips");
  return c;
}

/// v4 frame header: u32 magic, u16 version, u16 type, u32 flags,
/// u64 session_id, u64 request_id, u64 size.  The first 8 bytes (magic,
/// version, type) are read and validated alone so a shorter-headered v3
/// peer is rejected with the version error, never a stuck read.
constexpr std::size_t kHeaderSize = 36;
constexpr std::size_t kHeaderPrefixSize = 8;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("dist: " + what + ": " + std::strerror(errno));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("dist: bad IPv4 address '" + host + "'");
  return addr;
}

}  // namespace

// ---------------------------------------------------------------- Socket

Socket::~Socket() { close(); }

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    deadline_ms_ = o.deadline_ms_;
    fault_ = o.fault_;
    o.fd_ = -1;
    o.fault_ = nullptr;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::set_recv_timeout_ms(int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0)
    throw_errno("setsockopt(SO_RCVTIMEO)");
}

void Socket::set_read_deadline_ms(int ms) {
  deadline_ms_ = ms;
  // Also arm SO_RCVTIMEO at the deadline so a fully silent peer (zero
  // bytes) wakes the blocking recv; the absolute check in recv_all then
  // bounds peers that drip bytes just often enough to keep resetting it.
  if (ms > 0) set_recv_timeout_ms(ms);
}

void Socket::send_all(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    std::size_t chunk = n;
    if (fault_ != nullptr) {
      if (fault_->delay_us_per_chunk > 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(fault_->delay_us_per_chunk));
      chunk = std::min(chunk, fault_->max_chunk);
      if (fault_->send_byte_budget == 0) {
        // Budget exhausted: byte-exact mid-frame disconnect.
        ::shutdown(fd_, SHUT_RDWR);
        close();
        throw std::runtime_error("dist: send budget exhausted (fault plan)");
      }
      chunk = std::min(chunk, fault_->send_byte_budget);
    }
    const ssize_t w = ::send(fd_, p, chunk, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    if (fault_ != nullptr)
      fault_->send_byte_budget -= static_cast<std::size_t>(w);
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

bool Socket::recv_all(void* data, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  const bool deadline_armed = deadline_ms_ > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms_);
  while (got < n) {
    std::size_t chunk = n - got;
    if (fault_ != nullptr) {
      if (fault_->delay_us_per_chunk > 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(fault_->delay_us_per_chunk));
      chunk = std::min(chunk, fault_->max_chunk);
    }
    const ssize_t r = ::recv(fd_, p + got, chunk, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        c_deadline_trips().add();
        throw std::runtime_error(
            "dist: read deadline exceeded waiting for peer (" +
            std::to_string(got) + "/" + std::to_string(n) + " bytes)");
      }
      throw_errno("recv");
    }
    if (r == 0) {
      if (got == 0) return false;  // clean close at a message boundary
      throw std::runtime_error("dist: peer closed mid-frame (" +
                               std::to_string(got) + "/" + std::to_string(n) +
                               " bytes)");
    }
    got += static_cast<std::size_t>(r);
    // Absolute per-call bound: SO_RCVTIMEO restarts on every byte, so a
    // slow-loris peer dripping one byte per period would never trip it.
    if (deadline_armed && got < n &&
        std::chrono::steady_clock::now() >= deadline) {
      c_deadline_trips().add();
      throw std::runtime_error(
          "dist: read deadline exceeded waiting for peer (" +
          std::to_string(got) + "/" + std::to_string(n) + " bytes)");
    }
  }
  return true;
}

// -------------------------------------------------------------- Listener

Listener::Listener(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  sock_ = Socket(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = make_addr(host, port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    throw_errno("bind " + host + ":" + std::to_string(port));
  if (::listen(fd, 64) != 0) throw_errno("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw_errno("getsockname");
  port_ = ntohs(addr.sin_port);
}

Socket Listener::accept() {
  for (;;) {
    const int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return Socket(fd);
    }
    if (errno != EINTR) throw_errno("accept");
  }
}

Socket connect_to(const std::string& host, std::uint16_t port, int retry_ms) {
  const sockaddr_in addr = make_addr(host, port);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(retry_ms);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket");
    Socket s(fd);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return s;
    }
    if (std::chrono::steady_clock::now() >= deadline)
      throw_errno("connect " + host + ":" + std::to_string(port));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

// ---------------------------------------------------------------- frames

std::vector<std::uint8_t> encode_frame(MsgType type,
                                       const std::vector<std::uint8_t>& payload,
                                       const FrameAuth& auth,
                                       std::uint64_t session_id,
                                       std::uint64_t request_id) {
  if (payload.size() > kMaxFramePayload)
    throw std::runtime_error("dist: frame payload too large (" +
                             std::to_string(payload.size()) + " bytes)");
  // Header, payload and MAC trailer in one exact-size buffer.
  ByteWriter w;
  w.reserve(kHeaderSize + payload.size() + (auth.enabled ? kDigestSize : 0));
  w.u32(kWireMagic);
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u32(auth.enabled ? kFrameFlagAuthenticated : 0u);
  w.u64(session_id);
  w.u64(request_id);
  w.u64(payload.size());
  w.append(payload);
  if (auth.enabled) {
    // MAC over header + payload: length, type, flags and the session /
    // request ids are all covered, so truncating, retyping, re-scoping or
    // de-authenticating a frame breaks the MAC.
    w.append(auth.mac(w.bytes()));
  }
  return w.take();
}

void send_frame(Socket& s, MsgType type,
                const std::vector<std::uint8_t>& payload, const FrameAuth& auth,
                std::uint64_t session_id, std::uint64_t request_id) {
  const std::vector<std::uint8_t> buf =
      encode_frame(type, payload, auth, session_id, request_id);
  s.send_all(buf.data(), buf.size());
  c_tx_frames().add();
  c_tx_bytes().add(buf.size());
}

std::optional<Frame> recv_frame(Socket& s, const FrameAuth& auth) {
  std::uint8_t header[kHeaderSize];
  // Two-stage header read: validate magic + version on the 8-byte prefix
  // every version shares before asking for the rest, so a peer speaking a
  // shorter (v3) header gets the version error below instead of leaving
  // this side blocked on bytes that will never come.
  if (!s.recv_all(header, kHeaderPrefixSize)) return std::nullopt;
  {
    ByteReader pre(
        std::span<const std::uint8_t>(header, kHeaderPrefixSize));
    const std::uint32_t magic = pre.u32();
    if (magic != kWireMagic)
      throw std::runtime_error("dist: bad frame magic (not a statpipe peer)");
    const std::uint16_t version = pre.u16();
    if (version != kWireVersion)
      throw std::runtime_error("dist: peer speaks wire version " +
                               std::to_string(version) + ", this build " +
                               std::to_string(kWireVersion));
  }
  if (!s.recv_all(header + kHeaderPrefixSize, kHeaderSize - kHeaderPrefixSize))
    throw std::runtime_error("dist: peer closed mid-frame (" +
                             std::to_string(kHeaderPrefixSize) + "/" +
                             std::to_string(kHeaderSize) + " bytes)");
  ByteReader r(std::span<const std::uint8_t>(header, sizeof header));
  r.u32();  // magic, validated above
  r.u16();  // version, validated above
  Frame f;
  f.type = static_cast<MsgType>(r.u16());
  const std::uint32_t flags = r.u32();
  if ((flags & ~kFrameFlagsKnown) != 0)
    throw std::runtime_error("dist: unknown frame flag bits 0x" +
                             [&] {
                               char hex[16];
                               std::snprintf(hex, sizeof hex, "%08x",
                                             flags & ~kFrameFlagsKnown);
                               return std::string(hex);
                             }());
  const bool authenticated = (flags & kFrameFlagAuthenticated) != 0;
  // Auth policy is symmetric and strict: a configured key demands a MAC on
  // every frame, and a frame claiming a MAC under no key is equally
  // rejected — a peer on the wrong side of the key config never half-works.
  if (auth.enabled && !authenticated) {
    c_auth_rejects().add();
    throw std::runtime_error(
        "dist: authentication required but peer sent an unauthenticated "
        "frame");
  }
  if (!auth.enabled && authenticated) {
    c_auth_rejects().add();
    throw std::runtime_error(
        "dist: peer sent an authenticated frame but no wire key is "
        "configured (set STATPIPE_WIRE_KEY / --key)");
  }
  f.session_id = r.u64();
  f.request_id = r.u64();
  const std::uint64_t size = r.u64();
  if (size > kMaxFramePayload)
    throw std::runtime_error("dist: oversize frame payload (" +
                             std::to_string(size) + " bytes)");
  f.payload.resize(size);
  if (size > 0 && !s.recv_all(f.payload.data(), size))
    throw std::runtime_error("dist: peer closed before frame payload");
  if (authenticated) {
    Digest claimed{};
    if (!s.recv_all(claimed.data(), claimed.size()))
      throw std::runtime_error("dist: peer closed before frame MAC");
    const Digest expected = auth.mac(header, f.payload);
    if (!digest_equal_consttime(claimed, expected)) {
      c_auth_rejects().add();
      throw std::runtime_error(
          "dist: frame authentication failed (bad HMAC — tampered frame or "
          "wrong wire key)");
    }
  }
  c_rx_frames().add();
  c_rx_bytes().add(kHeaderSize + f.payload.size() +
                   (authenticated ? kDigestSize : 0));
  return f;
}

}  // namespace statpipe::dist
