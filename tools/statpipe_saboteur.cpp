// statpipe-saboteur — hostile-peer harness for the distributed wire.
//
// Connects to a live coordinator (statpipe-run, or a service hosted by an
// embedded dist::ClusterHandle) and misbehaves on purpose, one attack per
// process.
// The chaos matrix in tests/test_dist.cpp runs each mode against a
// coordinator that also has honest workers: the run must finish with the
// bitwise-correct result, and the saboteur's range (if it got one) must be
// reassigned — the coordinator never crashes, hangs, or accepts a poisoned
// unit (docs/WIRE_FORMAT.md threat model).
//
//   statpipe-saboteur --port P --mode M [--host H] [--key PASSPHRASE]
//
// Modes (attack point in parentheses):
//   tampered-hmac    (after assign) streams a real unit result with one
//                    MAC bit flipped — must fail constant-time verification
//   unauthenticated  (hello) speaks the protocol correctly but without the
//                    HMAC trailer — an authenticated coordinator must
//                    reject at admission
//   truncate         (after assign) frame header promises a payload, then
//                    the connection closes halfway through it
//   midframe         (after assign) the connection closes inside the frame
//                    HEADER itself
//   oversize         (after assign) header with a payload_size past the
//                    1 GiB frame cap
//   garbage          (after assign) 64 bytes of non-protocol noise where a
//                    frame should start
//   stall            (after assign) sends a few header bytes, then holds
//                    the connection open in silence until killed — the
//                    coordinator's read deadline must reclaim the range
//   dup-unit         (after assign) streams the same unit index twice,
//                    both with valid payloads
//   replay           (after a completed range) re-sends the whole
//                    kResult/kRangeDone stream a second time
//
// Every mode is deterministic — no randomness, no timing dependence beyond
// the stall — so test failures replay exactly.  Exits 0 once the attack is
// delivered (the coordinator dropping the connection afterwards is the
// expected outcome, not an error), 1 on usage errors or when the
// coordinator misbehaves (e.g. admits an attack that must be rejected).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/hmac.h"
#include "dist/serialize.h"
#include "dist/task.h"
#include "dist/transport.h"

namespace {

namespace sp = statpipe;
using sp::dist::Frame;
using sp::dist::FrameAuth;
using sp::dist::MsgType;
using sp::dist::RunDescriptor;
using sp::dist::Socket;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port P --mode M [--host H] [--key K]\n"
               "modes: tampered-hmac unauthenticated truncate midframe\n"
               "       oversize garbage stall dup-unit replay\n",
               argv0);
  std::exit(EXIT_FAILURE);
}

struct Session {
  Socket sock;
  RunDescriptor desc;
  std::uint64_t session = 0;  ///< v4 session id granted by kWelcome
  std::uint64_t rid = 0;      ///< request id the setup/assign are scoped to
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Plays an honest worker up to (and including) receiving an assignment:
/// connect, hello, welcome, setup, assign.  Everything after is the attack.
Session handshake(const std::string& host, std::uint16_t port,
                  const FrameAuth& auth) {
  Session s;
  s.sock = sp::dist::connect_to(host, port, 5000);
  sp::dist::ByteWriter hello;
  hello.u16(sp::dist::kWireVersion);
  hello.u64(1);
  sp::dist::send_frame(s.sock, MsgType::kHello, hello.bytes(), auth);
  s.sock.set_recv_timeout_ms(30000);
  std::optional<Frame> welcome = sp::dist::recv_frame(s.sock, auth);
  if (!welcome || welcome->type != MsgType::kWelcome)
    throw std::runtime_error("saboteur: no welcome from coordinator");
  {
    sp::dist::ByteReader r(welcome->payload);
    s.session = r.u64();
  }
  std::optional<Frame> setup = sp::dist::recv_frame(s.sock, auth);
  if (!setup || setup->type != MsgType::kSetup)
    throw std::runtime_error("saboteur: no setup from coordinator");
  s.rid = setup->request_id;
  {
    sp::dist::ByteReader r(setup->payload);
    s.desc = sp::dist::read_run_descriptor(r);
  }
  std::optional<Frame> assign = sp::dist::recv_frame(s.sock, auth);
  if (!assign || assign->type != MsgType::kAssign)
    throw std::runtime_error("saboteur: no assignment from coordinator");
  sp::dist::ByteReader r(assign->payload);
  s.begin = r.u64();
  s.end = r.u64();
  std::fprintf(stderr, "[saboteur] assigned units [%llu, %llu)\n",
               static_cast<unsigned long long>(s.begin),
               static_cast<unsigned long long>(s.end));
  return s;
}

/// Serialized per-unit payloads for the assigned range, computed through
/// the REAL task runner — so dup-unit and replay attack with units the
/// coordinator cannot reject for being malformed, only for violating the
/// protocol.
std::vector<std::vector<std::uint8_t>> real_units(const Session& s) {
  std::vector<std::vector<std::uint8_t>> units(s.end - s.begin);
  const sp::dist::UnitRangeRunner runner = sp::dist::make_unit_runner(s.desc);
  runner(s.begin, s.end,
         [&](std::size_t unit, const std::vector<std::uint8_t>& payload) {
           units[unit - s.begin] = payload;
         });
  return units;
}

std::vector<std::uint8_t> result_frame(const Session& s, std::uint64_t unit,
                                       const std::vector<std::uint8_t>& body,
                                       const FrameAuth& auth) {
  sp::dist::ByteWriter w;
  w.u64(unit);
  w.append(body);
  return sp::dist::encode_frame(MsgType::kResult, w.bytes(), auth, s.session,
                                s.rid);
}

/// Waits for the coordinator to drop us; EOF and a reset are both fine.
void await_disconnect(Socket& sock) {
  std::uint8_t b;
  try {
    sock.set_recv_timeout_ms(30000);
    while (sock.recv_all(&b, 1)) {
    }
  } catch (const std::exception&) {
  }
}

int run_mode(const std::string& mode, const std::string& host,
             std::uint16_t port, const FrameAuth& auth) {
  if (mode == "unauthenticated") {
    // Protocol-perfect hello, no MAC: an authenticated coordinator must
    // turn us away before setup.  Getting a setup frame back would mean
    // the coordinator accepted an unauthenticated peer — a test failure.
    Socket sock = sp::dist::connect_to(host, port, 5000);
    sp::dist::ByteWriter hello;
    hello.u16(sp::dist::kWireVersion);
    hello.u64(1);
    sp::dist::send_frame(sock, MsgType::kHello, hello.bytes(), FrameAuth{});
    sock.set_recv_timeout_ms(10000);
    std::uint8_t b;
    try {
      if (sock.recv_all(&b, 1)) {
        std::fprintf(stderr,
                     "[saboteur] FAIL: coordinator answered an "
                     "unauthenticated hello\n");
        return EXIT_FAILURE;
      }
    } catch (const std::exception&) {
      // timeout/reset — also a rejection
    }
    std::fprintf(stderr, "[saboteur] unauthenticated hello rejected\n");
    return EXIT_SUCCESS;
  }

  Session s = handshake(host, port, auth);

  if (mode == "tampered-hmac") {
    if (!auth.enabled)
      throw std::runtime_error("saboteur: tampered-hmac needs --key");
    std::vector<std::uint8_t> frame =
        result_frame(s, s.begin, real_units(s)[0], auth);
    frame.back() ^= 0x01;  // one bit in the MAC trailer
    s.sock.send_all(frame.data(), frame.size());
    std::fprintf(stderr, "[saboteur] sent result with tampered MAC\n");
  } else if (mode == "truncate") {
    // Header promises the full payload; the stream ends halfway into it.
    const std::vector<std::uint8_t> frame =
        result_frame(s, s.begin, real_units(s)[0], auth);
    s.sock.send_all(frame.data(), frame.size() / 2);
    s.sock.close();
    std::fprintf(stderr, "[saboteur] sent truncated frame and closed\n");
    return EXIT_SUCCESS;
  } else if (mode == "midframe") {
    // Cut inside the 36-byte header itself.
    const std::vector<std::uint8_t> frame =
        result_frame(s, s.begin, real_units(s)[0], auth);
    s.sock.send_all(frame.data(), 7);
    s.sock.close();
    std::fprintf(stderr, "[saboteur] closed mid-header\n");
    return EXIT_SUCCESS;
  } else if (mode == "oversize") {
    sp::dist::ByteWriter w;
    w.u32(sp::dist::kWireMagic);
    w.u16(sp::dist::kWireVersion);
    w.u16(static_cast<std::uint16_t>(MsgType::kResult));
    w.u32(auth.enabled ? sp::dist::kFrameFlagAuthenticated : 0u);
    w.u64(s.session);
    w.u64(s.rid);
    w.u64(sp::dist::kMaxFramePayload + 1);
    s.sock.send_all(w.bytes().data(), w.bytes().size());
    std::fprintf(stderr, "[saboteur] sent oversize frame header\n");
  } else if (mode == "garbage") {
    std::uint8_t noise[64];
    std::memset(noise, 0xA5, sizeof noise);
    s.sock.send_all(noise, sizeof noise);
    std::fprintf(stderr, "[saboteur] sent garbage bytes\n");
  } else if (mode == "stall") {
    // A few plausible header bytes, then silence with the connection held
    // open: only the coordinator's read deadline can reclaim the range.
    const std::uint32_t magic = sp::dist::kWireMagic;
    s.sock.send_all(&magic, sizeof magic);
    std::fprintf(stderr, "[saboteur] stalling mid-frame\n");
    for (;;) ::pause();
  } else if (mode == "dup-unit") {
    const std::vector<std::uint8_t> frame =
        result_frame(s, s.begin, real_units(s)[0], auth);
    s.sock.send_all(frame.data(), frame.size());
    s.sock.send_all(frame.data(), frame.size());
    std::fprintf(stderr, "[saboteur] streamed unit %llu twice\n",
                 static_cast<unsigned long long>(s.begin));
  } else if (mode == "replay") {
    // Complete the range honestly, then replay the captured stream — the
    // coordinator committed the range, so the replayed frames arrive from
    // a worker with no assignment and must be rejected, not re-folded.
    const std::vector<std::vector<std::uint8_t>> units = real_units(s);
    std::vector<std::uint8_t> stream;
    for (std::uint64_t u = s.begin; u < s.end; ++u) {
      const std::vector<std::uint8_t> f =
          result_frame(s, u, units[u - s.begin], auth);
      stream.insert(stream.end(), f.begin(), f.end());
    }
    sp::dist::ByteWriter done;
    done.u64(s.begin);
    done.u64(s.end);
    done.u64(s.end - s.begin);
    const std::vector<std::uint8_t> done_frame = sp::dist::encode_frame(
        MsgType::kRangeDone, done.bytes(), auth, s.session, s.rid);
    stream.insert(stream.end(), done_frame.begin(), done_frame.end());
    s.sock.send_all(stream.data(), stream.size());  // the honest pass
    s.sock.send_all(stream.data(), stream.size());  // the replay
    std::fprintf(stderr, "[saboteur] replayed a committed range\n");
  } else {
    throw std::runtime_error("saboteur: unknown mode '" + mode + "'");
  }
  await_disconnect(s.sock);
  std::fprintf(stderr, "[saboteur] coordinator dropped us (expected)\n");
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string mode;
  std::string key;
  std::uint16_t port = 0;
  if (const char* env_key = std::getenv("STATPIPE_WIRE_KEY")) key = env_key;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
      };
      if (arg == "--port") {
        const unsigned long v = std::stoul(next());
        if (v == 0 || v > 65535)
          throw std::invalid_argument("port outside [1, 65535]");
        port = static_cast<std::uint16_t>(v);
      } else if (arg == "--host") {
        host = next();
      } else if (arg == "--mode") {
        mode = next();
      } else if (arg == "--key") {
        key = next();
      } else {
        usage(argv[0]);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "statpipe-saboteur: bad argument: %s\n", e.what());
    usage(argv[0]);
  }
  if (port == 0 || mode.empty()) usage(argv[0]);

  try {
    return run_mode(mode, host, port, FrameAuth::from_passphrase(key));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "statpipe-saboteur: %s\n", e.what());
    return EXIT_FAILURE;
  }
}
