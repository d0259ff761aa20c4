// Generic task wire protocol for distributed runs: one service farms
// contiguous UNIT ranges of a task to many workers over TCP.
//
// A task is identified by a TaskKind discriminator carried in the
// RunDescriptor (dist/serialize.h); the unit of work depends on the kind:
//
//   kMonteCarlo  unit = one sim shard; unit payload = one mc::McResult
//   kSstaGrid    unit = one sweep-config lane of an sta::SstaBatch grid;
//                unit payload = one sta::StageCharacterization
//
// Every message is a frame (wire v4):
//
//   { u32 magic, u16 version, u16 type, u32 flags,
//     u64 session_id, u64 request_id, u64 payload_size }
//   payload...  [ 32-byte HMAC-SHA256 trailer when kFrameFlagAuthenticated ]
//
// (all little-endian, payload layouts in dist/serialize.h and
// docs/WIRE_FORMAT.md).  session_id names the connection's service-granted
// session (0 before kWelcome), request_id names one descriptor submission
// within it (0 for frames not scoped to a request).  The service binds
// each connection to the session id its kWelcome granted and rejects
// frames carrying any other — which is what makes a captured
// authenticated frame worthless on another connection (replay defense;
// HMAC alone cannot distinguish connections under one shared key).
//
// Worker exchange (worker is RESIDENT: it serves any number of
// descriptors over one connection until kShutdown):
//
//   worker -> service       kHello      { u16 proto_version, u64 threads }
//   service -> worker       kWelcome    { u64 session_id }
//   service -> worker       kSetup      { RunDescriptor }      (per request,
//                                       before that request's first kAssign)
//   service -> worker       kAssign     { u64 unit_begin, u64 unit_end }
//   worker -> service       kResult     { u64 unit_index, unit payload }
//                                       (one frame PER UNIT, streamed as
//                                       units complete, unit_begin first,
//                                       then each next unit — no other)
//   worker -> service       kRangeDone  { u64 unit_begin, u64 unit_end,
//                                         u64 count }  (commit marker)
//   worker -> service       kError      { string message }
//   service -> worker       kRelease    { }  (request done; drop its runner)
//   service -> worker       kShutdown   { }
//
// Client exchange (a client session submits descriptors and collects
// results; many client sessions multiplex over one fleet):
//
//   client -> service       kClientHello { u16 proto_version }
//   service -> client       kWelcome     { u64 session_id }
//   client -> service       kSubmit      { u32 priority, RunDescriptor }
//                                        (request_id chosen by the client,
//                                        unique within its session)
//   service -> client       kRequestDone { u16 task_kind, u8 cache_hit,
//                                          u64 queue_wait_ns, result blob }
//   service -> client       kError       { string message }
//
// Streaming commit semantics: per-unit kResult frames are STAGED by the
// service (any other unit than the next forfeits the range) and only
// committed when the range's kRangeDone arrives with the right echo and
// count — a worker that dies, stalls or turns hostile
// mid-range forfeits everything it streamed, and the whole range is
// re-queued (bounded by ServiceOptions::max_attempts).  Committed
// units fold in ascending unit index with bounded memory — for
// Monte-Carlo the same left fold the local engine applies (a contiguous
// prefix is folded into one accumulator as it completes), for SSTA grids
// positional lane placement — so the merged run is bitwise-identical to
// the single-process result no matter how ranges were split, streamed,
// retried or reassigned (docs/DETERMINISM.md).
//
// Authentication: with a shared key configured (STATPIPE_WIRE_KEY / --key)
// every frame in both directions carries an HMAC-SHA256 trailer over
// header + payload (dist/hmac.h), verified constant-time before the
// payload is parsed.  Tampered, unauthenticated-under-key and
// authenticated-without-key frames are all rejected with a distinct
// authentication error, never parsed.
//
// Layer contract (src/dist, see docs/ARCHITECTURE.md): the distributed
// execution layer sits on top of mc/sta/sim/stats and may depend on all of
// them; nothing below src/dist may know it exists.
#pragma once

#include <cstdint>

namespace statpipe::dist {

enum class MsgType : std::uint16_t {
  kHello = 1,
  kSetup = 2,
  kAssign = 3,
  kResult = 4,       ///< v3: ONE unit per frame, streamed as units complete
  kError = 5,
  kShutdown = 6,
  kRangeDone = 7,    ///< v3: commits the streamed units of one range
  kClientHello = 8,  ///< v4: client session opener
  kWelcome = 9,      ///< v4: service grants the connection its session id
  kSubmit = 10,      ///< v4: client submits one descriptor as a request
  kRequestDone = 11, ///< v4: service delivers one request's result blob
  kRelease = 12,     ///< v4: service tells a worker to drop a request's
                     ///< runner (request complete or failed)
};

/// Frame-header flag bits (u32 `flags` field, v3+).  Unknown bits are
/// rejected — a future flag must bump the version, never ride silently.
inline constexpr std::uint32_t kFrameFlagAuthenticated = 1u << 0;
inline constexpr std::uint32_t kFrameFlagsKnown = kFrameFlagAuthenticated;

/// Wire discriminator for what a RunDescriptor describes and what each
/// result unit contains.  Serialized as u16; readers reject unknown values
/// with a task-kind error, never a generic deserialize failure.
enum class TaskKind : std::uint16_t {
  kMonteCarlo = 1,  ///< gate-level MC; unit = shard, payload = McResult
  kSstaGrid = 2,    ///< SSTA sweep grid; unit = lane, payload =
                    ///< StageCharacterization
};

/// Human-readable name for error messages and CLI output.
const char* task_kind_name(TaskKind kind) noexcept;

/// True when `raw` names a TaskKind this build understands.
bool is_known_task_kind(std::uint16_t raw) noexcept;

/// Sanity cap on a single frame payload (1 GiB): a length beyond this is a
/// corrupt or hostile peer, not a big result.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

}  // namespace statpipe::dist
