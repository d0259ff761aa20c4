// Persistent multi-tenant cluster service (wire v4): one resident worker
// fleet serves MANY RunDescriptors from MANY concurrent client sessions
// over one listener.
//
// The Service is the single execution engine of src/dist.  It owns:
//
//   * SESSIONS — every connection (worker or client) is granted a session
//     id via kWelcome and is bound to it: a frame carrying any other
//     session id is rejected, which is what defeats cross-session replay
//     of captured authenticated frames (the HMAC key is shared, so the
//     MAC alone cannot tell connections apart);
//   * REQUESTS — one submitted descriptor each, local (submit_local, the
//     ClusterHandle path) or remote (kSubmit from a client), with its
//     UnitFold (dist/task.h), RunMetrics, status and result blob;
//   * the SCHEDULER (dist/scheduler.h) — priority + per-session
//     fair-share interleaving of all requests' unit ranges over the
//     fleet;
//   * the RESULT CACHE (dist/result_cache.h) — a resubmitted descriptor
//     (same canonical bytes, same root_seed) is answered from memory,
//     byte-identical to a recompute.
//
// Determinism contract, extended PER REQUEST (docs/DETERMINISM.md): the
// scheduling order of ranges across requests and workers may vary run to
// run, but every request's result bytes equal its single-process local
// reference — each request's UnitFold (dist/task.h) folds its own
// committed units in ascending unit order, and streams from different
// requests never mix (frames are request-scoped).
//
// Failure semantics per worker are unchanged from v3: a worker that
// disconnects, errors, stalls past the read deadline or violates the
// protocol forfeits its in-flight range including everything it staged;
// the range re-enters its request's queue front with a per-range attempt
// budget, and exhausting the budget fails THAT REQUEST, not the service.
// An idle timeout (no event at all for idle_timeout_ms while requests are
// outstanding) fails every outstanding request.
//
// Threading: the Service is single-threaded — run() owns everything.
// Clients on other threads/processes talk to it over TCP (ServiceClient).
//
// Layer contract (src/dist, see docs/ARCHITECTURE.md): the distributed
// execution layer sits on top of mc/sta/sim/stats and may depend on all of
// them; nothing below src/dist may know it exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dist/hmac.h"
#include "dist/result_cache.h"
#include "dist/scheduler.h"
#include "dist/serialize.h"
#include "dist/task.h"
#include "dist/transport.h"

namespace statpipe::dist {

struct ServiceOptions {
  std::string bind_host = "127.0.0.1";  ///< 0.0.0.0 for multi-machine runs
  std::uint16_t port = 0;               ///< 0 = ephemeral, see port()
  /// Units per assignment; 0 = auto per request (n_units / 8, min 1).  A
  /// pure scheduling knob: results are reassembled per unit, so this can
  /// never change output bytes, only load balance and fair-share grain.
  std::size_t units_per_range = 0;
  int max_attempts = 3;  ///< per range, >= 1
  /// Progress bound, 0 = wait forever: no event at all for this long
  /// while requests are outstanding fails every outstanding request.
  int idle_timeout_ms = 0;
  /// Per-connection read deadline on every admitted peer (0 = none).  A
  /// peer that goes silent — or drips bytes — mid-frame forfeits its range
  /// after this long instead of wedging run() (Socket::set_read_deadline_ms
  /// bounds even slow-loris drips).  Defaults to 30 s: long enough for any
  /// legitimate frame on a LAN, short enough that a stalled peer cannot
  /// hold a range hostage.
  int read_deadline_ms = 30000;
  /// Shared wire-key passphrase ("" = authentication disabled).  When set,
  /// every frame in both directions carries an HMAC-SHA256 trailer
  /// (dist/hmac.h) and unauthenticated or tampered peers are rejected.
  std::string auth_key;
  /// Result-cache byte bound (sum of cached result blobs); 0 disables.
  std::size_t cache_max_bytes = std::size_t{64} << 20;
  bool verbose = false;  ///< progress lines on stderr
};

/// Always-on per-REQUEST accounting, the one tally of every per-request
/// dist event (Service::local_metrics, ClusterHandle::submit's out-param;
/// queue wait + cache flag also travel in kRequestDone).  Plain counters
/// on the event-loop control path, so safe to report unconditionally.
/// Every other view reads it through kRunMetricFields.
struct RunMetrics {
  std::uint64_t units = 0;            ///< plan size (task units)
  std::uint64_t ranges = 0;           ///< ranges the plan was cut into
  std::uint64_t assigns = 0;          ///< kAssign frames sent
  std::uint64_t retries = 0;          ///< assignments beyond a range's first
  std::uint64_t commits = 0;          ///< ranges committed via kRangeDone
  std::uint64_t units_committed = 0;  ///< units in those ranges
  std::uint64_t forfeits = 0;         ///< in-flight ranges lost to dead peers
  std::uint64_t units_discarded = 0;  ///< staged units thrown away on forfeit
  std::uint64_t peak_staged_units = 0;  ///< high-water uncommitted staging
  std::uint64_t workers_connected = 0;  ///< live workers when it closed
  std::uint64_t queue_wait_us = 0;    ///< submit to first range assignment
  std::uint64_t wall_us = 0;          ///< submit to close
  std::uint64_t cache_hits = 0;       ///< 1 when served from the result cache
  std::uint64_t cache_misses = 0;     ///< 1 when computed (and then cached)
};

/// One RunMetrics field under its one public name (its obs counter and its
/// key on statpipe-run's summary lines) and its fold across requests: a
/// sum, or the maximum for peaks and gauges.  When a request closes the
/// service folds it into ServiceStats::totals and raises each counter by
/// what its totals field rose, so counters and totals read the same.
struct MetricField {
  const char* name;
  std::uint64_t RunMetrics::*field;
  enum Fold { kSum, kMax } fold = kSum;
};

inline constexpr MetricField kRunMetricFields[] = {
    {"dist.units", &RunMetrics::units},
    {"dist.ranges", &RunMetrics::ranges},
    {"dist.assigns", &RunMetrics::assigns},
    {"dist.retries", &RunMetrics::retries},
    {"dist.commits", &RunMetrics::commits},
    {"dist.units_committed", &RunMetrics::units_committed},
    {"dist.forfeits", &RunMetrics::forfeits},
    {"dist.units_discarded", &RunMetrics::units_discarded},
    {"dist.peak_staged_units", &RunMetrics::peak_staged_units,
     MetricField::kMax},
    {"dist.workers_connected", &RunMetrics::workers_connected,
     MetricField::kMax},
    {"dist.queue_wait_us", &RunMetrics::queue_wait_us},
    {"dist.wall_us", &RunMetrics::wall_us},
    {"dist.service.cache.hits", &RunMetrics::cache_hits},
    {"dist.service.cache.misses", &RunMetrics::cache_misses},
};

/// `name=value` for every table entry, space-separated, in table order.
std::string metrics_summary(const RunMetrics& m);

/// Service-wide totals, readable between run() calls.  A service-level
/// count is mirrored to the obs counter named beside it, at the same site.
struct ServiceStats {
  std::size_t requests_submitted = 0;  ///< dist.service.requests
  std::size_t requests_completed = 0;  ///< done or failed
  std::size_t requests_failed = 0;
  std::size_t sessions_opened = 0;   ///< dist.service.sessions (kWelcome)
  std::size_t workers_admitted = 0;  ///< dist.workers_admitted, reconnects too
  std::uint64_t cache_evictions = 0;  ///< dist.service.cache.evictions
  RunMetrics totals;  ///< every closed request, done or failed, folded
  /// Requests still registered with the scheduler: only active ones, so 0
  /// whenever the service is idle.
  std::size_t scheduled_requests = 0;
  /// Fair-share deficit counters: units assigned per session so far, in
  /// session-id order (the scheduler's accounting, docs/OBSERVABILITY.md).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> session_units;
};

class Service {
 public:
  /// Binds the listener immediately (port() is valid before run()).
  /// Throws std::invalid_argument on max_attempts < 1.
  explicit Service(ServiceOptions opt);
  ~Service();

  std::uint16_t port() const noexcept { return listener_.port(); }

  /// Submits a descriptor from inside this process (the ClusterHandle
  /// path) and returns its request id.  Validates like the v3 coordinator
  /// did — unfinalized descriptor, invalid plan,
  /// unsatisfiable units_per_range and oversize unit payloads all throw
  /// std::invalid_argument before any worker sees anything.  A result
  /// cache hit completes the request immediately.
  std::uint64_t submit_local(const RunDescriptor& desc,
                             std::uint32_t priority = 0);

  /// Serves the event loop until `until` returns true (checked once per
  /// loop iteration).  Callers typically pass "local request N done" or
  /// "K requests completed".  Throws only on unrecoverable service errors
  /// (poll failure); per-request failures are stored per request.
  void run(const std::function<bool()>& until);

  /// True once the request completed OR failed.
  bool local_done(std::uint64_t rid) const;

  /// Takes a completed request's result; throws std::runtime_error with
  /// the stored failure message for a failed one.  Consumes the request.
  TaskResult take_local_result(std::uint64_t rid);

  /// The request's accounting (valid once local_done; also mid-failure).
  const RunMetrics& local_metrics(std::uint64_t rid) const;

  /// Sends kShutdown to every connected worker (best-effort) — how an
  /// owner winds the fleet down before reaping spawned processes.
  void shutdown_workers();

  /// Accepts and politely dismisses (kShutdown) every connection waiting
  /// in the listener backlog, without blocking — see
  /// ClusterHandle::drain_backlog for the reap-loop rationale.
  void drain_backlog();

  std::size_t requests_completed() const noexcept {
    return stats_.requests_completed;
  }
  ServiceStats stats() const;

 private:
  struct Request {
    std::uint64_t rid = 0;
    std::uint64_t client_session = 0;  ///< 0 = local submission
    std::uint64_t client_id = 0;       ///< client-facing request id
    TaskKind kind{};
    std::vector<std::uint8_t> desc_bytes;  ///< canonical kSetup payload
    Digest cache_key{};
    enum class Status { kActive, kDone, kFailed } status = Status::kActive;
    std::string error;
    std::optional<UnitFold> fold;  ///< cache miss only
    std::size_t staged_now = 0;  ///< uncommitted staged units, all workers
    RunMetrics metrics;          ///< metrics.units is the plan size
    std::int64_t submit_ns = 0;
    std::int64_t span_t0 = 0;  ///< obs request span start (0 = obs off)
    std::vector<std::uint8_t> result_blob;  ///< serialized, for cache/wire
  };

  struct Peer {
    Socket sock;
    enum class Kind { kWorker, kClient } kind = Kind::kWorker;
    std::uint64_t session = 0;
    // Worker state:
    bool has_range = false;
    SchedTask task;
    std::int64_t assign_ns = 0;
    std::set<std::uint64_t> setup_rids;  ///< requests this worker holds
    UnitStaging staging;                 ///< units streamed for `task`
    // Client state:
    std::set<std::uint64_t> client_ids;  ///< request ids seen (dup guard)
  };

  /// `desc_bytes` is write_run_descriptor(desc): the cache key's input
  /// and the kSetup payload.
  std::uint64_t admit_request(const RunDescriptor& desc,
                              std::vector<std::uint8_t> desc_bytes,
                              std::uint32_t priority,
                              std::uint64_t client_session,
                              std::uint64_t client_id);
  void finish_request(Request& rq);
  /// By rid, not Request&: failing a REMOTE request erases it from
  /// requests_, so callers must not hold a reference across the call.
  void fail_request(std::uint64_t rid, const std::string& why);
  /// The shared end of both and the one place a request is published:
  /// folds its RunMetrics into the totals and the obs counters, releases
  /// its workers and, for a remote request, delivers the outcome frame
  /// and erases it.
  void close_request(Request& rq, MsgType type,
                     const std::vector<std::uint8_t>& payload);
  void admit_peer();
  void try_assign(Peer& w);
  bool service_worker(Peer& w);
  bool service_client(Peer& w);
  void handle_unit(Peer& w, Request& rq, const Frame& f);
  void handle_range_done(Peer& w, Request& rq, const Frame& f);
  void requeue(Peer& w, const std::string& why);
  void release_request(std::uint64_t rid);

  ServiceOptions opt_;
  FrameAuth auth_;
  Listener listener_;
  Scheduler sched_;
  ResultCache cache_;
  std::vector<Peer> peers_;
  std::map<std::uint64_t, Request> requests_;
  std::uint64_t next_session_ = 1;
  std::uint64_t next_rid_ = 1;
  ServiceStats stats_;
};

/// Blocking client for a running Service: one TCP connection, one session.
/// submit() assigns ascending request ids within the session; wait()
/// blocks until that request's kRequestDone (results arriving out of
/// submission order are stored until asked for).  Throws
/// std::runtime_error on transport errors, a service-side rejection
/// (kError) or a failed request.
class ServiceClient {
 public:
  ServiceClient(const std::string& host, std::uint16_t port,
                const std::string& auth_key = "", int connect_retry_ms = 5000);

  std::uint64_t session() const noexcept { return session_; }

  /// Submits one finalized descriptor; returns its request id.
  std::uint64_t submit(const RunDescriptor& desc, std::uint32_t priority = 0);

  /// Per-request service-side accounting shipped with the result.
  struct RequestInfo {
    bool cache_hit = false;
    double queue_wait_ms = 0.0;
  };

  /// Blocks until request `id` completes; returns its result (bitwise
  /// equal to the local reference — the service's contract).
  TaskResult wait(std::uint64_t id);

  /// Valid after wait(id) returned.
  const RequestInfo& info(std::uint64_t id) const;

 private:
  Socket sock_;
  FrameAuth auth_;
  std::uint64_t session_ = 0;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, TaskResult> done_;
  std::map<std::uint64_t, RequestInfo> infos_;  ///< survives wait()'s take
  std::map<std::uint64_t, std::string> failed_;
};

}  // namespace statpipe::dist
