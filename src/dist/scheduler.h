// Service-side range scheduler: decides which pending unit range the next
// idle worker receives, interleaving many concurrent requests (from many
// client sessions) over one fleet.
//
// Policy, evaluated in order when next() picks among requests that still
// have pending ranges:
//
//   1. PRIORITY class — higher u32 priority strictly first;
//   2. FAIR SHARE within a class — the session with the fewest units
//      assigned so far (a deficit counter next() maintains) goes first, so
//      a session firing many small probe grids cannot starve another;
//      ties break by session first-seen order;
//   3. FIFO within a session — requests in submission order;
//   4. QUEUE ORDER within a request — ranges pop from the front;
//      requeue_front() puts a forfeited range back at the front of its
//      request's queue so retries run before fresh ranges.
//
// The scheduler is a pure data structure: no clocks, no I/O, no
// randomness.  Given the same sequence of add_request / enqueue /
// requeue_front / next calls it yields the same assignment sequence —
// unit-tested directly in tests/test_service.cpp.  Note the determinism
// contract does NOT depend on this (results are reassembled per unit
// index whatever the assignment order was; docs/DETERMINISM.md); a
// deterministic scheduler just makes service behavior reproducible and
// testable.
//
// Layer contract (src/dist, see docs/ARCHITECTURE.md): the distributed
// execution layer sits on top of mc/sta/sim/stats and may depend on all of
// them; nothing below src/dist may know it exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

namespace statpipe::dist {

/// One schedulable contiguous unit range of one request.  `attempts`
/// counts kAssign sends (the service increments it; the scheduler only
/// carries it through requeues).
struct SchedTask {
  std::uint64_t rid = 0;     ///< service-global request id
  std::size_t begin = 0;     ///< first unit index
  std::size_t end = 0;       ///< one past last unit index
  int attempts = 0;
};

class Scheduler {
 public:
  /// Registers a request before its ranges are enqueued.  `session` keys
  /// the fair-share deficit accounting (0 = the service's local session).
  /// Submission order is captured here — the FIFO key of rule 3.
  void add_request(std::uint64_t rid, std::uint64_t session,
                   std::uint32_t priority);

  /// Drops a request and all its still-pending ranges (request completed,
  /// failed or cancelled).  Its session's deficit counter survives — past
  /// consumption still counts against the session's share.
  void remove_request(std::uint64_t rid);

  /// Appends a range to the back of its request's queue.
  void enqueue(const SchedTask& t);

  /// Puts a forfeited range at the FRONT of its request's queue, so the
  /// retry is the next thing that request runs.
  void requeue_front(const SchedTask& t);

  /// Pops the next range per the policy above; nullopt when nothing is
  /// pending.  Charges the range's unit count to its session's deficit.
  std::optional<SchedTask> next();

  bool empty() const noexcept { return pending_ranges_ == 0; }
  std::size_t pending_ranges() const noexcept { return pending_ranges_; }
  /// Requests registered and not yet removed — next() scans all of them.
  std::size_t request_count() const noexcept { return requests_.size(); }

  /// Units assigned to a session so far (the fair-share deficit counter) —
  /// surfaced through Service::stats() as the per-session accounting the
  /// observability layer reports.
  std::uint64_t session_units(std::uint64_t session) const;
  std::vector<std::uint64_t> sessions() const;

 private:
  struct SessionShare {
    std::uint64_t assigned_units = 0;
    std::uint64_t order = 0;  ///< first-seen rank, the fair-share tiebreak
  };
  struct RequestQueue {
    std::uint64_t session = 0;
    std::uint32_t priority = 0;
    std::uint64_t order = 0;  ///< submission rank, the FIFO key
    std::deque<SchedTask> ranges;
  };

  std::map<std::uint64_t, SessionShare> sessions_;
  std::map<std::uint64_t, RequestQueue> requests_;
  std::uint64_t next_order_ = 0;
  std::size_t pending_ranges_ = 0;
};

}  // namespace statpipe::dist
