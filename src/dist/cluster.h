// Cluster host: ClusterHandle is the one way to host a dist::Service
// in-process — optionally with a spawned localhost worker fleet — and to
// adapt its results back into the shapes the upper layers consume.
//
// This is the piece that lets the optimizer layers run their candidate
// grids on a cluster WITHOUT ever including src/dist: `opt` routes grids
// through the sta::GridCharacterizer seam (sta/ssta_batch.h), and
// grid_characterizer() below manufactures a cluster-backed implementation
// of that seam.  One hook invocation = one request on a resident service
// (self-hosted handle or remote ServiceClient), so every submission
// carries the full determinism contract: the returned lanes are
// bitwise-identical to the local SstaBatch path (docs/DETERMINISM.md,
// tests/test_dist.cpp).
//
// Layer contract (src/dist, see docs/ARCHITECTURE.md): the distributed
// execution layer sits on top of mc/sta/sim/stats and may depend on all of
// them; nothing below src/dist may know it exists — opt reaches it only
// through the injected sta::GridCharacterizer.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "dist/service.h"
#include "dist/task.h"
#include "netlist/netlist.h"
#include "sta/ssta_batch.h"

namespace statpipe::dist {

struct ClusterOptions {
  ServiceOptions service;  ///< bind/port, range size, attempts, cache, ...
  /// Fork this many localhost statpipe-worker processes (in --serve
  /// reconnect mode) at construction — the one-command cluster.  0 =
  /// workers dial in from outside against ClusterHandle::port().
  std::size_t spawn_workers = 0;
  std::string worker_bin;  ///< required when spawn_workers > 0
};

/// Forks one statpipe-worker process against `port` (posix_spawn).  A
/// non-empty `auth_key` travels as `--key` so spawned workers speak the
/// service's authenticated wire; `serve` adds `--serve`, making the worker
/// reconnect and serve again after the service drops it (the
/// resident-fleet daemon mode).  Throws std::runtime_error when the
/// binary cannot be spawned.
pid_t spawn_worker_process(const std::string& worker_bin, std::uint16_t port,
                           bool quiet, const std::string& auth_key = "",
                           bool serve = false);

/// A RESIDENT cluster: one Service and one spawned worker fleet that stay
/// up across any number of submit() calls, so repeated submissions stop
/// paying spawn/reap (and workload re-setup) per run and identical ones
/// hit the result cache.  submit() and serve() drive the service event
/// loop on the CALLING thread, so the handle adds no threads of its own;
/// it is not safe for concurrent use from multiple threads.  close()
/// winds the fleet down (kShutdown, then reap — SIGKILL after a grace
/// period); the destructor closes if the caller did not.
class ClusterHandle {
 public:
  /// Binds, spawns the fleet, returns immediately (workers connect in the
  /// background — the first submit()/serve() admits them).  Throws
  /// std::invalid_argument on invalid service options or spawn_workers > 0
  /// without a worker_bin.
  explicit ClusterHandle(ClusterOptions opt);
  ~ClusterHandle();
  ClusterHandle(const ClusterHandle&) = delete;
  ClusterHandle& operator=(const ClusterHandle&) = delete;

  std::uint16_t port() const noexcept { return svc_.port(); }

  /// One full submission: validate, schedule over the resident fleet (or
  /// answer from the result cache), return the bitwise-deterministic
  /// result.  Throws std::invalid_argument on descriptor/option
  /// validation (unfinalized descriptor, unsatisfiable units_per_range,
  /// ...) before any worker sees anything, and std::runtime_error on a
  /// failed run (range attempts exhausted, idle timeout).  A non-null
  /// `metrics` receives the request's RunMetrics even when the run throws.
  TaskResult submit(const RunDescriptor& desc, std::uint32_t priority = 0,
                    RunMetrics* metrics = nullptr);

  /// Hosts the service for remote clients (ServiceClient sessions) until
  /// `n_requests` more requests have completed; 0 = forever.
  void serve(std::size_t n_requests);

  /// Accepts and politely dismisses (kShutdown) every connection waiting
  /// in the listener backlog, without blocking.  A caller reaping worker
  /// processes it started itself keeps calling this after close(), so a
  /// worker slow enough to connect only after the fleet wound down is
  /// turned away instead of hanging in its setup read.
  void drain_backlog() { svc_.drain_backlog(); }

  /// Service-wide totals: every closed request's RunMetrics folded into
  /// `totals`, admissions, per-session fair-share units, ...
  ServiceStats stats() const { return svc_.stats(); }

  /// Sends kShutdown to every connected worker and reaps the spawned
  /// fleet; idempotent.
  void close();

 private:
  ClusterOptions opt_;
  Service svc_;
  std::vector<pid_t> kids_;
  bool closed_ = false;
};

/// The registry workload name for a netlist the cluster can rebuild:
/// strips the generator's "_like" suffix from nl.name() and compares nl
/// in place with the stage registry's circuit (dist/workload.h), sizes
/// excepted (Netlist::same_structure) — so a netlist that is NOT
/// reconstructible from the registry (edited structure, foreign parser
/// input) is rejected with a clear error instead of silently
/// characterizing the wrong circuit.
std::string workload_name_for(const netlist::Netlist& nl);

/// Cluster-backed sta::GridCharacterizer: each invocation packages the
/// grid as a kSstaGrid RunDescriptor (workload_name_for identity check;
/// spec, output_load and the model's technology copied into the
/// descriptor), finalizes it and submits it to the RESIDENT fleet behind
/// `handle` — repeated probe grids also hit the handle's result cache.
/// Plug it into opt::SweepOptions::grid /
/// opt::GlobalOptimizerOptions::grid to farm candidate grids out; results
/// are bitwise-identical to leaving the hook empty.  The handle is shared
/// because sta::GridCharacterizer must be copyable.
sta::GridCharacterizer grid_characterizer(
    std::shared_ptr<ClusterHandle> handle);

/// Same contract against a REMOTE service this process does not host:
/// each grid becomes one kSubmit on the client's session and blocks until
/// its kRequestDone.  (ServiceClient is not thread-safe; callers fanning
/// out across threads need one client each.)
sta::GridCharacterizer grid_characterizer(
    std::shared_ptr<ServiceClient> client);

}  // namespace statpipe::dist
