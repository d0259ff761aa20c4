#include "dist/cluster.h"

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dist/workload.h"
#include "obs/log.h"

extern char** environ;

namespace statpipe::dist {

pid_t spawn_worker_process(const std::string& worker_bin, std::uint16_t port,
                           bool quiet, const std::string& auth_key,
                           bool serve) {
  const std::string port_s = std::to_string(port);
  std::vector<char*> args;
  args.push_back(const_cast<char*>(worker_bin.c_str()));
  args.push_back(const_cast<char*>("--port"));
  args.push_back(const_cast<char*>(port_s.c_str()));
  if (quiet) args.push_back(const_cast<char*>("--quiet"));
  if (serve) args.push_back(const_cast<char*>("--serve"));
  if (!auth_key.empty()) {
    args.push_back(const_cast<char*>("--key"));
    args.push_back(const_cast<char*>(auth_key.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, worker_bin.c_str(), nullptr, nullptr,
                               args.data(), environ);
  if (rc != 0)
    throw std::runtime_error("dist: cannot spawn " + worker_bin + ": " +
                             std::strerror(rc));
  return pid;
}

namespace {

// Last-resort wind-down for a fleet whose orderly close() is not an
// option (spawn failure mid-fleet, or close() itself threw).
void kill_and_reap(std::vector<pid_t>& kids) {
  for (pid_t pid : kids) ::kill(pid, SIGKILL);
  for (pid_t pid : kids) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  kids.clear();
}

}  // namespace

ClusterHandle::ClusterHandle(ClusterOptions opt)
    : opt_(std::move(opt)), svc_(opt_.service) {
  if (opt_.spawn_workers > 0 && opt_.worker_bin.empty())
    throw std::invalid_argument(
        "dist: ClusterHandle with spawn_workers > 0 needs a worker_bin path");
  const bool verbose = opt_.service.verbose;
  try {
    for (std::size_t i = 0; i < opt_.spawn_workers; ++i) {
      kids_.push_back(spawn_worker_process(opt_.worker_bin, svc_.port(),
                                           !verbose, opt_.service.auth_key,
                                           /*serve=*/true));
      obs::log_info("cluster",
                    "spawned resident worker pid " +
                        std::to_string(kids_.back()),
                    verbose);
    }
  } catch (...) {
    kill_and_reap(kids_);
    throw;
  }
}

ClusterHandle::~ClusterHandle() {
  try {
    close();
  } catch (...) {
    kill_and_reap(kids_);  // destructor: reap what we can, never throw
  }
}

TaskResult ClusterHandle::submit(const RunDescriptor& desc,
                                 std::uint32_t priority, RunMetrics* metrics) {
  if (closed_)
    throw std::logic_error("dist: submit on a closed ClusterHandle");
  const std::uint64_t rid = svc_.submit_local(desc, priority);
  svc_.run([&] { return svc_.local_done(rid); });
  // Snapshot before take: taking (or rethrowing a failure) consumes the
  // request, and the caller gets its accounting either way.
  if (metrics != nullptr) *metrics = svc_.local_metrics(rid);
  return svc_.take_local_result(rid);
}

void ClusterHandle::serve(std::size_t n_requests) {
  if (closed_) throw std::logic_error("dist: serve on a closed ClusterHandle");
  const std::size_t target = svc_.requests_completed() + n_requests;
  svc_.run([&] {
    return n_requests != 0 && svc_.requests_completed() >= target;
  });
}

void ClusterHandle::close() {
  if (closed_) return;
  closed_ = true;
  // kShutdown ends resident workers (--serve exits on it, not on
  // disconnect).  Reap with a grace period: a worker mid-range finishes
  // its current units before it reads the kShutdown, so give it a few
  // seconds before escalating to SIGKILL.  drain_backlog keeps dismissing
  // workers that only (re)connect now.
  svc_.shutdown_workers();
  for (pid_t pid : kids_) {
    int status = 0;
    pid_t got = 0;
    for (int waited_ms = 0; waited_ms < 5000; waited_ms += 20) {
      got = ::waitpid(pid, &status, WNOHANG);
      if (got != 0) break;
      svc_.drain_backlog();
      ::usleep(20 * 1000);
    }
    if (got == 0) {
      ::kill(pid, SIGKILL);
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      obs::log_warn("cluster", "resident worker " + std::to_string(pid) +
                                   " ignored shutdown; killed");
    } else if (got < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      obs::log_warn("cluster",
                    "resident worker " + std::to_string(pid) +
                        " exited abnormally (completed results unaffected)");
    } else {
      obs::log_info("cluster", "reaped worker pid " + std::to_string(pid),
                    opt_.service.verbose);
    }
  }
  kids_.clear();
}

std::string workload_name_for(const netlist::Netlist& nl) {
  std::string name = nl.name();
  constexpr const char* kSuffix = "_like";
  constexpr std::size_t kSuffixLen = 5;
  if (name.size() > kSuffixLen &&
      name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) == 0)
    name.resize(name.size() - kSuffixLen);
  const RegistryStage stage = registry_stage(name);  // throws on unknown
  // Structure modulo sizing: the grid carries explicit per-lane size
  // vectors, so sizes are the one thing allowed to differ.
  if (!stage.netlist->same_structure(nl))
    throw std::invalid_argument(
        "dist: netlist '" + nl.name() +
        "' is not reconstructible from the workload registry ('" + name +
        "' differs structurally); cluster grid submission needs a "
        "generator-built netlist");
  return name;
}

namespace {

RunDescriptor grid_descriptor_for(const netlist::Netlist& nl,
                                  const device::AlphaPowerModel& model,
                                  const std::vector<std::vector<double>>& grid,
                                  const process::VariationSpec& spec,
                                  const sta::SstaOptions& sopt) {
  RunDescriptor desc;
  desc.task_kind = TaskKind::kSstaGrid;
  desc.workload = workload_name_for(nl);
  desc.size_grid = grid;
  set_descriptor_technology(desc, model.technology());
  set_descriptor_spec(desc, spec);
  desc.output_load = sopt.output_load;
  finalize_descriptor(desc);
  return desc;
}

}  // namespace

sta::GridCharacterizer grid_characterizer(
    std::shared_ptr<ClusterHandle> handle) {
  return [handle = std::move(handle)](
             const netlist::Netlist& nl, const device::AlphaPowerModel& model,
             const std::vector<std::vector<double>>& size_grid,
             const process::VariationSpec& spec, const sta::SstaOptions& sopt)
             -> std::vector<sta::StageCharacterization> {
    TaskResult r =
        handle->submit(grid_descriptor_for(nl, model, size_grid, spec, sopt));
    return std::move(r.lanes);
  };
}

sta::GridCharacterizer grid_characterizer(
    std::shared_ptr<ServiceClient> client) {
  return [client = std::move(client)](
             const netlist::Netlist& nl, const device::AlphaPowerModel& model,
             const std::vector<std::vector<double>>& size_grid,
             const process::VariationSpec& spec, const sta::SstaOptions& sopt)
             -> std::vector<sta::StageCharacterization> {
    const std::uint64_t id = client->submit(
        grid_descriptor_for(nl, model, size_grid, spec, sopt));
    TaskResult r = client->wait(id);
    return std::move(r.lanes);
  };
}

}  // namespace statpipe::dist
