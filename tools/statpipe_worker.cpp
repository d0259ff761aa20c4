// statpipe-worker — distributed task worker daemon.
//
// Dials a coordinator (statpipe-run, or an embedded dist::ClusterHandle),
// rebuilds the advertised workload, verifies its structural hash, and
// serves unit-range assignments on the local thread pool until shutdown.
// Serves every registered task kind — Monte-Carlo shard ranges and SSTA
// grid lane ranges alike (dist/task.h); a setup frame carrying a task
// kind this build does not know is rejected with a clear task-kind error.
//
//   statpipe-worker --port 4815 [--host 127.0.0.1] [--retry-ms 5000]
//                   [--key PASSPHRASE] [--quiet] [--serve]
//
// --serve keeps the daemon resident: when the service drops the session
// the worker dials back in and serves again, so one fleet outlives any
// number of service restarts and client submissions (ClusterHandle spawns
// its fleet this way); an explicit kShutdown still ends it.  Without it
// the worker exits after one session.
//
// Wire authentication: --key (or the STATPIPE_WIRE_KEY environment
// variable; the flag wins) enables the HMAC-SHA256 frame trailer and must
// match the coordinator's key — a mismatch is a frame authentication
// error, never a silent downgrade (docs/WIRE_FORMAT.md).
//
// Thread count follows STATPIPE_THREADS / hardware, like every other
// binary; it never affects results.  Exits 0 on clean shutdown (including
// a rejected workload, which is the coordinator's problem to report), 1 on
// usage or transport errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "dist/worker.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port P [--host H] [--retry-ms N] [--key K]\n"
               "          [--quiet] [--serve]\n"
               "serves all registered task kinds (mc, ssta-grid) announced\n"
               "by the coordinator's setup frame; --key (or the\n"
               "STATPIPE_WIRE_KEY env var) enables frame authentication\n",
               argv0);
  std::exit(EXIT_FAILURE);
}

}  // namespace

int main(int argc, char** argv) {
  statpipe::dist::WorkerOptions opt;
  opt.verbose = true;
  bool serve = false;
  if (const char* env_key = std::getenv("STATPIPE_WIRE_KEY"))
    opt.auth_key = env_key;
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
        opt.port = static_cast<std::uint16_t>(v);
      } else if (arg == "--host") {
        opt.host = next();
      } else if (arg == "--retry-ms") {
        opt.connect_retry_ms = std::stoi(next());
      } else if (arg == "--key") {
        opt.auth_key = next();
      } else if (arg == "--quiet") {
        opt.verbose = false;
      } else if (arg == "--serve") {
        serve = true;
      } else {
        usage(argv[0]);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "statpipe-worker: bad argument: %s\n", e.what());
    usage(argv[0]);
  }
  if (opt.port == 0) usage(argv[0]);

  try {
    // --serve: reconnect after a session ends by DISCONNECT — the service
    // (or its successor after a restart) finds the same fleet dialing
    // back in.  An explicit kShutdown is the fleet wind-down order and
    // always exits; transport errors exit 1 — a daemon supervisor owns
    // crash-restart policy, not this loop.
    bool shutdown_received = false;
    do {
      statpipe::dist::run_worker(opt,
                                 statpipe::dist::default_workload_factory(),
                                 &shutdown_received);
    } while (serve && !shutdown_received);
    return EXIT_SUCCESS;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "statpipe-worker: %s\n", e.what());
    return EXIT_FAILURE;
  }
}
