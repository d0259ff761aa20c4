// statpipe-run — distributed task entry point.
//
// Hosts a dist::ClusterHandle (or, with --connect, joins a running
// service as a client), submits one distributed task, and prints a
// summary: statpipe-worker processes run the unit ranges over TCP and the
// service reassembles their per-unit results in ascending unit order.
// Two task kinds:
//
//   --task mc          (default) gate-level Monte-Carlo: units are sim
//                      shards, the merged result is the yield estimate.
//   --task ssta-sweep  distributed area-delay sweep: the sweep's candidate
//                      grids (SSTA sweep-config lanes) are farmed to the
//                      cluster via dist::grid_characterizer; the workload
//                      must name exactly one circuit.
//
// With --check-local the identical workload also runs single-process and
// the distributed result must be bitwise-identical — the subsystem's
// acceptance gate, used by the CI dist-smoke job for both task kinds.
//
//   statpipe-run --workload c3540,c432 --samples 4096 [--seed 90210]
//                [--task mc|ssta-sweep] [--points N]
//                [--port 0] [--host 127.0.0.1]
//                [--samples-per-shard 256] [--block-width 8]
//                [--units-per-range N] [--max-attempts 3]
//                [--spawn N --worker-bin PATH] [--timeout-ms N]
//                [--key PASSPHRASE] [--check-local] [--quiet]
//
// --key (or the STATPIPE_WIRE_KEY environment variable; the flag wins)
// enables the HMAC-SHA256 frame trailer on every wire frame; workers must
// hold the same key (spawned workers inherit it automatically).
//
// --spawn N forks N local statpipe-worker processes (in --serve reconnect
// mode) pointed at the bound port (default worker binary: ./statpipe-worker
// next to this one) — the one-command localhost cluster.  Without --spawn,
// start workers yourself against the printed port.  Wire format:
// docs/WIRE_FORMAT.md; bitwise contract: docs/DETERMINISM.md.
//
// SERVICE MODE (wire v4): --serve hosts the same service for remote
// clients instead of running one task — resident workers, many concurrent
// client sessions, fair-share scheduling and a content-addressed result
// cache.  --serve-requests N exits after N requests completed (CI's
// bounded service leg); without it the service runs until killed.
// --connect HOST:PORT turns this binary into a CLIENT of such a service:
// the same --task/--workload flags describe the run, but it is submitted
// over the wire and the result (with cache/queue accounting) comes back on
// this session.  --priority sets the scheduler priority of this
// invocation's requests either way.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "dist/cluster.h"
#include "dist/task.h"
#include "dist/workload.h"
#include "obs/telemetry.h"
#include "opt/sweep.h"
#include "stats/gaussian.h"

namespace {

namespace sp = statpipe;

// The service's always-on accounting under the names the metrics JSON
// carries: the service-level counts, then every closed request folded
// through dist::kRunMetricFields.  Needs no telemetry (obs counters stay
// disabled unless --metrics / STATPIPE_TRACE turned them on).
std::string service_summary(const sp::dist::ServiceStats& st) {
  return "dist.service.requests=" + std::to_string(st.requests_submitted) +
         " dist.service.sessions=" + std::to_string(st.sessions_opened) +
         " dist.workers_admitted=" + std::to_string(st.workers_admitted) +
         " dist.service.cache.evictions=" +
         std::to_string(st.cache_evictions) + " " +
         sp::dist::metrics_summary(st.totals);
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --workload NAMES --samples N [--seed S] [--port P]\n"
      "          [--task mc|ssta-sweep] [--points N] [--host H]\n"
      "          [--samples-per-shard N] [--block-width W]\n"
      "          [--sigma-systematic V]\n"
      "          [--units-per-range N] [--max-attempts N] [--timeout-ms N]\n"
      "          [--spawn N] [--worker-bin PATH] [--key K] [--check-local]\n"
      "          [--metrics PATH] [--quiet]\n"
      "       %s --serve [--serve-requests N] [--spawn N] [dist flags]\n"
      "       %s --connect HOST:PORT [--priority N] [task flags]\n"
      "\n"
      "--serve hosts a persistent multi-tenant service (wire v4): resident\n"
      "workers, concurrent client sessions, fair-share scheduling, result\n"
      "cache.  --serve-requests N exits once N requests completed (0 =\n"
      "run until killed).  --connect submits this invocation's task to a\n"
      "running service instead of self-hosting one.\n"
      "\n"
      "--metrics PATH enables runtime telemetry (src/obs) and dumps the\n"
      "JSON metrics snapshot to PATH on success; STATPIPE_TRACE=PATH\n"
      "additionally writes a Chrome trace at exit (docs/OBSERVABILITY.md).\n"
      "\n"
      "task kinds (docs/WIRE_FORMAT.md):\n"
      "  mc          gate-level Monte-Carlo; units are sim shards\n"
      "              (--samples required; NAMES may list several stages)\n"
      "  ssta-sweep  distributed area-delay sweep; units are SSTA grid\n"
      "              lanes (--points targets; NAMES must be one circuit)\n",
      argv0, argv0, argv0);
  std::exit(EXIT_FAILURE);
}

std::uint16_t parse_port(const std::string& s) {
  const unsigned long v = std::stoul(s);
  if (v > 65535)
    throw std::invalid_argument("port " + s + " outside [0, 65535]");
  return static_cast<std::uint16_t>(v);
}

std::string sibling_worker_bin(const char* argv0) {
  std::string self(argv0);
  const std::size_t slash = self.rfind('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : self.substr(0, slash);
  return dir + "/statpipe-worker";
}

// The submit path of this invocation: a self-hosted ClusterHandle or a
// client session on a running service.
using Submit =
    std::function<sp::dist::TaskResult(const sp::dist::RunDescriptor&)>;

int run_mc(sp::dist::RunDescriptor& desc, const Submit& submit,
           const char* label, bool check_local) {
  sp::dist::finalize_descriptor(desc);
  std::printf("statpipe-run: mc, %s, %llu samples, seed %llu\n",
              desc.workload.c_str(),
              static_cast<unsigned long long>(desc.n_samples),
              static_cast<unsigned long long>(desc.seed));
  const sp::dist::TaskResult result = submit(desc);
  const sp::stats::Gaussian g = result.mc.tp_estimate();
  std::printf("T_P estimate: mu %.4f ps, sigma %.4f ps over %zu samples\n",
              g.mean, g.sigma, result.mc.tp_samples.size());

  if (check_local) {
    const sp::dist::TaskResult local = sp::dist::run_local_task(desc);
    if (!sp::dist::bitwise_equal(result, local)) {
      std::printf("FAIL: %s result diverges from the single-process run\n",
                  label);
      return EXIT_FAILURE;
    }
    std::printf("%s result is bitwise-identical to the single-process run\n",
                label);
  }
  return EXIT_SUCCESS;
}

int run_ssta_sweep(const sp::dist::RunDescriptor& desc, std::size_t points,
                   sp::sta::GridCharacterizer grid, const char* label,
                   bool check_local) {
  const auto names = sp::dist::split_workload_names(desc.workload);
  if (names.size() != 1) {
    std::fprintf(stderr,
                 "statpipe-run: --task ssta-sweep needs exactly one "
                 "circuit in --workload, got '%s'\n",
                 desc.workload.c_str());
    return EXIT_FAILURE;
  }
  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  const sp::process::VariationSpec spec = sp::dist::descriptor_spec(desc);

  sp::opt::SweepOptions sw;
  sw.points = points;
  sw.sizer.output_load = desc.output_load;
  sw.grid = std::move(grid);

  std::printf("statpipe-run: ssta-sweep, %s, %zu sweep points\n",
              desc.workload.c_str(), points);
  // The sweep resizes its netlist: work on a copy of the registry stage.
  const sp::dist::RegistryStage stage =
      sp::dist::registry_stage(names.front());
  sp::netlist::Netlist nl = *stage.netlist;
  const auto dist_sweep = sp::opt::area_delay_sweep(nl, model, spec, sw);
  std::printf("area-delay curve: %zu feasible points, fastest D_stat "
              "%.4f ps\n",
              dist_sweep.curve.points().size(), dist_sweep.min_stat_delay);
  for (const auto& p : dist_sweep.curve.points())
    std::printf("  delay %.4f ps  area %.2f\n", p.delay, p.area);

  if (check_local) {
    sp::opt::SweepOptions local_sw = sw;
    local_sw.grid = {};  // the single-process SstaBatch reference
    sp::netlist::Netlist nl2 = *stage.netlist;
    const auto local_sweep =
        sp::opt::area_delay_sweep(nl2, model, spec, local_sw);
    if (!sp::opt::bitwise_equal(dist_sweep, local_sweep)) {
      std::printf("FAIL: %s sweep diverges from the single-process "
                  "SstaBatch run\n",
                  label);
      return EXIT_FAILURE;
    }
    std::printf("%s sweep is bitwise-identical to the single-process "
                "SstaBatch run\n",
                label);
  }
  return EXIT_SUCCESS;
}

// --serve: host the persistent multi-tenant service for remote clients
// until --serve-requests N requests completed (0 = until killed), then
// wind the fleet down.  Exit code reflects whether any request FAILED —
// individual request failures are reported to their clients and do not
// stop the service.
int run_serve(sp::dist::ClusterHandle& handle, std::size_t serve_requests) {
  handle.serve(serve_requests);
  handle.close();
  const sp::dist::ServiceStats st = handle.stats();
  std::printf("service stats: requests_completed=%zu requests_failed=%zu %s\n",
              st.requests_completed, st.requests_failed,
              service_summary(st).c_str());
  for (const auto& [sid, units] : st.session_units)
    std::printf("  session %llu: %llu unit(s) assigned\n",
                static_cast<unsigned long long>(sid),
                static_cast<unsigned long long>(units));
  return st.requests_failed == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

}  // namespace

int main(int argc, char** argv) {
  sp::dist::RunDescriptor desc;
  sp::dist::ClusterOptions cl;
  sp::dist::ServiceOptions& so = cl.service;
  so.verbose = true;
  cl.worker_bin = sibling_worker_bin(argv[0]);
  std::string task = "mc";
  std::size_t points = 8;
  bool check_local = false;
  std::string metrics_path;
  bool serve = false;
  std::size_t serve_requests = 0;
  std::string connect_to;  // HOST:PORT (or bare PORT -> 127.0.0.1)
  std::uint32_t priority = 0;
  desc.seed = 90210;
  desc.samples_per_shard = 256;
  if (const char* env_key = std::getenv("STATPIPE_WIRE_KEY"))
    so.auth_key = env_key;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
      };
      if (arg == "--workload") desc.workload = next();
      else if (arg == "--task") task = next();
      else if (arg == "--points") points = std::stoull(next());
      else if (arg == "--samples") desc.n_samples = std::stoull(next());
      else if (arg == "--seed") desc.seed = std::stoull(next());
      else if (arg == "--samples-per-shard")
        desc.samples_per_shard = std::stoull(next());
      else if (arg == "--block-width") desc.block_width = std::stoull(next());
      else if (arg == "--sigma-systematic")
        desc.sigma_vth_systematic = std::stod(next());
      else if (arg == "--port") so.port = parse_port(next());
      else if (arg == "--host") so.bind_host = next();
      else if (arg == "--units-per-range" || arg == "--shards-per-range")
        so.units_per_range = std::stoull(next());
      else if (arg == "--max-attempts") so.max_attempts = std::stoi(next());
      else if (arg == "--timeout-ms") so.idle_timeout_ms = std::stoi(next());
      else if (arg == "--spawn") cl.spawn_workers = std::stoull(next());
      else if (arg == "--worker-bin") cl.worker_bin = next();
      else if (arg == "--key") so.auth_key = next();
      else if (arg == "--metrics") metrics_path = next();
      else if (arg == "--check-local") check_local = true;
      else if (arg == "--quiet") so.verbose = false;
      else if (arg == "--serve") serve = true;
      else if (arg == "--serve-requests") {
        serve = true;
        serve_requests = std::stoull(next());
      }
      else if (arg == "--connect") connect_to = next();
      else if (arg == "--priority") {
        priority = static_cast<std::uint32_t>(std::stoul(next()));
      }
      else usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "statpipe-run: bad argument: %s\n", e.what());
    usage(argv[0]);
  }
  if (serve && !connect_to.empty()) {
    std::fprintf(stderr, "statpipe-run: --serve and --connect are "
                         "mutually exclusive\n");
    return EXIT_FAILURE;
  }
  if (!serve) {
    if (desc.workload.empty()) usage(argv[0]);
    if (task != "mc" && task != "ssta-sweep") {
      std::fprintf(stderr,
                   "statpipe-run: unknown task '%s' (this build knows mc, "
                   "ssta-sweep)\n",
                   task.c_str());
      return EXIT_FAILURE;
    }
    if (task == "mc" && desc.n_samples == 0) usage(argv[0]);
    if (task == "ssta-sweep" && points < 2) {
      std::fprintf(stderr, "statpipe-run: --points must be >= 2\n");
      return EXIT_FAILURE;
    }
  }

  // --metrics implies telemetry: counters/spans only accumulate while
  // enabled (STATPIPE_TRACE enables it at startup too).  Out-of-band by
  // design — results are bitwise-identical either way.
  if (!metrics_path.empty()) sp::obs::set_enabled(true);

  try {
    int rc = EXIT_FAILURE;
    std::shared_ptr<sp::dist::ClusterHandle> handle;
    std::shared_ptr<sp::dist::ServiceClient> client;
    if (connect_to.empty()) {
      handle = std::make_shared<sp::dist::ClusterHandle>(cl);
      // Port announcement is operational output, not verbosity: without
      // --spawn, externally started workers (and clients) need the
      // (possibly ephemeral) port even under --quiet.
      std::printf("statpipe-run: %s on port %u\n",
                  serve ? "serving" : "listening",
                  static_cast<unsigned>(handle->port()));
      std::fflush(stdout);
    } else {
      // HOST:PORT, or a bare PORT against localhost.
      std::string host = "127.0.0.1";
      std::string port_str = connect_to;
      const std::size_t colon = connect_to.rfind(':');
      if (colon != std::string::npos) {
        host = connect_to.substr(0, colon);
        port_str = connect_to.substr(colon + 1);
      }
      const std::uint16_t port = parse_port(port_str);
      if (port == 0)
        throw std::invalid_argument("--connect needs a nonzero port");
      client = std::make_shared<sp::dist::ServiceClient>(host, port,
                                                         so.auth_key);
      std::printf("statpipe-run: client of the service at %s:%u, session "
                  "%llu\n",
                  host.c_str(), static_cast<unsigned>(port),
                  static_cast<unsigned long long>(client->session()));
    }

    const char* label = handle ? "distributed" : "service";
    if (serve) {
      rc = run_serve(*handle, serve_requests);
    } else if (task == "mc") {
      const Submit submit = [&](const sp::dist::RunDescriptor& d) {
        if (handle) return handle->submit(d, priority);
        const std::uint64_t id = client->submit(d, priority);
        sp::dist::TaskResult r = client->wait(id);
        std::printf("service request %llu: cache %s, queue wait %.1f ms\n",
                    static_cast<unsigned long long>(id),
                    client->info(id).cache_hit ? "hit" : "miss",
                    client->info(id).queue_wait_ms);
        return r;
      };
      rc = run_mc(desc, submit, label, check_local);
    } else {
      rc = run_ssta_sweep(desc, points,
                          handle ? sp::dist::grid_characterizer(handle)
                                 : sp::dist::grid_characterizer(client),
                          label, check_local);
    }
    if (handle && !serve) {
      handle->close();
      std::printf("dist metrics: %s\n",
                  service_summary(handle->stats()).c_str());
    }
    if (!metrics_path.empty()) {
      sp::obs::write_metrics_json(metrics_path);
      std::printf("metrics snapshot written to %s\n", metrics_path.c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "statpipe-run: %s\n", e.what());
    return EXIT_FAILURE;
  }
}
