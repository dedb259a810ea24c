// buffyd-router: the fleet front-end as a long-running process.
//
// Supervises a pool of worker `buffyd` processes and serves the same
// newline-delimited JSON protocol as a single buffyd (DESIGN.md §10),
// routing requests to workers by graph fingerprint and scattering
// `explore_pareto` requests marked `"scatter":true` across the fleet
// (DESIGN.md §17). Workers that crash or stall are restarted with
// exponential backoff; requests they took down are re-dispatched.
//
// Usage:
//   buffyd-router [options]
// Options:
//   --socket <path>           Unix-domain socket to listen on
//   --port <n>                TCP port on 127.0.0.1 (0 = ephemeral; the
//                             chosen port is printed on startup)
//   --workers <n>             worker processes in the fleet (default 4)
//   --worker-bin <path>       buffyd binary to spawn (default: `buffyd`
//                             next to this executable)
//   --worker-threads <n>      analysis threads per worker (default 2)
//   --runtime-dir <path>      directory for the per-worker sockets
//                             (default: /tmp/buffyd-fleet.<pid>)
//   --shard-queue <n>         outstanding requests per worker before
//                             `overloaded` (default 32)
//   --deadline-ms <n>         default deadline for requests without one
//   --health-interval-ms <n>  health-ping cadence per worker (default 100)
//   --health-timeout-ms <n>   unanswered-ping bound before a worker is
//                             declared stalled and restarted (default 2000)
//   --pid-file <path>         write the router's pid for process managers
//
// At least one of --socket/--port is required. SIGINT/SIGTERM initiate a
// graceful drain: in-flight requests deliver their responses, then the
// workers are shut down and the process exits 0.
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <string>

#include "base/diagnostics.hpp"
#include "base/string_util.hpp"
#include "fleet/router.hpp"
#include "service/daemon_main.hpp"

using namespace buffy;

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: buffyd-router [--socket PATH] [--port N] "
               "[--workers N]\n"
               "                     [--worker-bin PATH] [--worker-threads N] "
               "[--runtime-dir PATH]\n"
               "                     [--shard-queue N] [--deadline-ms N]\n"
               "                     [--health-interval-ms N] "
               "[--health-timeout-ms N]\n"
               "                     [--pid-file PATH]\n");
}

/// The default worker binary: `buffyd` in this executable's directory,
/// falling back to a bare "buffyd" (PATH lookup) when argv[0] has none.
std::string default_worker_binary(const char* argv0) {
  const std::string self = argv0;
  const std::size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "buffyd";
  return self.substr(0, slash + 1) + "buffyd";
}

}  // namespace

int main(int argc, char** argv) {
  fleet::RouterOptions options;
  options.worker_binary = default_worker_binary(argv[0]);
  options.runtime_dir = "/tmp/buffyd-fleet." + std::to_string(getpid());
  std::string pid_file;
  const auto flag = [&options](const std::string& arg,
                               const std::function<std::string()>& value) {
    if (arg == "--workers") {
      const i64 n = parse_i64(value());
      if (n < 1) throw ParseError("--workers must be >= 1");
      options.workers = static_cast<unsigned>(n);
    } else if (arg == "--worker-bin") {
      options.worker_binary = value();
    } else if (arg == "--worker-threads") {
      const i64 n = parse_i64(value());
      if (n < 1) throw ParseError("--worker-threads must be >= 1");
      options.worker_threads = static_cast<unsigned>(n);
    } else if (arg == "--runtime-dir") {
      options.runtime_dir = value();
    } else if (arg == "--shard-queue") {
      const i64 n = parse_i64(value());
      if (n < 1) throw ParseError("--shard-queue must be >= 1");
      options.shard_queue_capacity = static_cast<u64>(n);
    } else if (arg == "--health-interval-ms") {
      const i64 n = parse_i64(value());
      if (n < 1) throw ParseError("--health-interval-ms must be >= 1");
      options.health_interval_ms = n;
    } else if (arg == "--health-timeout-ms") {
      const i64 n = parse_i64(value());
      if (n < 1) throw ParseError("--health-timeout-ms must be >= 1");
      options.health_timeout_ms = n;
    } else {
      return false;
    }
    return true;
  };
  if (const int rc = service::parse_daemon_args(argc, argv, usage, options,
                                                pid_file, flag);
      rc != 0) {
    return rc;
  }
  return service::serve_until_drained<fleet::Router>(
      "buffyd-router", options, pid_file, [&options](const fleet::Router& r) {
        std::printf("buffyd-router: %u workers (%s)\n", r.num_workers(),
                    options.worker_binary.c_str());
      });
}
