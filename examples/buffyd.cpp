// buffyd: the buffy analysis service as a long-running daemon.
//
// Serves throughput analyses and storage/throughput design-space
// explorations over a Unix-domain socket and/or a loopback TCP port,
// speaking the newline-delimited JSON protocol of DESIGN.md §10. Repeated
// queries on the same graph hit warm per-graph throughput caches, so an
// interactive client (an IDE plugin, a build system probing candidate
// buffer budgets) pays the state-space exploration once.
//
// Usage:
//   buffyd [options]
// Options:
//   --socket <path>        Unix-domain socket to listen on
//   --port <n>             TCP port on 127.0.0.1 (0 = ephemeral; the
//                          chosen port is printed on startup)
//   --threads <n>          analysis worker threads (default: all cores)
//   --queue <n>            max jobs in the system before new analysis
//                          requests are answered `overloaded` (default 64)
//   --cache-cap <n>        max resident per-graph caches, LRU-evicted by
//                          graph fingerprint (default 64)
//   --cache-entries <n>    per graph cache, at most n equivalence boxes;
//                          once full it admits nothing new and evicts
//                          nothing (default 262144; 0 = unbounded)
//   --deadline-ms <n>      default deadline for requests that carry none
//   --pid-file <path>      write the daemon's pid for process managers
//
// At least one of --socket/--port is required. SIGINT/SIGTERM initiate
// the same graceful drain as a `shutdown` request: running analyses
// complete and deliver their responses, queued ones answer
// `shutting_down`, then the process exits 0.
#include <cstdio>
#include <functional>
#include <string>

#include "base/diagnostics.hpp"
#include "base/string_util.hpp"
#include "service/daemon_main.hpp"
#include "service/server.hpp"

using namespace buffy;

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: buffyd [--socket PATH] [--port N] [--threads N] "
               "[--queue N]\n"
               "              [--cache-cap N] [--cache-entries N] "
               "[--deadline-ms N]\n"
               "              [--pid-file PATH]\n");
}

}  // namespace

int main(int argc, char** argv) {
  service::ServerOptions options;
  std::string pid_file;
  const auto flag = [&options](const std::string& arg,
                               const std::function<std::string()>& value) {
    if (arg == "--threads") {
      const i64 n = parse_i64(value());
      if (n < 1) throw ParseError("--threads must be >= 1");
      options.threads = static_cast<unsigned>(n);
    } else if (arg == "--queue") {
      const i64 n = parse_i64(value());
      if (n < 1) throw ParseError("--queue must be >= 1");
      options.queue_capacity = static_cast<u64>(n);
    } else if (arg == "--cache-cap") {
      const i64 n = parse_i64(value());
      if (n < 1) throw ParseError("--cache-cap must be >= 1");
      options.cache_graphs = static_cast<std::size_t>(n);
    } else if (arg == "--cache-entries") {
      const i64 n = parse_i64(value());
      if (n < 0) throw ParseError("--cache-entries must be >= 0");
      options.cache_entries_per_graph = static_cast<u64>(n);
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
  return service::serve_until_drained<service::Server>(
      "buffyd", options, pid_file, [](const service::Server&) {});
}
