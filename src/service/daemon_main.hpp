// The main() scaffold buffyd and buffyd-router share: the command-line
// flags of the listener, the pid file, synchronous signal handling and the
// drain on exit. Each binary keeps only its own usage text and flags.
//
// Exit codes: 0 after a drain, 1 when the daemon failed to start, 2 on a
// usage error.
#pragma once

#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

#include "base/diagnostics.hpp"
#include "base/string_util.hpp"
#include "service/front_end.hpp"

namespace buffy::service {

/// Parses a daemon's command line. The flags every daemon shares
/// (--socket, --port, --deadline-ms, --pid-file) fill `listen` and
/// `pid_file`; any other flag goes to `flag(arg, value)`, which returns
/// false for an unknown flag and may throw ParseError for a bad value
/// (`value()` fetches the flag's argument). Returns 0, or 2 after printing
/// the error and `usage` on a usage error.
inline int parse_daemon_args(
    int argc, char** argv, void (*usage)(std::FILE*), ListenerOptions& listen,
    std::string& pid_file,
    const std::function<bool(const std::string& arg,
                             const std::function<std::string()>& value)>&
        flag) {
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::function<std::string()> value = [&]() -> std::string {
        if (i + 1 >= argc) throw ParseError("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--socket") {
        listen.unix_socket_path = value();
      } else if (arg == "--port") {
        const i64 port = parse_i64(value());
        if (port < 0 || port > 65535) {
          throw ParseError("--port must be in [0, 65535]");
        }
        listen.tcp_port = static_cast<int>(port);
      } else if (arg == "--deadline-ms") {
        const i64 n = parse_i64(value());
        if (n < 0) throw ParseError("--deadline-ms must be >= 0");
        listen.default_deadline_ms = n;
      } else if (arg == "--pid-file") {
        pid_file = value();
      } else if (!flag(arg, value)) {
        std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
        usage(stderr);
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage(stderr);
    return 2;
  }
  if (listen.unix_socket_path.empty() && !listen.tcp_port.has_value()) {
    std::fprintf(stderr, "error: at least one of --socket/--port required\n");
    usage(stderr);
    return 2;
  }
  return 0;
}

/// Runs a `Daemon` (service::Server or fleet::Router) built from `options`
/// until its drain completes: starts it, writes `pid_file` (when set),
/// prints where it listens plus whatever `banner` prints, and turns
/// SIGINT/SIGTERM into the same graceful drain a `shutdown` request
/// starts. Returns the process exit code.
template <class Daemon, class Options, class Banner>
int serve_until_drained(const char* name, const Options& options,
                        const std::string& pid_file, Banner banner) {
  try {
    // SIGINT/SIGTERM are blocked in every thread (set up before the
    // daemon spawns any) and collected synchronously by the signal thread,
    // which keeps the handler free to call the non-async-signal-safe
    // shutdown().
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);

    Daemon daemon(options);
    daemon.start();

    if (!pid_file.empty()) {
      std::ofstream pid(pid_file);
      if (!pid) throw Error("cannot write pid file '" + pid_file + "'");
      pid << getpid() << "\n";
    }
    if (!options.unix_socket_path.empty()) {
      std::printf("%s: listening on %s\n", name,
                  options.unix_socket_path.c_str());
    }
    if (options.tcp_port.has_value()) {
      std::printf("%s: listening on 127.0.0.1:%d\n", name, daemon.tcp_port());
    }
    banner(daemon);
    std::fflush(stdout);

    // `drained` tells a real signal from the wake-up sent below once a
    // drain started by a `shutdown` request finished.
    std::atomic<bool> drained{false};
    std::thread signals([&] {
      int sig = 0;
      if (sigwait(&set, &sig) == 0 && !drained.load()) {
        std::fprintf(stderr, "%s: signal %d, draining...\n", name, sig);
        daemon.shutdown();
      }
    });
    daemon.wait();
    drained.store(true);
    pthread_kill(signals.native_handle(), SIGTERM);
    signals.join();

    std::printf("%s: drained, exiting\n", name);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace buffy::service
