// buffyd — the resident analysis daemon (DESIGN.md §10).
//
// A Server owns a work-stealing exec::ThreadPool the analysis requests run
// on and a CacheRegistry of warm per-graph throughput caches shared by
// every request; its FrontEnd (service/front_end.hpp) owns the listeners,
// the connections, the inline status / cancel / shutdown requests and
// admission. Each admitted analysis request (analyze_throughput,
// explore_pareto, explore_slice) becomes a pool job with a per-request
// CancellationToken (deadline_ms composes with explicit cancel and client
// disconnect).
//
// Shutdown drains: the listeners close, requests already running complete
// and deliver their responses, submitted-but-not-started jobs answer
// `shutting_down`, then the reader threads are joined and the pool stops.
// wait() returns only after that point, so `buffyd` can simply
// start(); wait(); return.
//
// Thread-safety: start() must be called once; shutdown() may be called
// from any thread (including a reader thread handling a shutdown
// request); wait() must be called from the owning thread (it joins).
#pragma once

#include <atomic>
#include <memory>

#include "base/checked_math.hpp"
#include "exec/cancellation.hpp"
#include "exec/progress.hpp"
#include "exec/thread_pool.hpp"
#include "service/cache_registry.hpp"
#include "service/front_end.hpp"
#include "service/protocol.hpp"

namespace buffy::service {

/// Everything a Server can be configured with: the listener settings it
/// shares with the fleet router, plus the pool and cache bounds.
struct ServerOptions : ListenerOptions {
  /// Worker threads of the analysis pool (0 = hardware concurrency).
  unsigned threads = 0;
  /// Bound on jobs in the system (queued + running); beyond it new
  /// analysis requests are answered `overloaded`.
  u64 queue_capacity = 64;
  /// Max resident per-graph caches (LRU by graph fingerprint).
  std::size_t cache_graphs = 64;
  /// Cap on the boxes of each graph cache (0 = unbounded); a full cache
  /// admits nothing new.
  u64 cache_entries_per_graph = 1u << 18;
};

/// The daemon; see file comment.
class Server : private FrontEnd::Handler {
 public:
  explicit Server(ServerOptions options);
  /// Initiates shutdown and waits for the drain if still running.
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the configured listeners and starts accepting. Throws Error
  /// when no listener is configured or a bind fails.
  void start() { front_.start(); }

  /// Begins the graceful drain (idempotent, any thread): listeners
  /// close, running jobs finish, queued jobs answer shutting_down.
  void shutdown() { front_.shutdown(); }

  /// Blocks until a drain completes (shutdown() here or via a request),
  /// then reaps reader threads and stops the pool.
  void wait();

  /// Port the TCP listener actually bound (0 when TCP is off); useful
  /// with an ephemeral `tcp_port = 0`.
  [[nodiscard]] int tcp_port() const { return front_.tcp_port(); }

  /// The status endpoint's "result" object: request/response/job/
  /// connection counters, cache occupancy and a progress snapshot.
  [[nodiscard]] JsonValue status_json() const override;

 private:
  using Connection = FrontEnd::Connection;

  void submit(Connection& conn, Request req, const std::string& line) override;
  void run_job(Connection* conn, const Request& req,
               const exec::CancellationToken& parent);

  // Request handlers (worker threads). Each returns the "result" object
  // or throws ProtocolError / buffy errors mapped by run_job.
  [[nodiscard]] JsonValue handle_analyze(const Request& req,
                                         const exec::CancellationToken& tok);
  [[nodiscard]] JsonValue handle_explore(const Request& req,
                                         const exec::CancellationToken& tok);
  [[nodiscard]] JsonValue handle_explore_slice(
      const Request& req, const exec::CancellationToken& tok);

  ServerOptions options_;
  std::unique_ptr<exec::ThreadPool> pool_;
  CacheRegistry registry_;
  exec::Progress progress_;

  // Pool job counters (relaxed; metrics only).
  std::atomic<u64> jobs_queued_{0};
  std::atomic<u64> jobs_running_{0};

  // Last: its reader threads call into everything above.
  FrontEnd front_;
};

}  // namespace buffy::service
