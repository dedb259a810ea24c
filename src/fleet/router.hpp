// buffyd-router: the sharded multi-process front-end of the buffy
// analysis fleet (DESIGN.md §17).
//
// A Router supervises a pool of worker `buffyd` processes — fork/exec'd,
// health-checked, and restarted with exponential backoff when they crash
// or stall — and speaks the same newline-delimited JSON protocol as a
// single buffyd on its client-facing sockets, so clients need no fleet
// awareness:
//
//  * analyze_throughput / explore_pareto / explore_slice are routed by
//    graph fingerprint to the graph's home shard (fingerprint mod
//    workers), so repeated queries on one graph keep hitting the same
//    worker's warm ThroughputCache;
//  * explore_pareto with `"scatter":true` and the exhaustive engine is
//    split at the router: it replicates the engine's divide-and-conquer
//    driver over the size dimension and dispatches each per-size
//    evaluation as an `explore_slice` request across the fleet in wave
//    batches, re-dispatching slices lost to a worker crash, then merges
//    the partial outcomes into a front byte-identical to a
//    single-process exploration (the SizeOutcome purity contract of
//    buffer::explore_size_slice);
//  * per-shard admission is bounded: beyond `shard_queue_capacity`
//    outstanding requests a shard answers `overloaded` with a
//    `retry_after_ms` hint instead of queueing unboundedly;
//  * status aggregates router counters with per-shard supervision state
//    (pid, restarts, queue depth) and each worker's own status
//    (refreshed by the health pings), so affinity and backpressure are
//    observable from the outside.
//
// The client side — listeners, connections, framing, the inline status /
// cancel / shutdown requests and the drain barrier — is the same
// service::FrontEnd buffyd runs; the worker connections use its line
// reader and writer (the zero-copy paged wire path).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/checked_math.hpp"
#include "service/front_end.hpp"
#include "service/json.hpp"

namespace buffy::fleet {

/// Everything a Router can be configured with: the client-facing
/// listener settings it shares with buffyd, plus the fleet's.
struct RouterOptions : service::ListenerOptions {
  /// Path of the worker `buffyd` binary to spawn.
  std::string worker_binary;
  /// Worker processes in the fleet (>= 1).
  unsigned workers = 4;
  /// Directory for the per-worker Unix sockets (worker-N.sock); created
  /// when missing.
  std::string runtime_dir;
  /// Outstanding requests a shard accepts before answering `overloaded`.
  u64 shard_queue_capacity = 32;
  /// Supervision cadence: health pings per shard at this interval.
  i64 health_interval_ms = 100;
  /// A worker that has not answered a health ping for this long is
  /// declared stalled and SIGKILLed (the supervisor then respawns it).
  i64 health_timeout_ms = 2000;
  /// Respawn backoff after a worker death: first wait, doubling per
  /// consecutive failure up to the cap.
  i64 backoff_base_ms = 50;
  i64 backoff_max_ms = 2000;
  /// `--threads` handed to each worker.
  unsigned worker_threads = 2;
  /// `--queue` handed to each worker.
  u64 worker_queue_capacity = 64;
  /// Test hook: invoked after every scatter wave's slice requests have
  /// been written to the workers and before the router waits for their
  /// outcomes — the deterministic point to kill a worker mid-wave.
  /// Arguments: wave index (0 = the lo/hi endpoint wave) and the number
  /// of slices the wave dispatched.
  std::function<void(unsigned wave, std::size_t slices)> after_wave_dispatch;
};

/// Routing decision for one client request forwarded to a worker.
struct ForwardPlan {
  /// Preferred (home) shard; failover walks the fleet from here.
  unsigned home = 0;
  /// The client's request id (absent = fire-and-forget semantics).
  std::optional<i64> client_id;
  /// Absolute router-side deadline (backstop against stalled workers).
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Remaining re-dispatch budget when a worker dies mid-request.
  int attempts = 3;
};

/// The fleet front-end; see file comment.
class Router : private service::FrontEnd::Handler {
 public:
  explicit Router(RouterOptions options);
  /// Initiates shutdown and waits for the drain if still running.
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds the client listeners, spawns the worker fleet, and starts the
  /// supervisor. Throws Error when no listener is configured or a bind
  /// fails. Workers come up asynchronously: requests arriving before a
  /// shard connected are answered `overloaded` (retry) rather than held.
  void start();

  /// Begins the drain (idempotent, any thread): client listeners close,
  /// in-flight work completes, then the workers are shut down.
  void shutdown();

  /// Blocks until a drain completes, then reaps every thread and worker.
  void wait();

  /// Port the TCP listener actually bound (0 when TCP is off).
  [[nodiscard]] int tcp_port() const { return front_.tcp_port(); }

  [[nodiscard]] unsigned num_workers() const;

  /// Home shard of a graph fingerprint (affinity routing).
  [[nodiscard]] unsigned shard_of(u64 fingerprint) const;

  /// Pid of shard `index`'s current worker process (-1 when down).
  /// Test hook for fault injection: the pid to SIGKILL or SIGSTOP.
  [[nodiscard]] i64 worker_pid(unsigned index) const;

  /// Completed respawns of shard `index` (0 until its first crash).
  [[nodiscard]] u64 worker_restarts(unsigned index) const;

  /// The status endpoint's "result" object (also reachable over the
  /// protocol via a `status` request).
  [[nodiscard]] service::JsonValue status_json() const override;

 private:
  using Connection = service::FrontEnd::Connection;
  struct Shard;
  struct Reply;
  class ScatterJob;

  void submit(Connection& conn, service::Request req,
              const std::string& line) override;
  void relay_cancel(Connection* conn, std::optional<i64> cancel_id,
                    const service::FrontEnd::Route& route) override;

  void supervisor_loop();
  void shard_tick(Shard& s);
  void spawn_worker(Shard& s);
  void teardown_worker(Shard& s, bool kill);
  void worker_reader_loop(Shard* s, int fd, u64 epoch);
  void handle_worker_line(Shard* s, u64 epoch, const std::string& line);
  std::optional<i64> send_to_shard_locked(
      Shard& s, service::JsonValue request, bool counts_as_job,
      std::optional<std::chrono::steady_clock::time_point> deadline,
      std::function<void(Reply)> on_reply);
  void drain_workers();

  void dispatch_forward(Connection* conn,
                        std::shared_ptr<service::JsonValue> doc,
                        ForwardPlan plan);
  void scatter_explore(Connection* conn, std::shared_ptr<ScatterJob> job);

  RouterOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<i64> next_internal_id_{1};
  std::atomic<unsigned> round_robin_{0};

  mutable std::mutex sup_mu_;
  std::condition_variable sup_cv_;

  // Fleet counters (relaxed; metrics only).
  std::atomic<u64> scatter_requests_{0};
  std::atomic<u64> forwarded_{0};
  std::atomic<u64> redispatches_{0};
  std::atomic<u64> worker_restarts_total_{0};

  // Last: their threads call into everything above.
  service::FrontEnd front_;
  std::thread supervisor_;
};

}  // namespace buffy::fleet
