// The connection front-end of buffyd and buffyd-router (DESIGN.md §10).
//
// Both daemons speak the same newline-delimited protocol and differ only in
// what an analysis request turns into: a job on buffyd's thread pool, or a
// request the router forwards to (or scatters across) its worker
// processes. A FrontEnd owns everything around that decision:
//
//  * it binds the Unix-domain and/or loopback TCP listener and runs one
//    accept thread per listener;
//  * every accepted connection gets a reader thread that frames lines
//    (read_lines) and answers a line longer than max_request_bytes with
//    bad_request before closing the connection;
//  * status / cancel / shutdown are answered inline on the reader thread
//    (they must work even when every job slot is taken): status asks the
//    Handler for its result object, cancel fires the connection's route
//    for the target id (or has the Handler relay it to the peer process
//    holding the request), and shutdown is the drain barrier;
//  * analysis requests pass admission — `shutting_down` while draining,
//    `overloaded` past the job capacity — and go to Handler::submit;
//  * jobs are counted per connection and in the system: a connection is
//    reclaimed only after its reader exited AND no job holds it, and the
//    drain completes only when no job is left;
//  * it keeps the request, response and connection counters of `status`.
//
// The drain: shutdown() stops the listeners; wait_drained() returns once
// no job is left in the system and no inline `shutdown` request is still
// writing its confirmation; close() then tears the connections down. Every
// notification of the drain condition happens under its mutex, so the
// owner may destroy the FrontEnd as soon as wait_drained() returned.
//
// Thread-safety: start() once; shutdown(), respond(), hold() and
// finish_job() from any thread; wait_drained() and close() from the
// owning thread.
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
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/checked_math.hpp"
#include "exec/cancellation.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"

namespace buffy::service {

/// The listener settings buffyd and buffyd-router share.
struct ListenerOptions {
  /// Path for the Unix-domain listener; empty = no Unix socket. An
  /// existing socket file at the path is replaced.
  std::string unix_socket_path;
  /// TCP listener port on the loopback interface; nullopt = no TCP
  /// socket, 0 = ephemeral (read the bound port back via tcp_port()).
  std::optional<int> tcp_port;
  /// Deadline applied to requests that do not carry their own (0 = none).
  i64 default_deadline_ms = 0;
  /// Upper bound on one request line, graph payload included (the router
  /// applies it to its workers' response lines as well).
  u64 max_request_bytes = 8u << 20;
};

/// Reads newline-delimited lines from `fd` until EOF or a read error and
/// calls `on_line` for every non-blank one (newline and a trailing '\r'
/// stripped). Returns false as soon as an unterminated line exceeds
/// `max_line_bytes` — the stream is out of frame — and true otherwise.
bool read_lines(int fd, u64 max_line_bytes,
                const std::function<void(const std::string&)>& on_line);

/// Writes `line` plus its newline to `fd`: the line is adopted zero-copy
/// as a PagedBuffer page and flushed with vectored sends. Returns false on
/// a write error (errno set); EINTR is retried.
bool write_line(int fd, std::string line);

class FrontEnd {
 public:
  /// Where one in-flight request of a connection went, as `cancel` and a
  /// client disconnect see it.
  struct Route {
    /// Cancels a job running in this process (a pool job, a scatter).
    exec::CancellationToken token;
    /// Set when the request was forwarded to a peer process instead: the
    /// peer's index and the id the peer knows the request by.
    std::optional<unsigned> peer;
    i64 peer_id = 0;
  };

  /// One accepted client connection.
  struct Connection {
    int fd = -1;
    std::thread reader;
    /// Serialises responses written by the reader and by job threads.
    std::mutex write_mu;
    std::atomic<bool> open{true};
    std::atomic<bool> done{false};
    /// Jobs still holding this connection (see hold()/finish_job()).
    std::atomic<u64> jobs{0};

    void add_route(i64 id, Route route);
    void drop_route(i64 id);

   private:
    friend class FrontEnd;
    std::mutex routes_mu;
    std::unordered_map<i64, Route> routes;  // guarded by routes_mu
  };

  /// What a daemon plugs into the front-end.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// An admitted analysis request (analyze_throughput, explore_pareto,
    /// explore_slice). It holds one job on `conn` from here on: the
    /// handler must call FrontEnd::finish_job(conn) exactly once, after
    /// its last respond() on the connection.
    virtual void submit(Connection& conn, Request req,
                        const std::string& line) = 0;
    /// Relays a cancel to the peer process that holds `route` (only called
    /// for routes with a peer). With a connection, the handler answers the
    /// `cancel` request `cancel_id` on it; nullptr means the client
    /// disconnected and nobody is left to answer.
    virtual void relay_cancel(Connection* conn, std::optional<i64> cancel_id,
                              const Route& route);
    /// The `status` result object.
    [[nodiscard]] virtual JsonValue status_json() const = 0;
  };

  /// `role` names the daemon in its draining answer ("the <role> is
  /// draining"); `job_capacity` bounds the jobs in the system.
  FrontEnd(const ListenerOptions& options, const char* role,
           u64 job_capacity, Handler& handler);

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Binds the configured listeners and starts accepting. Throws Error
  /// when no listener is configured or a bind fails.
  void start();

  /// Begins the drain (idempotent, any thread): the listeners stop
  /// accepting and new analysis requests are answered shutting_down.
  void shutdown();

  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Blocks until the drain completed: shutdown() was called, no job is
  /// left in the system and no inline shutdown is writing its answer.
  /// Returns true to exactly one caller, which must then call close();
  /// false when start() never ran or another caller already won.
  [[nodiscard]] bool wait_drained();

  /// Joins the accept threads, closes the listeners, then shuts down,
  /// joins and closes every connection. Call after wait_drained().
  void close();

  /// Port the TCP listener actually bound (0 when TCP is off).
  [[nodiscard]] int tcp_port() const { return tcp_port_; }

  [[nodiscard]] u64 jobs_in_system() const;

  /// Writes one response line to `conn` and counts it; a no-op on the
  /// wire once the connection closed.
  void respond(Connection& conn, std::string line, bool ok);

  /// Takes a job on `conn` without admission (a relayed cancel awaiting
  /// its peer's answer). Pair with finish_job().
  void hold(Connection& conn);

  /// Releases a job taken by admission or hold(). This is the job's last
  /// touch of `conn`: once the count hits zero the drain may destroy
  /// every connection.
  void finish_job(Connection& conn);

  void count_overloaded() {
    overloaded_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_shutting_down() {
    shutting_down_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Sets the shared `status` members on `o`: draining, uptime_seconds,
  /// requests (with `extra_requests` after explore_slice) and responses.
  void write_status(
      JsonValue& o,
      const std::vector<std::pair<std::string, u64>>& extra_requests) const;

  /// The `status` connections object: accepted, open.
  [[nodiscard]] JsonValue connections_json() const;

 private:
  void accept_loop(int listen_fd);
  void reap_finished_locked();  // requires conns_mu_ held
  void reader_loop(Connection* conn);
  void handle_line(Connection& conn, const std::string& line);
  void cancel(Connection& conn, const Request& req);
  void shutdown_inline(Connection& conn, const Request& req);
  void admit(Connection& conn, Request req, const std::string& line);

  const ListenerOptions options_;
  const std::string role_;
  const u64 job_capacity_;
  Handler& handler_;
  const std::chrono::steady_clock::time_point started_at_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = 0;

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;  // guarded by conns_mu_

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> reaped_{false};

  // Jobs in the system: admission control and the drain barrier.
  mutable std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  u64 jobs_in_system_ = 0;    // guarded by jobs_mu_
  u64 inline_shutdowns_ = 0;  // shutdown requests awaiting their answer,
                              // guarded by jobs_mu_

  // Counters (relaxed; metrics only).
  std::atomic<u64> requests_total_{0};
  std::atomic<u64> analyze_requests_{0};
  std::atomic<u64> explore_requests_{0};
  std::atomic<u64> slice_requests_{0};
  std::atomic<u64> status_requests_{0};
  std::atomic<u64> cancel_requests_{0};
  std::atomic<u64> shutdown_requests_{0};
  std::atomic<u64> responses_ok_{0};
  std::atomic<u64> responses_error_{0};
  std::atomic<u64> overloaded_{0};
  std::atomic<u64> shutting_down_{0};
  std::atomic<u64> connections_accepted_{0};
  std::atomic<u64> connections_open_{0};

  std::vector<std::thread> accept_threads_;
};

}  // namespace buffy::service
