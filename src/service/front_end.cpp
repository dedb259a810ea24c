#include "service/front_end.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <span>

#include "base/diagnostics.hpp"
#include "service/paged_buffer.hpp"

namespace buffy::service {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

/// Best-effort id recovery for error responses to requests that failed
/// request-level validation: a client that sent `{"id":7,...}` with a bad
/// member still gets its id echoed so it can correlate the error.
std::optional<i64> try_extract_id(const std::string& line) {
  try {
    const JsonValue doc = JsonValue::parse(line);
    const JsonValue* id = doc.find("id");
    if (id != nullptr && id->is_int()) return id->as_int();
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

/// A stream socket of `addr`'s family, bound to it and listening.
int listen_on(const sockaddr* addr, socklen_t len, const std::string& what) {
  const int fd = ::socket(addr->sa_family, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(" + what + ")");
  if (addr->sa_family == AF_INET) {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  const char* failed = ::bind(fd, addr, len) != 0      ? "bind("
                       : ::listen(fd, 128) != 0 ? "listen("
                                                : nullptr;
  if (failed != nullptr) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno(failed + what + ")");
  }
  return fd;
}

}  // namespace

bool read_lines(int fd, u64 max_line_bytes,
                const std::function<void(const std::string&)>& on_line) {
  // Paged inbound path: recv() lands directly in the framer's tail page
  // (peek_space/commit_space), and line extraction drains pages instead
  // of erasing a contiguous string's front — O(new bytes) per read
  // regardless of how many lines are pipelined on the stream.
  LineFramer framer(max_line_bytes);
  std::string line;
  for (;;) {
    const std::span<char> space = framer.buffer().peek_space(4096);
    const ssize_t n = ::recv(fd, space.data(), space.size(), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return true;
    }
    framer.buffer().commit_space(static_cast<std::size_t>(n));
    for (;;) {
      const LineFramer::Status status = framer.next_line(line);
      if (status == LineFramer::Status::NeedMore) break;
      if (status == LineFramer::Status::Overflow) return false;
      if (line.find_first_not_of(" \t") != std::string::npos) on_line(line);
    }
  }
}

bool write_line(int fd, std::string line) {
  // Zero-copy outbound path: the already-materialised line is adopted as
  // a page (add_reference) and the newline rides in the page chain's tail
  // — no per-message reassembly into a fresh string.
  PagedBuffer out;
  out.add_reference(std::move(line));
  out.append("\n");
  while (!out.empty()) {
    if (out.flush_to(fd) < 0) {
      if (errno == EINTR) continue;
      return false;
    }
  }
  return true;
}

void FrontEnd::Connection::add_route(i64 id, Route route) {
  const std::lock_guard<std::mutex> lock(routes_mu);
  routes[id] = std::move(route);
}

void FrontEnd::Connection::drop_route(i64 id) {
  const std::lock_guard<std::mutex> lock(routes_mu);
  routes.erase(id);
}

void FrontEnd::Handler::relay_cancel(Connection* /*conn*/,
                                     std::optional<i64> /*cancel_id*/,
                                     const Route& /*route*/) {}

FrontEnd::FrontEnd(const ListenerOptions& options, const char* role,
                   u64 job_capacity, Handler& handler)
    : options_(options),
      role_(role),
      job_capacity_(job_capacity),
      handler_(handler),
      started_at_(std::chrono::steady_clock::now()) {}

void FrontEnd::start() {
  BUFFY_REQUIRE(!started_.exchange(true), "start() called twice");
  BUFFY_REQUIRE(
      !options_.unix_socket_path.empty() || options_.tcp_port.has_value(),
      "no listener configured: set unix_socket_path and/or tcp_port");
  try {
    if (!options_.unix_socket_path.empty()) {
      const std::string& path = options_.unix_socket_path;
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (path.size() >= sizeof(addr.sun_path)) {
        throw Error("unix socket path too long: '" + path + "'");
      }
      std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
      ::unlink(path.c_str());
      unix_fd_ = listen_on(reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr), "'" + path + "'");
    }
    if (options_.tcp_port.has_value()) {
      BUFFY_REQUIRE(*options_.tcp_port >= 0 && *options_.tcp_port <= 65535,
                    "tcp_port must be in [0, 65535]");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(*options_.tcp_port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      tcp_fd_ = listen_on(reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr),
                          "tcp port " + std::to_string(*options_.tcp_port));
      socklen_t len = sizeof(addr);
      if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
          0) {
        throw_errno("getsockname(tcp)");
      }
      tcp_port_ = ntohs(addr.sin_port);
    }
  } catch (...) {
    if (unix_fd_ >= 0) ::close(unix_fd_);
    if (tcp_fd_ >= 0) ::close(tcp_fd_);
    unix_fd_ = tcp_fd_ = -1;
    throw;
  }
  if (unix_fd_ >= 0) {
    accept_threads_.emplace_back([this] { accept_loop(unix_fd_); });
  }
  if (tcp_fd_ >= 0) {
    accept_threads_.emplace_back([this] { accept_loop(tcp_fd_); });
  }
}

void FrontEnd::shutdown() {
  if (!draining_.exchange(true)) {
    // SHUT_RDWR unblocks accept() in the listener threads; the fds are
    // closed in close(), after those threads joined.
    if (unix_fd_ >= 0) ::shutdown(unix_fd_, SHUT_RDWR);
    if (tcp_fd_ >= 0) ::shutdown(tcp_fd_, SHUT_RDWR);
  }
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  jobs_cv_.notify_all();
}

bool FrontEnd::wait_drained() {
  if (!started_.load(std::memory_order_acquire)) return false;
  {
    std::unique_lock<std::mutex> lock(jobs_mu_);
    jobs_cv_.wait(lock, [this] {
      return draining_.load(std::memory_order_relaxed) &&
             jobs_in_system_ == 0 && inline_shutdowns_ == 0;
    });
  }
  return !reaped_.exchange(true);
}

void FrontEnd::close() {
  for (std::thread& t : accept_threads_) t.join();
  accept_threads_.clear();
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    ::unlink(options_.unix_socket_path.c_str());
    unix_fd_ = -1;
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  const std::lock_guard<std::mutex> lock(conns_mu_);
  // Every job has drained, so the readers are the only users left:
  // unblock them, join them, then the fds can close.
  for (const std::unique_ptr<Connection>& c : conns_) {
    c->open.store(false, std::memory_order_relaxed);
    ::shutdown(c->fd, SHUT_RDWR);
  }
  for (const std::unique_ptr<Connection>& c : conns_) {
    if (c->reader.joinable()) c->reader.join();
    ::close(c->fd);
  }
  conns_.clear();
}

u64 FrontEnd::jobs_in_system() const {
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  return jobs_in_system_;
}

void FrontEnd::accept_loop(int listen_fd) {
  for (;;) {
    const int client_fd = ::accept(listen_fd, nullptr, nullptr);
    if (client_fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or a hard error): stop accepting
    }
    if (draining()) {
      ::close(client_fd);
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_open_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Connection>();
    conn->fd = client_fd;
    Connection* raw = conn.get();
    const std::lock_guard<std::mutex> lock(conns_mu_);
    reap_finished_locked();
    conns_.push_back(std::move(conn));
    raw->reader = std::thread([this, raw] { reader_loop(raw); });
  }
}

void FrontEnd::reap_finished_locked() {
  for (std::size_t i = 0; i < conns_.size();) {
    Connection& c = *conns_[i];
    if (c.done.load(std::memory_order_acquire) &&
        c.jobs.load(std::memory_order_acquire) == 0) {
      c.reader.join();
      ::close(c.fd);
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void FrontEnd::reader_loop(Connection* conn) {
  const bool in_frame = read_lines(
      conn->fd, options_.max_request_bytes,
      [this, conn](const std::string& line) { handle_line(*conn, line); });
  if (!in_frame) {
    respond(*conn,
            error_response(std::nullopt, ErrorCode::BadRequest,
                           "request line exceeds " +
                               std::to_string(options_.max_request_bytes) +
                               " bytes"),
            /*ok=*/false);
  }
  conn->open.store(false, std::memory_order_relaxed);
  ::shutdown(conn->fd, SHUT_RDWR);
  // A disconnected client cannot receive results: cancel whatever it
  // still has in flight so nobody keeps burning time on it.
  std::vector<Route> relayed;
  {
    const std::lock_guard<std::mutex> lock(conn->routes_mu);
    for (const auto& [id, route] : conn->routes) {
      if (route.peer.has_value()) {
        relayed.push_back(route);
      } else {
        route.token.cancel();
      }
    }
    conn->routes.clear();
  }
  for (const Route& route : relayed) {
    handler_.relay_cancel(nullptr, std::nullopt, route);
  }
  connections_open_.fetch_sub(1, std::memory_order_relaxed);
  conn->done.store(true, std::memory_order_release);
}

void FrontEnd::respond(Connection& conn, std::string line, bool ok) {
  (ok ? responses_ok_ : responses_error_)
      .fetch_add(1, std::memory_order_relaxed);
  if (!conn.open.load(std::memory_order_relaxed)) return;
  const std::lock_guard<std::mutex> lock(conn.write_mu);
  if (!write_line(conn.fd, std::move(line))) {
    conn.open.store(false, std::memory_order_relaxed);
  }
}

void FrontEnd::hold(Connection& conn) {
  conn.jobs.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  ++jobs_in_system_;
}

void FrontEnd::finish_job(Connection& conn) {
  conn.jobs.fetch_sub(1, std::memory_order_release);
  // Notify while holding the mutex: jobs finish on pool workers and on
  // detached threads, and a waiter in wait_drained() may destroy the
  // owner (and this cv) the moment the count hits zero. Holding the lock
  // across the notify keeps the waiter from returning until the
  // broadcast has completed.
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  --jobs_in_system_;
  jobs_cv_.notify_all();
}

void FrontEnd::handle_line(Connection& conn, const std::string& line) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  Request req;
  try {
    req = parse_request(line);
  } catch (const ProtocolError& e) {
    respond(conn, error_response(try_extract_id(line), e.code(), e.what()),
            /*ok=*/false);
    return;
  }
  switch (req.method) {
    case Method::Status:
      status_requests_.fetch_add(1, std::memory_order_relaxed);
      respond(conn, ok_response(req.id, handler_.status_json()), /*ok=*/true);
      return;
    case Method::Cancel:
      cancel(conn, req);
      return;
    case Method::Shutdown:
      shutdown_inline(conn, req);
      return;
    case Method::AnalyzeThroughput:
      analyze_requests_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Method::ExplorePareto:
      explore_requests_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Method::ExploreSlice:
      slice_requests_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  admit(conn, std::move(req), line);
}

void FrontEnd::cancel(Connection& conn, const Request& req) {
  cancel_requests_.fetch_add(1, std::memory_order_relaxed);
  std::optional<Route> found;
  {
    const std::lock_guard<std::mutex> lock(conn.routes_mu);
    const auto it = conn.routes.find(*req.cancel_id);
    if (it != conn.routes.end()) {
      found = it->second;
      if (!found->peer.has_value()) found->token.cancel();
    }
  }
  if (found.has_value() && found->peer.has_value()) {
    // The peer holding the request answers; the handler relays it.
    handler_.relay_cancel(&conn, req.id, *found);
    return;
  }
  JsonValue result = JsonValue::object();
  result.set("cancelled", JsonValue::boolean(found.has_value()));
  respond(conn, ok_response(req.id, result), /*ok=*/true);
}

void FrontEnd::shutdown_inline(Connection& conn, const Request& req) {
  shutdown_requests_.fetch_add(1, std::memory_order_relaxed);
  {
    // inline_shutdowns_ keeps wait_drained() from returning — and the
    // owner from closing this connection — under the confirmation.
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    ++inline_shutdowns_;
  }
  shutdown();
  {
    // Drain barrier: every admitted job delivers its response before the
    // confirmation goes out.
    std::unique_lock<std::mutex> lock(jobs_mu_);
    jobs_cv_.wait(lock, [this] { return jobs_in_system_ == 0; });
  }
  JsonValue result = JsonValue::object();
  result.set("drained", JsonValue::boolean(true));
  respond(conn, ok_response(req.id, result), /*ok=*/true);
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  --inline_shutdowns_;
  jobs_cv_.notify_all();
}

void FrontEnd::admit(Connection& conn, Request req, const std::string& line) {
  // Admission control: bounded jobs in the system; over the bound the
  // client hears `overloaded` immediately instead of queueing unbounded
  // work (and never a silent drop). During a drain nothing is admitted.
  bool draining_now = false;
  bool over_capacity = false;
  {
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    draining_now = draining();
    over_capacity = !draining_now && jobs_in_system_ >= job_capacity_;
    if (!draining_now && !over_capacity) ++jobs_in_system_;
  }
  if (draining_now) {
    count_shutting_down();
    respond(conn,
            error_response(req.id, ErrorCode::ShuttingDown,
                           "the " + role_ + " is draining"),
            /*ok=*/false);
    return;
  }
  if (over_capacity) {
    count_overloaded();
    respond(conn,
            error_response(req.id, ErrorCode::Overloaded,
                           "job queue at capacity (" +
                               std::to_string(job_capacity_) +
                               "); retry later"),
            /*ok=*/false);
    return;
  }
  conn.jobs.fetch_add(1, std::memory_order_relaxed);
  handler_.submit(conn, std::move(req), line);
}

void FrontEnd::write_status(
    JsonValue& o,
    const std::vector<std::pair<std::string, u64>>& extra_requests) const {
  const auto u = [](const std::atomic<u64>& v) {
    return JsonValue::integer(
        static_cast<i64>(v.load(std::memory_order_relaxed)));
  };
  o.set("draining", JsonValue::boolean(draining()));
  o.set("uptime_seconds",
        JsonValue::number(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - started_at_)
                              .count()));

  JsonValue requests = JsonValue::object();
  requests.set("total", u(requests_total_));
  requests.set("analyze_throughput", u(analyze_requests_));
  requests.set("explore_pareto", u(explore_requests_));
  requests.set("explore_slice", u(slice_requests_));
  for (const auto& [name, value] : extra_requests) {
    requests.set(name, JsonValue::integer(static_cast<i64>(value)));
  }
  requests.set("status", u(status_requests_));
  requests.set("cancel", u(cancel_requests_));
  requests.set("shutdown", u(shutdown_requests_));
  o.set("requests", requests);

  JsonValue responses = JsonValue::object();
  responses.set("ok", u(responses_ok_));
  responses.set("error", u(responses_error_));
  responses.set("overloaded", u(overloaded_));
  responses.set("shutting_down", u(shutting_down_));
  o.set("responses", responses);
}

JsonValue FrontEnd::connections_json() const {
  JsonValue connections = JsonValue::object();
  connections.set("accepted",
                  JsonValue::integer(static_cast<i64>(
                      connections_accepted_.load(std::memory_order_relaxed))));
  connections.set("open",
                  JsonValue::integer(static_cast<i64>(
                      connections_open_.load(std::memory_order_relaxed))));
  return connections;
}

}  // namespace buffy::service
