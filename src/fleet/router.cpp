#include "fleet/router.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <utility>

#include "base/diagnostics.hpp"
#include "base/rational.hpp"
#include "buffer/bounds.hpp"
#include "buffer/dse.hpp"
#include "buffer/dse_exact.hpp"
#include "buffer/pareto.hpp"
#include "exec/cancellation.hpp"
#include "exec/subprocess.hpp"
#include "service/cache_registry.hpp"
#include "service/protocol.hpp"
#include "service/requests.hpp"

namespace buffy::fleet {

using service::ErrorCode;
using service::FrontEnd;
using service::JsonValue;
using service::Request;

using Clock = std::chrono::steady_clock;

namespace {

/// An `overloaded` error response carrying the backpressure hint.
std::string overloaded_response(std::optional<i64> id,
                                const std::string& message,
                                i64 retry_after_ms) {
  JsonValue err = JsonValue::object();
  err.set("code", JsonValue::string(service::error_code_name(
                      ErrorCode::Overloaded)));
  err.set("message", JsonValue::string(message));
  err.set("retry_after_ms", JsonValue::integer(retry_after_ms));
  return service::error_response(id, err);
}

/// Rebuilds a worker response under the client's id (or without one),
/// preserving the id/ok/result|error member order the worker emits.
std::string rewrite_response_id(const JsonValue& doc,
                                std::optional<i64> client_id, bool* ok_out) {
  JsonValue out = JsonValue::object();
  if (client_id.has_value()) {
    out.set("id", JsonValue::integer(*client_id));
  }
  bool ok = false;
  if (const JsonValue* okv = doc.find("ok"); okv != nullptr && okv->is_bool()) {
    ok = okv->as_bool();
    out.set("ok", *okv);
  } else {
    out.set("ok", JsonValue::boolean(false));
  }
  if (const JsonValue* res = doc.find("result")) out.set("result", *res);
  if (const JsonValue* err = doc.find("error")) out.set("error", *err);
  if (ok_out != nullptr) *ok_out = ok;
  return out.dump();
}

const char* format_name(service::GraphFormat format) {
  switch (format) {
    case service::GraphFormat::Dsl:
      return "dsl";
    case service::GraphFormat::Xml:
      return "xml";
    case service::GraphFormat::Auto:
      break;
  }
  return "auto";
}

/// Worker-reported error on a scattered slice, forwarded to the client
/// with the worker's structured code preserved.
struct ScatterFailure {
  std::string code;
  std::string message;
};

std::string scatter_error_response(std::optional<i64> id,
                                   const ScatterFailure& failure) {
  JsonValue err = JsonValue::object();
  err.set("code", JsonValue::string(failure.code));
  err.set("message", JsonValue::string(failure.message));
  return service::error_response(id, err);
}

/// One per-size outcome received from a worker (the remote SizeOutcome).
struct SliceResult {
  Rational throughput;
  std::vector<i64> capacities;
  u64 distributions_explored = 0;
  u64 max_states_stored = 0;
  u64 simulations_run = 0;
  u64 cache_hits = 0;
  u64 dominance_skips = 0;
  u64 lp_prunes = 0;
  u64 lp_cuts = 0;
  bool static_narrow = false;
  bool cached_graph = false;
};

u64 result_u64(const JsonValue& result, const char* key) {
  const JsonValue* v = result.find(key);
  return v != nullptr && v->is_int() ? static_cast<u64>(v->as_int()) : 0;
}

SliceResult parse_slice_result(const JsonValue& result) {
  SliceResult out;
  const JsonValue* tput = result.find("throughput");
  const JsonValue* caps = result.find("capacities");
  if (tput == nullptr || !tput->is_string() || caps == nullptr ||
      !caps->is_array()) {
    throw ScatterFailure{"internal_error",
                         "worker returned a malformed slice result"};
  }
  out.throughput = parse_rational(tput->as_string());
  for (const JsonValue& c : caps->as_array()) {
    if (!c.is_int()) {
      throw ScatterFailure{"internal_error",
                           "worker returned non-integer slice capacities"};
    }
    out.capacities.push_back(c.as_int());
  }
  out.distributions_explored = result_u64(result, "distributions_explored");
  out.max_states_stored = result_u64(result, "max_states_stored");
  out.simulations_run = result_u64(result, "simulations_run");
  out.cache_hits = result_u64(result, "cache_hits");
  out.dominance_skips = result_u64(result, "dominance_skips");
  out.lp_prunes = result_u64(result, "lp_prunes");
  out.lp_cuts = result_u64(result, "lp_cuts");
  const JsonValue* narrow = result.find("static_narrow");
  out.static_narrow = narrow != nullptr && narrow->is_bool() &&
                      narrow->as_bool();
  const JsonValue* cached = result.find("cached_graph");
  out.cached_graph = cached != nullptr && cached->is_bool() &&
                     cached->as_bool();
  return out;
}

}  // namespace

/// Worker replies as the router's dispatch layer sees them: a protocol
/// response line, the worker died with the request in flight, or the
/// router-side deadline backstop fired (stalled worker).
struct Router::Reply {
  enum class Kind { Response, Lost, Deadline };
  Kind kind = Kind::Lost;
  JsonValue doc;  ///< The parsed response object when kind == Response.
};

/// One worker process slot of the fleet. All mutable state is guarded by
/// `mu`; reply callbacks are always invoked with `mu` released.
struct Router::Shard {
  enum class State { Down, Starting, Up };

  unsigned index = 0;
  std::string socket_path;

  mutable std::mutex mu;
  exec::Subprocess proc;
  int fd = -1;
  State state = State::Down;
  /// Bumped on every teardown; late replies and the previous reader
  /// epoch's exit report are matched against it and dropped when stale.
  u64 epoch = 0;
  bool conn_broken = false;
  bool spawned_before = false;
  u64 restarts = 0;
  exec::ExponentialBackoff backoff;
  Clock::time_point respawn_at{};
  Clock::time_point spawn_started{};
  bool ping_inflight = false;
  Clock::time_point last_ping{};
  /// Reset the backoff on the first health pong of this epoch: the worker
  /// demonstrably serves requests, so the next crash is a fresh incident.
  bool backoff_reset_pending = false;
  /// Outstanding client work on this shard (the bounded "queue": past
  /// shard_queue_capacity new requests are answered `overloaded`).
  u64 inflight_jobs = 0;

  struct Pending {
    std::function<void(Reply)> fn;
    std::optional<Clock::time_point> deadline;
    bool job = false;
  };
  std::map<i64, Pending> pending;
  std::thread reader;

  JsonValue last_status;
  bool has_status = false;

  Shard(i64 backoff_base_ms, i64 backoff_max_ms)
      : backoff(backoff_base_ms, backoff_max_ms) {}
};

/// Everything a scatter exploration needs off the reader thread.
class Router::ScatterJob {
 public:
  Request req;
  std::optional<i64> client_id;
  sdf::Graph graph;
  sdf::ActorId target;
  /// The client-cancellable parent (cancel requests fire this) and the
  /// deadline-composed token the wave loop polls.
  exec::CancellationToken parent;
  exec::CancellationToken token;
  std::optional<Clock::time_point> deadline;
};

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      // Admission is per shard (dispatch_forward), so the front-end's own
      // job bound never refuses a request.
      front_(options_, "router", std::numeric_limits<u64>::max(), *this) {
  BUFFY_REQUIRE(options_.workers >= 1, "RouterOptions::workers must be >= 1");
  BUFFY_REQUIRE(!options_.worker_binary.empty(),
                "RouterOptions::worker_binary must name the buffyd binary");
  BUFFY_REQUIRE(!options_.runtime_dir.empty(),
                "RouterOptions::runtime_dir must be set");
  BUFFY_REQUIRE(options_.shard_queue_capacity >= 1,
                "RouterOptions::shard_queue_capacity must be >= 1");
  for (unsigned i = 0; i < options_.workers; ++i) {
    auto shard = std::make_unique<Shard>(options_.backoff_base_ms,
                                         options_.backoff_max_ms);
    shard->index = i;
    shard->socket_path =
        options_.runtime_dir + "/worker-" + std::to_string(i) + ".sock";
    BUFFY_REQUIRE(shard->socket_path.size() < sizeof(sockaddr_un{}.sun_path),
                  "runtime_dir produces worker socket paths longer than "
                  "sockaddr_un allows");
    shards_.push_back(std::move(shard));
  }
}

Router::~Router() {
  shutdown();
  wait();
}

unsigned Router::num_workers() const {
  return static_cast<unsigned>(shards_.size());
}

unsigned Router::shard_of(u64 fingerprint) const {
  return static_cast<unsigned>(fingerprint % shards_.size());
}

i64 Router::worker_pid(unsigned index) const {
  BUFFY_REQUIRE(index < shards_.size(), "worker_pid: shard out of range");
  const Shard& s = *shards_[index];
  const std::lock_guard<std::mutex> lock(s.mu);
  return s.proc.valid() ? static_cast<i64>(s.proc.pid()) : -1;
}

u64 Router::worker_restarts(unsigned index) const {
  BUFFY_REQUIRE(index < shards_.size(), "worker_restarts: shard out of range");
  const Shard& s = *shards_[index];
  const std::lock_guard<std::mutex> lock(s.mu);
  return s.restarts;
}

void Router::start() {
  ::mkdir(options_.runtime_dir.c_str(), 0700);  // may already exist
  front_.start();
  supervisor_ = std::thread([this] { supervisor_loop(); });
}

void Router::shutdown() {
  front_.shutdown();
  sup_cv_.notify_all();
}

void Router::wait() {
  if (!front_.wait_drained()) return;
  // The supervisor noticed the drain and waited for in-flight worker
  // traffic to settle; it shuts the fleet down and exits. Every reply
  // callback has run once it joined, so no job can touch a connection
  // when the front-end closes them.
  if (supervisor_.joinable()) supervisor_.join();
  front_.close();
}

// ---------------------------------------------------------------------------
// Worker supervision

void Router::spawn_worker(Shard& s) {  // requires s.mu held
  const std::vector<std::string> argv = {
      options_.worker_binary,
      "--socket",
      s.socket_path,
      "--threads",
      std::to_string(options_.worker_threads),
      "--queue",
      std::to_string(options_.worker_queue_capacity),
  };
  ::unlink(s.socket_path.c_str());  // never connect to a dead worker's socket
  try {
    s.proc = exec::Subprocess::spawn(argv);
  } catch (const Error&) {
    s.state = Shard::State::Down;
    s.respawn_at = Clock::now() +
                   std::chrono::milliseconds(s.backoff.next_ms());
    return;
  }
  if (s.spawned_before) {
    ++s.restarts;
    worker_restarts_total_.fetch_add(1, std::memory_order_relaxed);
  }
  s.spawned_before = true;
  s.backoff_reset_pending = true;
  s.state = Shard::State::Starting;
  s.spawn_started = Clock::now();
}

void Router::teardown_worker(Shard& s, bool kill) {
  std::thread reader;
  int fd = -1;
  std::vector<std::function<void(Reply)>> lost;
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    if (kill && s.proc.valid()) {
      s.proc.kill(SIGKILL);
      s.proc.wait();
    }
    fd = s.fd;
    s.fd = -1;
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);  // wakes the blocked reader
    ++s.epoch;
    s.conn_broken = false;
    s.ping_inflight = false;
    s.has_status = false;
    s.state = Shard::State::Down;
    s.respawn_at = Clock::now() +
                   std::chrono::milliseconds(s.backoff.next_ms());
    for (auto& [id, pending] : s.pending) {
      lost.push_back(std::move(pending.fn));
      if (pending.job) --s.inflight_jobs;
    }
    s.pending.clear();
    reader = std::move(s.reader);
  }
  if (reader.joinable()) reader.join();
  if (fd >= 0) ::close(fd);
  for (auto& fn : lost) fn(Reply{Reply::Kind::Lost, {}});
}

void Router::shard_tick(Shard& s) {
  const auto now = Clock::now();
  bool dead = false;
  bool stalled = false;
  bool broken = false;
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    if (s.proc.valid() && s.proc.try_wait().has_value()) dead = true;
    broken = s.conn_broken;
    if (s.state == Shard::State::Up && s.ping_inflight &&
        now - s.last_ping >
            std::chrono::milliseconds(options_.health_timeout_ms)) {
      stalled = true;  // the worker stopped answering: SIGKILL + respawn
    }
    if (s.state == Shard::State::Starting &&
        now - s.spawn_started > std::chrono::seconds(10)) {
      stalled = true;  // spawned but never came up
    }
  }
  if (dead || broken || stalled) {
    teardown_worker(s, /*kill=*/!dead);
    return;
  }

  std::vector<std::function<void(Reply)>> expired;
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    switch (s.state) {
      case Shard::State::Down:
        if (!front_.draining() && now >= s.respawn_at) {
          spawn_worker(s);
        }
        break;
      case Shard::State::Starting: {
        // One connect attempt per tick until the worker has bound its
        // socket; ENOENT/ECONNREFUSED just mean "not yet". The path fits
        // sun_path (checked in the constructor).
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, s.socket_path.c_str(),
                    s.socket_path.size() + 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) break;
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
          ::close(fd);
          break;
        }
        // A stalled worker must not wedge senders: bound every send by the
        // health timeout, after which the send fails and the shard is torn
        // down (the request is re-dispatched by its owner).
        timeval tv{};
        tv.tv_sec = options_.health_timeout_ms / 1000;
        tv.tv_usec = static_cast<suseconds_t>(
            (options_.health_timeout_ms % 1000) * 1000);
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        s.fd = fd;
        s.state = Shard::State::Up;
        s.conn_broken = false;
        s.ping_inflight = false;
        s.last_ping = now - std::chrono::milliseconds(
                                options_.health_interval_ms);
        Shard* sp = &s;
        const u64 epoch = s.epoch;
        s.reader = std::thread(
            [this, sp, fd, epoch] { worker_reader_loop(sp, fd, epoch); });
        break;
      }
      case Shard::State::Up: {
        if (!s.ping_inflight &&
            now - s.last_ping >=
                std::chrono::milliseconds(options_.health_interval_ms)) {
          JsonValue ping = JsonValue::object();
          ping.set("method", JsonValue::string("status"));
          s.ping_inflight = true;
          s.last_ping = now;
          Shard* sp = &s;
          // No pending deadline on pings: stall detection is exactly
          // "ping_inflight for longer than the health timeout".
          send_to_shard_locked(
              s, std::move(ping), /*counts_as_job=*/false, std::nullopt,
              [sp](Reply reply) {
                const std::lock_guard<std::mutex> lock(sp->mu);
                sp->ping_inflight = false;
                if (reply.kind != Reply::Kind::Response) return;
                if (const JsonValue* res = reply.doc.find("result")) {
                  sp->last_status = *res;
                  sp->has_status = true;
                }
                if (sp->backoff_reset_pending) {
                  sp->backoff.reset();
                  sp->backoff_reset_pending = false;
                }
              });
        }
        // Deadline backstop: a request on a stalled worker answers
        // deadline_exceeded instead of hanging the client forever.
        for (auto it = s.pending.begin(); it != s.pending.end();) {
          if (it->second.deadline.has_value() &&
              now >= *it->second.deadline) {
            expired.push_back(std::move(it->second.fn));
            if (it->second.job) --s.inflight_jobs;
            it = s.pending.erase(it);
          } else {
            ++it;
          }
        }
        break;
      }
    }
  }
  for (auto& fn : expired) fn(Reply{Reply::Kind::Deadline, {}});
}

void Router::supervisor_loop() {
  for (;;) {
    for (const std::unique_ptr<Shard>& shard : shards_) shard_tick(*shard);
    // Draining: keep the fleet alive until in-flight work delivered its
    // responses, then take it down.
    if (front_.draining() && front_.jobs_in_system() == 0) break;
    std::unique_lock<std::mutex> lock(sup_mu_);
    sup_cv_.wait_for(lock, std::chrono::milliseconds(20));
  }
  drain_workers();
}

void Router::drain_workers() {
  for (const std::unique_ptr<Shard>& sp : shards_) {
    Shard& s = *sp;
    const std::lock_guard<std::mutex> lock(s.mu);
    if (s.state == Shard::State::Up) {
      JsonValue sd = JsonValue::object();
      sd.set("method", JsonValue::string("shutdown"));
      send_to_shard_locked(s, std::move(sd), /*counts_as_job=*/false,
                           std::nullopt, [](Reply) {});
    }
  }
  const auto deadline = Clock::now() + std::chrono::seconds(3);
  for (const std::unique_ptr<Shard>& sp : shards_) {
    Shard& s = *sp;
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(s.mu);
        if (!s.proc.valid() || s.proc.try_wait().has_value()) break;
      }
      if (Clock::now() >= deadline) {
        const std::lock_guard<std::mutex> lock(s.mu);
        if (s.proc.valid()) {
          s.proc.kill(SIGKILL);
          s.proc.wait();
        }
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    teardown_worker(s, /*kill=*/false);
    ::unlink(s.socket_path.c_str());
  }
}

std::optional<i64> Router::send_to_shard_locked(
    Shard& s, JsonValue request, bool counts_as_job,
    std::optional<Clock::time_point> deadline,
    std::function<void(Reply)> on_reply) {
  if (s.state != Shard::State::Up || s.fd < 0) return std::nullopt;
  const i64 id = next_internal_id_.fetch_add(1, std::memory_order_relaxed);
  request.set("id", JsonValue::integer(id));
  std::string line = request.dump();
  s.pending.emplace(
      id, Shard::Pending{std::move(on_reply), deadline, counts_as_job});
  if (counts_as_job) ++s.inflight_jobs;
  if (!service::write_line(s.fd, std::move(line))) {
    // Send failure (including a SNDTIMEO expiry against a stalled
    // worker): this connection epoch is done for.
    const auto it = s.pending.find(id);
    if (it != s.pending.end()) {
      if (it->second.job) --s.inflight_jobs;
      s.pending.erase(it);
    }
    s.conn_broken = true;
    sup_cv_.notify_all();
    return std::nullopt;
  }
  return id;
}

void Router::worker_reader_loop(Shard* s, int fd, u64 epoch) {
  // EOF, a read error and an over-long reply all end this epoch's
  // connection the same way.
  (void)service::read_lines(
      fd, options_.max_request_bytes,
      [&](const std::string& line) { handle_worker_line(s, epoch, line); });
  {
    const std::lock_guard<std::mutex> lock(s->mu);
    if (s->epoch == epoch) s->conn_broken = true;
  }
  sup_cv_.notify_all();
}

void Router::handle_worker_line(Shard* s, u64 epoch, const std::string& line) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(line);
  } catch (const std::exception&) {
    const std::lock_guard<std::mutex> lock(s->mu);
    if (s->epoch == epoch) s->conn_broken = true;
    return;
  }
  const JsonValue* id = doc.find("id");
  if (id == nullptr || !id->is_int()) return;  // unsolicited; drop
  std::function<void(Reply)> fn;
  {
    const std::lock_guard<std::mutex> lock(s->mu);
    if (s->epoch != epoch) return;  // reply from a torn-down epoch
    const auto it = s->pending.find(id->as_int());
    if (it == s->pending.end()) return;  // already failed (lost/deadline)
    fn = std::move(it->second.fn);
    if (it->second.job) --s->inflight_jobs;
    s->pending.erase(it);
  }
  fn(Reply{Reply::Kind::Response, std::move(doc)});
}

// ---------------------------------------------------------------------------
// Client side

void Router::relay_cancel(Connection* conn, std::optional<i64> cancel_id,
                          const FrontEnd::Route& route) {
  JsonValue cancel = JsonValue::object();
  cancel.set("method", JsonValue::string("cancel"));
  cancel.set("target_id", JsonValue::integer(route.peer_id));
  Shard& s = *shards_[*route.peer];
  // The worker's answer comes back under the client's cancel id; a relay
  // holds the connection until that answer has been written. Without a
  // connection the client is gone: the worker just stops burning time on
  // its request (best effort) and the answer is dropped.
  if (conn != nullptr) front_.hold(*conn);
  const auto answer = [this, conn, cancel_id](Reply reply) {
    if (conn == nullptr) return;
    bool ok = true;
    std::string text;
    if (reply.kind == Reply::Kind::Response) {
      text = rewrite_response_id(reply.doc, cancel_id, &ok);
    } else {
      JsonValue result = JsonValue::object();
      result.set("cancelled", JsonValue::boolean(false));
      text = service::ok_response(cancel_id, result);
    }
    front_.respond(*conn, std::move(text), ok);
    front_.finish_job(*conn);
  };
  bool sent = false;
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    sent = send_to_shard_locked(
               s, std::move(cancel), /*counts_as_job=*/false,
               Clock::now() +
                   std::chrono::milliseconds(options_.health_timeout_ms),
               answer)
               .has_value();
  }
  if (!sent) answer(Reply{Reply::Kind::Lost, {}});
}

void Router::submit(Connection& conn, Request req, const std::string& line) {
  // Affinity routing: the graph's fingerprint picks its home shard, so
  // repeated queries on one graph hit the same worker's warm caches. The
  // parse also surfaces payload diagnostics before any worker is bothered.
  sdf::Graph graph;
  sdf::ActorId target;
  u64 fingerprint = 0;
  try {
    graph = service::parse_graph(req);
    target = service::resolve_target(graph, req.target);
    fingerprint =
        service::graph_fingerprint(graph, graph.actor(target).name);
  } catch (const std::exception&) {
    front_.respond(conn,
                   service::current_error_response(
                       req.id, exec::CancellationToken(),
                       "the request deadline expired"),
                   /*ok=*/false);
    front_.finish_job(conn);
    return;
  }

  std::optional<i64> deadline_ms = req.deadline_ms;
  if (!deadline_ms.has_value() && options_.default_deadline_ms > 0) {
    deadline_ms = options_.default_deadline_ms;
  }

  const bool scatter = req.method == service::Method::ExplorePareto &&
                       req.scatter &&
                       req.engine == std::optional<std::string>("exh") &&
                       req.quality != std::optional<std::string>("fast");
  if (scatter) {
    scatter_requests_.fetch_add(1, std::memory_order_relaxed);
    auto job = std::make_shared<ScatterJob>();
    job->req = std::move(req);
    job->client_id = job->req.id;
    job->graph = std::move(graph);
    job->target = target;
    job->parent = exec::CancellationToken::cancellable();
    job->token = deadline_ms.has_value()
                     ? job->parent.with_deadline(*deadline_ms)
                     : job->parent;
    if (deadline_ms.has_value()) {
      job->deadline =
          Clock::now() + std::chrono::milliseconds(*deadline_ms);
    }
    if (job->client_id.has_value()) {
      conn.add_route(*job->client_id, FrontEnd::Route{.token = job->parent});
    }
    std::thread([this, c = &conn, job] {
      scatter_explore(c, job);
      if (job->client_id.has_value()) c->drop_route(*job->client_id);
      front_.finish_job(*c);
    }).detach();
    return;
  }

  forwarded_.fetch_add(1, std::memory_order_relaxed);
  ForwardPlan plan;
  plan.home = shard_of(fingerprint);
  plan.client_id = req.id;
  if (deadline_ms.has_value()) {
    // Small grace on top of the worker-enforced deadline so the worker's
    // own deadline_exceeded response normally wins the race.
    plan.deadline = Clock::now() +
                    std::chrono::milliseconds(*deadline_ms + 250);
  }
  auto doc = std::make_shared<JsonValue>(JsonValue::parse(line));
  dispatch_forward(&conn, std::move(doc), plan);
}

void Router::dispatch_forward(Connection* conn,
                              std::shared_ptr<JsonValue> doc,
                              ForwardPlan plan) {
  const unsigned n = num_workers();
  bool saw_full_queue = false;
  for (unsigned k = 0; k < n; ++k) {
    Shard& s = *shards_[(plan.home + k) % n];
    std::optional<i64> internal;
    {
      const std::lock_guard<std::mutex> lock(s.mu);
      if (s.state != Shard::State::Up) continue;
      if (s.inflight_jobs >= options_.shard_queue_capacity) {
        saw_full_queue = true;
        continue;
      }
      const std::optional<i64> client_id = plan.client_id;
      internal = send_to_shard_locked(
          s, *doc, /*counts_as_job=*/true, plan.deadline,
          [this, conn, doc, plan](Reply reply) {
            if (reply.kind == Reply::Kind::Lost && plan.attempts > 0 &&
                conn->open.load(std::memory_order_relaxed)) {
              // The worker died with the request in flight; the analyses
              // are pure, so replaying on a live shard is safe and
              // invisible to the client.
              redispatches_.fetch_add(1, std::memory_order_relaxed);
              ForwardPlan retry = plan;
              --retry.attempts;
              dispatch_forward(conn, doc, retry);
              return;
            }
            if (plan.client_id.has_value()) conn->drop_route(*plan.client_id);
            bool ok = false;
            std::string text =
                reply.kind == Reply::Kind::Response
                    ? rewrite_response_id(reply.doc, plan.client_id, &ok)
                : reply.kind == Reply::Kind::Lost
                    ? service::error_response(
                          plan.client_id, ErrorCode::InternalError,
                          "the worker serving this request died")
                    : service::error_response(plan.client_id,
                                              ErrorCode::DeadlineExceeded,
                                              "the request deadline expired");
            front_.respond(*conn, std::move(text), ok);
            front_.finish_job(*conn);
          });
      if (internal.has_value() && client_id.has_value()) {
        conn->add_route(*client_id, FrontEnd::Route{.peer = s.index,
                                                    .peer_id = *internal});
      }
    }
    if (internal.has_value()) return;
  }
  // No shard accepted: structured backpressure with a retry hint.
  front_.count_overloaded();
  if (plan.client_id.has_value()) conn->drop_route(*plan.client_id);
  front_.respond(*conn,
                 overloaded_response(
                     plan.client_id,
                     saw_full_queue ? "every shard queue is at capacity; retry"
                                    : "no worker is available; retry",
                     saw_full_queue ? 100 : 250),
                 /*ok=*/false);
  front_.finish_job(*conn);
}

// ---------------------------------------------------------------------------
// Scatter: router-driven divide and conquer over the size dimension

void Router::scatter_explore(Connection* conn,
                             std::shared_ptr<ScatterJob> job) {
  // Rendezvous for one dispatched slice: the reply callback fills it, the
  // scatter thread waits on it. Function-local so it can name the private
  // Reply type.
  struct SliceCall {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Reply reply;
  };
  const auto t0 = Clock::now();
  const Request& req = job->req;
  try {
    service::admit_magnitudes(job->graph);
    job->token.checkpoint();

    // Engine-effective options, exactly as buffer::explore derives them
    // before dispatching to the exhaustive engine — the other half of
    // this preprocessing runs in every worker's handle_explore_slice, so
    // both sides plan over identical state (the byte-identity contract).
    buffer::DseOptions opts;
    opts.target = job->target;
    opts.engine = buffer::DseEngine::Exhaustive;
    opts.quantization_levels = req.levels;
    opts.max_distribution_size = req.max_size;
    opts.throughput_goal = req.goal;
    opts.min_throughput = req.min_throughput;
    const buffer::DesignSpaceBounds bounds = buffer::design_space_bounds(
        job->graph, job->target, opts.max_steps_per_run, nullptr);

    // A graph that deadlocks for every distribution has no slice to
    // evaluate: the answer is the empty front with zero counters, exactly
    // as a single process reports it.
    std::map<i64, SliceResult> evaluated;
    unsigned waves = 0;
    u64 slices_total = 0;
    if (!bounds.deadlock) {
      buffer::apply_quantization_levels(opts, bounds);
      const buffer::SlicePlan plan =
          buffer::exhaustive_slice_plan(job->graph, opts, bounds);

      // One wave item = one explore_slice request; `call` is its rendezvous.
      struct WaveItem {
        i64 size = 0;
        std::optional<std::vector<i64>> seed;
        Rational goal;
        std::shared_ptr<SliceCall> call;
      };

      const auto make_request = [&](const WaveItem& item) {
        JsonValue r = JsonValue::object();
        r.set("method", JsonValue::string("explore_slice"));
        r.set("graph", JsonValue::string(req.graph_text));
        r.set("format", JsonValue::string(format_name(req.format)));
        if (!req.target.empty()) {
          r.set("target", JsonValue::string(req.target));
        }
        r.set("engine", JsonValue::string("exh"));
        if (req.levels.has_value()) {
          r.set("levels", JsonValue::integer(*req.levels));
        }
        if (req.max_size.has_value()) {
          r.set("max_size", JsonValue::integer(*req.max_size));
        }
        if (req.goal.has_value()) {
          r.set("goal", JsonValue::string(req.goal->str()));
        }
        r.set("cache", JsonValue::boolean(req.use_cache));
        r.set("size", JsonValue::integer(item.size));
        r.set("slice_goal", JsonValue::string(item.goal.str()));
        if (item.seed.has_value()) {
          JsonValue seed = JsonValue::array();
          for (const i64 c : *item.seed) {
            seed.push_back(JsonValue::integer(c));
          }
          r.set("seed", seed);
        }
        if (job->deadline.has_value()) {
          const auto remaining =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  *job->deadline - Clock::now())
                  .count();
          r.set("deadline_ms", JsonValue::integer(std::max<i64>(remaining, 1)));
        }
        return r;
      };

      // Dispatches one slice to some Up shard, round-robin; nullptr when no
      // shard currently accepts (the caller retries with backoff).
      const auto try_dispatch =
          [&](const WaveItem& item) -> std::shared_ptr<SliceCall> {
        const unsigned n = num_workers();
        const unsigned start =
            round_robin_.fetch_add(1, std::memory_order_relaxed) % n;
        for (unsigned k = 0; k < n; ++k) {
          Shard& s = *shards_[(start + k) % n];
          auto call = std::make_shared<SliceCall>();
          const std::lock_guard<std::mutex> lock(s.mu);
          if (s.state != Shard::State::Up) continue;
          const std::optional<i64> sent = send_to_shard_locked(
              s, make_request(item), /*counts_as_job=*/true,
              job->deadline.has_value()
                  ? std::optional<Clock::time_point>(*job->deadline +
                                                     std::chrono::milliseconds(
                                                         250))
                  : std::nullopt,
              [call](Reply reply) {
                {
                  const std::lock_guard<std::mutex> lock(call->mu);
                  call->reply = std::move(reply);
                  call->done = true;
                }
                call->cv.notify_all();
              });
          if (sent.has_value()) return call;
        }
        return nullptr;
      };

      const auto await = [&](const std::shared_ptr<SliceCall>& call) {
        std::unique_lock<std::mutex> lock(call->mu);
        while (!call->done) {
          call->cv.wait_for(lock, std::chrono::milliseconds(50));
          if (!call->done) job->token.checkpoint();
        }
        return std::move(call->reply);
      };

      // Dispatches a whole wave, invokes the fault-injection hook, then
      // collects outcomes — re-dispatching any slice its worker took to the
      // grave. Lost slices are safe to replay: a slice outcome is a pure
      // function of its request (buffer::explore_size_slice).
      const auto run_wave = [&](std::vector<WaveItem>& items) {
        job->token.checkpoint();
        for (WaveItem& item : items) item.call = try_dispatch(item);
        if (options_.after_wave_dispatch) {
          options_.after_wave_dispatch(waves, items.size());
        }
        ++waves;
        slices_total += items.size();
        for (WaveItem& item : items) {
          for (;;) {
            if (item.call == nullptr) {
              job->token.checkpoint();
              item.call = try_dispatch(item);
              if (item.call == nullptr) {
                // No worker is up (crash storm): wait out a respawn.
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                continue;
              }
            }
            Reply reply = await(item.call);
            if (reply.kind == Reply::Kind::Lost) {
              redispatches_.fetch_add(1, std::memory_order_relaxed);
              item.call = nullptr;
              continue;
            }
            if (reply.kind == Reply::Kind::Deadline) {
              throw ScatterFailure{
                  service::error_code_name(ErrorCode::DeadlineExceeded),
                  "the request deadline expired"};
            }
            const JsonValue* ok = reply.doc.find("ok");
            if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
              ScatterFailure failure{"internal_error",
                                     "worker returned a malformed response"};
              if (const JsonValue* err = reply.doc.find("error")) {
                if (const JsonValue* code = err->find("code");
                    code != nullptr && code->is_string()) {
                  failure.code = code->as_string();
                }
                if (const JsonValue* message = err->find("message");
                    message != nullptr && message->is_string()) {
                  failure.message = message->as_string();
                }
              }
              throw failure;
            }
            const JsonValue* result = reply.doc.find("result");
            if (result == nullptr) {
              throw ScatterFailure{"internal_error",
                                   "worker response carries no result"};
            }
            evaluated.emplace(item.size, parse_slice_result(*result));
            break;
          }
        }
      };

      if (plan.hi_size >= plan.lo_size) {
        // Wave 0: the interval endpoints (the sequential driver's first two
        // evaluations; one slice when the interval is degenerate).
        std::vector<WaveItem> endpoints;
        endpoints.push_back(
            WaveItem{plan.lo_size, std::nullopt, plan.goal, {}});
        if (plan.hi_size != plan.lo_size) {
          endpoints.push_back(
              WaveItem{plan.hi_size, plan.top_seed, plan.goal, {}});
        }
        run_wave(endpoints);

        // Breadth-first over the interval tree: all of one depth's mids go
        // out as a single wave. The memoised sequential driver evaluates
        // exactly the same (size, seed, slice_goal) triples — outcomes are
        // pure per size, so the fold below is byte-identical to it.
        std::vector<std::pair<i64, i64>> intervals{
            {plan.lo_size, plan.hi_size}};
        while (!intervals.empty()) {
          std::vector<WaveItem> items;
          std::vector<std::pair<i64, i64>> next;
          for (const auto& [lo, hi] : intervals) {
            if (hi - lo <= 1) continue;
            const SliceResult& at_lo = evaluated.at(lo);
            const SliceResult& at_hi = evaluated.at(hi);
            if (at_lo.throughput == at_hi.throughput ||
                at_lo.throughput >= plan.goal) {
              continue;  // no further Pareto point inside (monotonicity)
            }
            const i64 mid = lo + (hi - lo) / 2;
            items.push_back(WaveItem{
                mid, buffer::pad_to_size(plan, at_lo.capacities, mid),
                std::min(plan.goal, at_hi.throughput), {}});
            next.emplace_back(lo, mid);
            next.emplace_back(mid, hi);
          }
          if (!items.empty()) run_wave(items);
          intervals = std::move(next);
        }
      }
    }

    // Fold in increasing size order — the same order the sequential
    // driver folds its memo map — then apply the same min_throughput
    // post-filter buffer::explore applies.
    buffer::ParetoSet pareto;
    for (const auto& [size, outcome] : evaluated) {
      pareto.add(buffer::ParetoPoint{
          buffer::StorageDistribution(outcome.capacities),
          outcome.throughput});
    }
    if (req.min_throughput.has_value()) {
      buffer::ParetoSet filtered;
      for (const buffer::ParetoPoint& p : pareto.points()) {
        if (p.throughput >= *req.min_throughput) filtered.add(p);
      }
      pareto = std::move(filtered);
    }

    u64 explored = 0, sims = 0, cache_hits = 0, dom = 0, lp_prunes = 0;
    u64 states = 0, lp_cuts = 0;
    bool static_narrow = !evaluated.empty();
    bool cached_graph = false;
    for (const auto& [size, outcome] : evaluated) {
      explored += outcome.distributions_explored;
      sims += outcome.simulations_run;
      cache_hits += outcome.cache_hits;
      dom += outcome.dominance_skips;
      lp_prunes += outcome.lp_prunes;
      states = std::max(states, outcome.max_states_stored);
      lp_cuts = std::max(lp_cuts, outcome.lp_cuts);
      static_narrow = static_narrow && outcome.static_narrow;
      cached_graph = cached_graph || outcome.cached_graph;
    }

    JsonValue res = JsonValue::object();
    res.set("target",
            JsonValue::string(job->graph.actor(job->target).name));
    res.set("quality", JsonValue::string("exact"));
    // `front` matches a single-process buffyd byte-for-byte — the fleet
    // tests assert exactly that.
    service::set_front(res, bounds, pareto);
    res.set("distributions_explored",
            JsonValue::integer(static_cast<i64>(explored)));
    res.set("simulations_run", JsonValue::integer(static_cast<i64>(sims)));
    res.set("cache_hits", JsonValue::integer(static_cast<i64>(cache_hits)));
    res.set("dominance_skips", JsonValue::integer(static_cast<i64>(dom)));
    res.set("lp_prunes", JsonValue::integer(static_cast<i64>(lp_prunes)));
    res.set("lp_cuts", JsonValue::integer(static_cast<i64>(lp_cuts)));
    res.set("static_narrow", JsonValue::boolean(static_narrow));
    res.set("max_states_stored",
            JsonValue::integer(static_cast<i64>(states)));
    res.set("seconds",
            JsonValue::number(
                std::chrono::duration<double>(Clock::now() - t0).count()));
    res.set("cached_graph", JsonValue::boolean(cached_graph));
    res.set("scattered", JsonValue::boolean(true));
    res.set("waves", JsonValue::integer(waves));
    res.set("slices", JsonValue::integer(static_cast<i64>(slices_total)));
    front_.respond(*conn, service::ok_response(job->client_id, res),
                   /*ok=*/true);
  } catch (const ScatterFailure& failure) {
    front_.respond(*conn, scatter_error_response(job->client_id, failure),
                   /*ok=*/false);
  } catch (const std::exception&) {
    front_.respond(*conn,
                   service::current_error_response(
                       job->client_id, job->parent,
                       "the request deadline expired"),
                   /*ok=*/false);
  }
}

// ---------------------------------------------------------------------------
// Status

JsonValue Router::status_json() const {
  const auto u = [](u64 v) { return JsonValue::integer(static_cast<i64>(v)); };
  JsonValue o = JsonValue::object();
  o.set("role", JsonValue::string("router"));
  front_.write_status(
      o, {{"scatter", scatter_requests_.load(std::memory_order_relaxed)}});
  o.set("connections", front_.connections_json());

  JsonValue fleet = JsonValue::object();
  fleet.set("workers", u(shards_.size()));
  fleet.set("forwarded", u(forwarded_.load(std::memory_order_relaxed)));
  fleet.set("redispatches", u(redispatches_.load(std::memory_order_relaxed)));
  fleet.set("restarts_total",
            u(worker_restarts_total_.load(std::memory_order_relaxed)));
  fleet.set("shard_queue_capacity", u(options_.shard_queue_capacity));

  unsigned up = 0;
  JsonValue shards = JsonValue::array();
  for (const std::unique_ptr<Shard>& sp : shards_) {
    const Shard& s = *sp;
    const std::lock_guard<std::mutex> lock(s.mu);
    if (s.state == Shard::State::Up) ++up;
    JsonValue shard = JsonValue::object();
    shard.set("index", u(s.index));
    shard.set("pid",
              JsonValue::integer(s.proc.valid()
                                     ? static_cast<i64>(s.proc.pid())
                                     : -1));
    const char* state = s.state == Shard::State::Up         ? "up"
                        : s.state == Shard::State::Starting ? "starting"
                                                            : "down";
    shard.set("state", JsonValue::string(state));
    shard.set("restarts", u(s.restarts));
    shard.set("queue_depth", u(s.inflight_jobs));
    shard.set("inflight", u(s.pending.size()));
    // The worker's own status result (cache occupancy, request counters),
    // as of its last health pong — the observability hook the fleet tests
    // use to assert cache affinity from the outside.
    shard.set("worker", s.has_status ? s.last_status : JsonValue());
    shards.push_back(std::move(shard));
  }
  fleet.set("up", u(up));
  o.set("fleet", fleet);
  o.set("shards", shards);
  return o;
}

}  // namespace buffy::fleet
