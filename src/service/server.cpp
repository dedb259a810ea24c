#include "service/server.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "analysis/max_throughput.hpp"
#include "base/audit.hpp"
#include "base/diagnostics.hpp"
#include "base/hash.hpp"
#include "buffer/dse.hpp"
#include "buffer/dse_exact.hpp"
#include "buffer/fast_front.hpp"
#include "service/requests.hpp"
#include "state/throughput.hpp"

namespace buffy::service {

namespace {

// The front memo's key: every request member the engine reads (the graph
// and the target are the registry entry's), and whether a fast request was
// downgraded, which the answer reports.
std::string memo_key(const buffer::DseOptions& opts, bool downgraded) {
  const auto num = [](const std::optional<i64>& v) {
    return v.has_value() ? std::to_string(*v) : std::string("-");
  };
  const auto rat = [](const std::optional<Rational>& v) {
    return v.has_value() ? v->str() : std::string("-");
  };
  return std::string(opts.engine == buffer::DseEngine::Exhaustive ? "exh"
                                                                  : "inc") +
         " levels=" + num(opts.quantization_levels) +
         " max_size=" + num(opts.max_distribution_size) +
         " goal=" + rat(opts.throughput_goal) +
         " min=" + rat(opts.min_throughput) +
         (downgraded ? " downgraded" : "");
}

// The members of an exact answer that depend only on the request, in wire
// order: what the front memo keeps.
JsonValue exact_front(const std::string& target, bool downgraded,
                      const buffer::DseResult& result) {
  JsonValue res = JsonValue::object();
  res.set("target", JsonValue::string(target));
  res.set("quality", JsonValue::string("exact"));
  if (downgraded) res.set("downgraded", JsonValue::boolean(true));
  set_front(res, result.bounds, result.pareto);
  res.set("distributions_explored",
          JsonValue::integer(static_cast<i64>(result.distributions_explored)));
  return res;
}

// The work the request itself did, and whether the graph was warm.
void set_work(JsonValue& res, const buffer::DseResult& result, bool warm) {
  const auto u = [](u64 v) { return JsonValue::integer(static_cast<i64>(v)); };
  res.set("simulations_run", u(result.simulations_run));
  res.set("cache_hits", u(result.cache_hits));
  res.set("box_hits", u(result.box_hits));
  res.set("dominance_skips", u(result.dominance_skips));
  res.set("lp_prunes", u(result.lp_prunes));
  res.set("lp_cuts", u(result.lp_cuts));
  res.set("static_narrow", JsonValue::boolean(result.static_narrow));
  res.set("max_states_stored", u(result.max_states_stored));
  res.set("seconds", JsonValue::number(result.seconds));
  res.set("cached_graph", JsonValue::boolean(warm));
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      pool_(std::make_unique<exec::ThreadPool>(
          options_.threads == 0 ? exec::ThreadPool::default_concurrency()
                                : options_.threads)),
      registry_(options_.cache_graphs, options_.cache_entries_per_graph),
      front_(options_, "daemon", options_.queue_capacity, *this) {
  BUFFY_REQUIRE(options_.queue_capacity > 0,
                "ServerOptions::queue_capacity must be >= 1");
}

Server::~Server() {
  shutdown();
  wait();
}

void Server::wait() {
  if (!front_.wait_drained()) return;
  front_.close();
  pool_->stop();
}

void Server::submit(Connection& conn, Request req, const std::string&) {
  jobs_queued_.fetch_add(1, std::memory_order_relaxed);
  // `parent` is the explicit-cancellation root: a `cancel` request or a
  // client disconnect fires it. Deadlines are layered on top inside
  // run_job, so run_job can tell the two apart afterwards.
  const exec::CancellationToken parent = exec::CancellationToken::cancellable();
  if (req.id.has_value()) {
    conn.add_route(*req.id, FrontEnd::Route{.token = parent});
  }
  pool_->submit([this, c = &conn, req = std::move(req), parent] {
    run_job(c, req, parent);
  });
}

void Server::run_job(Connection* conn, const Request& req,
                     const exec::CancellationToken& parent) {
  jobs_queued_.fetch_sub(1, std::memory_order_relaxed);
  jobs_running_.fetch_add(1, std::memory_order_relaxed);

  std::string response;
  bool ok = false;
  if (front_.draining()) {
    // Start gate: the job was queued before the drain began but never
    // started — the protocol's promise is shutting_down, not a result.
    front_.count_shutting_down();
    response = error_response(req.id, ErrorCode::ShuttingDown,
                              "the daemon began draining before this "
                              "request started");
  } else {
    exec::CancellationToken token = parent;
    if (req.deadline_ms.has_value()) {
      token = parent.with_deadline(*req.deadline_ms);
    } else if (options_.default_deadline_ms > 0) {
      token = parent.with_deadline(options_.default_deadline_ms);
    }
    try {
      const JsonValue result =
          req.method == Method::AnalyzeThroughput
              ? handle_analyze(req, token)
              : req.method == Method::ExploreSlice
                    ? handle_explore_slice(req, token)
                    : handle_explore(req, token);
      response = ok_response(req.id, result);
      ok = true;
    } catch (const std::exception&) {
      response = current_error_response(
          req.id, parent,
          "the deadline expired before the analysis finished");
    }
  }
  front_.respond(*conn, std::move(response), ok);
  if (req.id.has_value()) conn->drop_route(*req.id);
  jobs_running_.fetch_sub(1, std::memory_order_relaxed);
  // Last touch of conn: once the jobs-in-system count hits zero the drain
  // may join readers and destroy every Connection.
  front_.finish_job(*conn);
}

JsonValue Server::handle_analyze(const Request& req,
                                 const exec::CancellationToken& token) {
  token.checkpoint();
  const sdf::Graph graph = parse_graph(req);
  const sdf::ActorId target = resolve_target(graph, req.target);
  admit_magnitudes(graph);
  token.checkpoint();

  JsonValue result = JsonValue::object();
  result.set("target", JsonValue::string(graph.actor(target).name));
  if (req.capacities.empty()) {
    // Maximal achievable throughput: the MCM route (HSDF expansion), the
    // reference the state-space engines are differentially tested against.
    // A resident registry entry already holds it; peeking never creates
    // one, so analyze requests cannot displace exact warm state.
    const std::shared_ptr<const GraphAnalysis> memo = registry_.peek(
        graph_key(graph, graph.actor(target).name), graph, target);
    const analysis::MaxThroughput mt =
        memo != nullptr ? memo->max_throughput
                        : analysis::max_throughput(graph);
    result.set("deadlock", JsonValue::boolean(mt.deadlock));
    result.set("throughput",
               JsonValue::string(mt.actor_throughput(target).str()));
    if (!mt.deadlock) {
      result.set("iteration_period",
                 JsonValue::string(mt.iteration_period.str()));
    }
  } else {
    if (req.capacities.size() != graph.num_channels()) {
      throw ProtocolError(
          ErrorCode::GraphInvalid,
          "'capacities' has " + std::to_string(req.capacities.size()) +
              " entries but the graph has " +
              std::to_string(graph.num_channels()) + " channels");
    }
    state::ThroughputOptions opts;
    opts.target = target;
    opts.cancel = token;
    opts.progress = &progress_;
    const state::ThroughputResult run = state::compute_throughput(
        graph, state::Capacities::bounded(req.capacities), opts);
    result.set("deadlock", JsonValue::boolean(run.deadlocked));
    result.set("throughput", JsonValue::string(run.throughput.str()));
    result.set("states_stored",
               JsonValue::integer(static_cast<i64>(run.states_stored)));
    result.set("period", JsonValue::integer(run.period));
  }
  return result;
}

JsonValue Server::handle_explore(const Request& req,
                                 const exec::CancellationToken& token) {
  token.checkpoint();
  const sdf::Graph graph = parse_graph(req);
  const sdf::ActorId target = resolve_target(graph, req.target);
  admit_magnitudes(graph);

  // The registry identity of (graph, target); "cache":false bypasses the
  // registry entirely.
  std::optional<GraphKey> key;
  if (req.use_cache) key = graph_key(graph, graph.actor(target).name);

  // quality=fast: the LP-only front (buffer/fast_front) — sound but
  // approximate, answered without per-candidate simulation. It only peeks
  // at the warm cache registry: a resident entry's bounds spare the MCM
  // and the bootstrap simulations, but fast answers never create, refresh
  // or evict an entry (they must never displace or seed exact warm state;
  // a later quality=exact query builds it).
  //
  // The fast tier rides on the LP models, whose exact rational arithmetic
  // the simplex pre-sizes from the stamped coefficient bound (DESIGN.md
  // §16): a graph whose coefficients exceed the safe pivot envelope gets
  // numeric_overflow back per solve instead of a grid point. When *every*
  // grid solve overflows, the fast front has degenerated to the bare
  // max-throughput anchor — sound but useless — so the request is
  // downgraded to the exact (simulation) engine, which only needs the i64
  // envelopes admission already verified, and the response is marked.
  // The daemon judges the outcome rather than the certificate's
  // lp_coeff_bound: the envelope covers every LP the budget box could
  // build and routinely exceeds the stamped bound of the problems the
  // grid actually solves (h263 clears the pivot gate by 300x under it).
  bool downgraded = false;
  bool want_fast = req.quality == std::optional<std::string>("fast");
  if (want_fast) {
    token.checkpoint();
    const i64 levels = req.levels.value_or(8);
    const std::shared_ptr<const GraphAnalysis> memo =
        key.has_value() ? registry_.peek(*key, graph, target) : nullptr;
    const buffer::FastFrontResult fast =
        memo != nullptr
            ? buffer::fast_front(graph, target, levels, memo->bounds)
            : buffer::fast_front(graph, target, levels);
    token.checkpoint();
    if (fast.lp_solves > 0 && fast.lp_overflows == fast.lp_solves) {
      want_fast = false;
      downgraded = true;
    } else {
      JsonValue res = JsonValue::object();
      res.set("target", JsonValue::string(graph.actor(target).name));
      res.set("quality", JsonValue::string("fast"));
      set_front(res, fast.bounds, fast.pareto);
      res.set("lp_solves",
              JsonValue::integer(static_cast<i64>(fast.lp_solves)));
      res.set("lp_pivots",
              JsonValue::integer(static_cast<i64>(fast.lp_pivots)));
      res.set("lp_cuts", JsonValue::integer(static_cast<i64>(fast.lp_cuts)));
      res.set("seconds", JsonValue::number(fast.seconds));
      return res;
    }
  }

  buffer::DseOptions opts;
  opts.target = target;
  opts.engine = req.engine == std::optional<std::string>("exh")
                    ? buffer::DseEngine::Exhaustive
                    : buffer::DseEngine::Incremental;
  opts.quantization_levels = req.levels;
  opts.max_distribution_size = req.max_size;
  opts.throughput_goal = req.goal;
  opts.min_throughput = req.min_throughput;
  opts.use_throughput_cache = req.use_cache;
  opts.cancel = token;
  opts.progress = &progress_;

  // The warm-state machinery: repeated queries on the same (graph, target)
  // share one ThroughputCache and one analysis (MCM + Fig. 7 bounds)
  // through the registry. Soundness rests on throughput being a pure
  // function of (graph, target, capacities) — see cache_registry.hpp — and
  // the front is byte-identical warm or cold.
  CacheRegistry::Lease lease;  // keeps an evicted entry alive while used
  if (key.has_value()) {
    token.checkpoint();
    lease = registry_.acquire(*key, graph, target);
    opts.shared_cache = lease.cache.get();
  }

  // An identical repeat is answered from the entry's front memo; its work
  // counters read what it did: nothing. Audit mode re-explores a
  // deterministic sample of hits uncached.
  std::string memo;
  if (lease.memo != nullptr) {
    memo = memo_key(opts, downgraded);
    std::optional<JsonValue> hit = lease.memo->find(memo);
    if (hit.has_value()) {
      u64 h = key->fingerprint;
      for (const char c : memo) {
        h = hash_step(h, static_cast<u64>(static_cast<unsigned char>(c)));
      }
      if (audit::enabled() && audit::sample(h)) {
        audit_check_memoized_front(graph, opts, *hit);
      }
      set_work(*hit, buffer::DseResult{}, lease.warm);
      hit->set("memo", JsonValue::boolean(true));
      return std::move(*hit);
    }
  }

  const buffer::DseResult result =
      lease.analysis != nullptr
          ? buffer::explore(graph, opts, lease.analysis->bounds)
          : buffer::explore(graph, opts);
  if (result.cancelled) {
    // The engines return a verified partial front on a deadline; the
    // protocol's contract is an error code, so the partial result is
    // dropped and the cause reported (run_job picks the code).
    throw exec::Cancelled();
  }

  JsonValue res = exact_front(graph.actor(target).name, downgraded, result);
  if (lease.memo != nullptr) lease.memo->store(memo, res);
  set_work(res, result, lease.warm);
  return res;
}

JsonValue Server::handle_explore_slice(const Request& req,
                                       const exec::CancellationToken& token) {
  token.checkpoint();
  const sdf::Graph graph = parse_graph(req);
  const sdf::ActorId target = resolve_target(graph, req.target);
  admit_magnitudes(graph);
  token.checkpoint();

  buffer::DseOptions opts;
  opts.target = target;
  opts.engine = buffer::DseEngine::Exhaustive;
  opts.quantization_levels = req.levels;
  opts.max_distribution_size = req.max_size;
  opts.throughput_goal = req.goal;
  opts.use_throughput_cache = req.use_cache;
  opts.cancel = token;
  opts.progress = &progress_;

  // Fingerprint-affine warm state: the router routes every slice of a
  // graph to its home shard, so repeated waves hit this lease warm — its
  // cache and its memoized bounds.
  CacheRegistry::Lease lease;
  if (req.use_cache) {
    token.checkpoint();
    lease = registry_.acquire(graph_key(graph, graph.actor(target).name),
                              graph, target);
    opts.shared_cache = lease.cache.get();
  }
  const std::shared_ptr<const GraphAnalysis> analysis =
      lease.analysis != nullptr
          ? lease.analysis
          : std::make_shared<const GraphAnalysis>(analyze_graph(graph, target));
  const buffer::DesignSpaceBounds& bounds = analysis->bounds;
  if (bounds.deadlock) {
    throw ProtocolError(ErrorCode::GraphInvalid,
                        "the graph deadlocks for every storage "
                        "distribution; there is no slice to evaluate");
  }
  // The router replicates this exact preprocessing before planning the
  // d&c, so both sides evaluate the slice under identical engine-effective
  // options — the byte-identity contract of the scattered front.
  buffer::apply_quantization_levels(opts, bounds);

  buffer::SliceRequest slice;
  slice.size = *req.slice_size;
  if (!req.slice_seed.empty()) slice.seed = req.slice_seed;
  slice.slice_goal = *req.slice_goal;
  const buffer::SliceOutcome outcome =
      buffer::explore_size_slice(graph, opts, bounds, slice);

  JsonValue res = JsonValue::object();
  res.set("target", JsonValue::string(graph.actor(target).name));
  res.set("size", JsonValue::integer(slice.size));
  res.set("throughput", JsonValue::string(outcome.throughput.str()));
  JsonValue caps = JsonValue::array();
  for (const i64 c : outcome.witness.capacities()) {
    caps.push_back(JsonValue::integer(c));
  }
  res.set("capacities", caps);
  res.set("distributions_explored",
          JsonValue::integer(static_cast<i64>(outcome.distributions_explored)));
  res.set("simulations_run",
          JsonValue::integer(static_cast<i64>(outcome.simulations_run)));
  res.set("box_hits", JsonValue::integer(static_cast<i64>(outcome.box_hits)));
  res.set("dominance_skips",
          JsonValue::integer(static_cast<i64>(outcome.dominance_skips)));
  res.set("lp_prunes",
          JsonValue::integer(static_cast<i64>(outcome.lp_prunes)));
  res.set("lp_cuts", JsonValue::integer(static_cast<i64>(outcome.lp_cuts)));
  res.set("static_narrow", JsonValue::boolean(outcome.static_narrow));
  res.set("max_states_stored",
          JsonValue::integer(static_cast<i64>(outcome.max_states_stored)));
  res.set("cached_graph", JsonValue::boolean(lease.warm));
  return res;
}

JsonValue Server::status_json() const {
  const auto u = [](u64 v) { return JsonValue::integer(static_cast<i64>(v)); };
  JsonValue o = JsonValue::object();
  front_.write_status(o, {});

  JsonValue jobs = JsonValue::object();
  jobs.set("queued", u(jobs_queued_.load(std::memory_order_relaxed)));
  jobs.set("running", u(jobs_running_.load(std::memory_order_relaxed)));
  jobs.set("capacity", u(options_.queue_capacity));
  o.set("jobs", jobs);

  o.set("connections", front_.connections_json());

  const CacheRegistry::Totals totals = registry_.totals();
  JsonValue cache = JsonValue::object();
  cache.set("graphs_resident", u(registry_.resident()));
  cache.set("graph_capacity", u(registry_.max_graphs()));
  cache.set("warm_hits", u(registry_.warm_hits()));
  cache.set("graph_evictions", u(registry_.evictions()));
  cache.set("dominance_hits", u(totals.dominance_hits));
  cache.set("entries_dropped", u(totals.entries_dropped));
  cache.set("box_hits", u(totals.box_hits));
  cache.set("boxes_stored", u(totals.boxes_stored));
  cache.set("memo_hits", u(totals.memo_hits));
  cache.set("memo_entries", u(totals.memo_entries));
  cache.set("analyses_computed", u(registry_.analyses_computed()));
  cache.set("analysis_hits", u(registry_.analysis_hits()));
  o.set("cache", cache);

  o.set("progress", JsonValue::parse(progress_.snapshot().json()));
  return o;
}

}  // namespace buffy::service
