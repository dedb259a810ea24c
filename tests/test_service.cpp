// End-to-end tests for buffyd, the analysis service (DESIGN.md §10).
//
// Most tests run an in-process service::Server on an ephemeral loopback
// port and speak the newline-delimited JSON protocol through real
// sockets — concurrency, backpressure, deadlines, cancellation and the
// drain barrier are exercised exactly as a remote client would see them.
// One test forks the real buffyd binary and drives it over a Unix-domain
// socket. The connection lifecycle cases (framing, cancel, drain) run
// against buffyd-router's in-process Router as well: both daemons share one
// front-end. The whole suite is TSan-clean; CI re-runs it under
// ThreadSanitizer (the `service` job).
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/max_throughput.hpp"
#include "base/diagnostics.hpp"
#include "buffer/dse.hpp"
#include "buffer/fast_front.hpp"
#include "fleet/router.hpp"
#include "io/dsl.hpp"
#include "io/sdf_xml.hpp"
#include "service/cache_registry.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "line_client.hpp"

namespace buffy {
namespace {

using testing::Client;
using testing::error_code;
using testing::explore_request;
using testing::response_id;
using testing::response_ok;
using testing::result_of;

// A small strongly-connected graph that analyses in microseconds.
constexpr const char* kTinyDsl =
    "graph tiny\n"
    "actor a 1\n"
    "actor b 2\n"
    "channel ab a 1 b 1\n"
    "channel ba b 1 a 1 tokens 2\n";

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

const std::string& h263_xml() {
  static const std::string text =
      slurp(std::string(EXAMPLE_GRAPHS_DIR) + "/h263.xml");
  return text;
}

// The front explore_cli would print for h263 with default options — the
// byte-identity reference for every service response.
const std::string& h263_reference_front() {
  static const std::string front = [] {
    const sdf::Graph graph = io::read_sdf_xml(h263_xml());
    buffer::DseOptions opts;
    opts.target = sdf::ActorId(graph.num_actors() - 1);
    return buffer::explore(graph, opts).pareto.str();
  }();
  return front;
}

// ---------------------------------------------------------------------------
// CacheRegistry: graph-level LRU, pinned eviction order.

TEST(CacheRegistry, PinnedLruEvictionOrder) {
  service::CacheRegistry registry(/*max_graphs=*/2, /*entries_per_graph=*/0);
  const Rational tput(1, 3);

  EXPECT_FALSE(registry.get_or_create(11, tput).warm);  // [11]
  EXPECT_FALSE(registry.get_or_create(22, tput).warm);  // [22, 11]
  EXPECT_TRUE(registry.get_or_create(11, tput).warm);   // [11, 22] refresh
  // Capacity 2: inserting 33 must evict 22 — the least recently used —
  // and NOT 11, which the refresh above moved to the front.
  EXPECT_FALSE(registry.get_or_create(33, tput).warm);  // [33, 11]
  EXPECT_TRUE(registry.contains(11));
  EXPECT_FALSE(registry.contains(22));
  EXPECT_TRUE(registry.contains(33));
  // Re-inserting 22 now evicts 11 (33 is fresher).
  EXPECT_FALSE(registry.get_or_create(22, tput).warm);  // [22, 33]
  EXPECT_FALSE(registry.contains(11));
  EXPECT_TRUE(registry.contains(33));

  EXPECT_EQ(registry.resident(), 2u);
  EXPECT_EQ(registry.warm_hits(), 1u);
  EXPECT_EQ(registry.evictions(), 2u);
}

TEST(CacheRegistry, FingerprintCollisionReplacesInsteadOfPoisoning) {
  service::CacheRegistry registry(/*max_graphs=*/4, /*entries_per_graph=*/0);
  EXPECT_FALSE(registry.get_or_create(7, Rational(1, 3)).warm);
  // Same fingerprint, different graph (different maximal throughput):
  // the stale cache must be replaced, never returned warm.
  const service::CacheRegistry::Lease lease =
      registry.get_or_create(7, Rational(1, 5));
  EXPECT_FALSE(lease.warm);
  EXPECT_EQ(lease.cache->max_throughput(), Rational(1, 5));
}

// Two distinct (graph, target) keys forced onto one fingerprint, with
// equal maximal throughputs (the graphs differ only in an actor name):
// the full canonical key tells them apart, so they never share a cache
// or an analysis.
TEST(CacheRegistry, CollidingKeysWithEqualMaxThroughputGetDistinctEntries) {
  const sdf::Graph first = io::read_dsl(kTinyDsl);
  const sdf::Graph second = io::read_dsl(
      "graph tiny\n"
      "actor a 1\n"
      "actor c 2\n"
      "channel ab a 1 c 1\n"
      "channel ba c 1 a 1 tokens 2\n");
  const sdf::ActorId target(1);
  ASSERT_EQ(analysis::max_throughput(first).actor_throughput(target),
            analysis::max_throughput(second).actor_throughput(target));

  const service::GraphKey first_key = service::graph_key(first, "b");
  service::GraphKey second_key = service::graph_key(second, "c");
  ASSERT_NE(first_key.canonical, second_key.canonical);
  second_key.fingerprint = first_key.fingerprint;

  service::CacheRegistry registry(/*max_graphs=*/4, /*entries_per_graph=*/0);
  const service::CacheRegistry::Lease a =
      registry.acquire(first_key, first, target);
  const service::CacheRegistry::Lease b =
      registry.acquire(second_key, second, target);
  EXPECT_FALSE(a.warm);
  EXPECT_FALSE(b.warm);
  ASSERT_NE(a.cache, nullptr);
  ASSERT_NE(b.cache, nullptr);
  EXPECT_NE(a.cache, b.cache);
  EXPECT_NE(a.analysis, b.analysis);
  EXPECT_EQ(registry.analyses_computed(), 2u);
  EXPECT_EQ(registry.analysis_hits(), 0u);
}

// acquire() computes a graph's analysis once per entry and hands it out
// on every hit; peek() reads a resident analysis and memo but never
// creates an entry, refreshes its recency or hands out its cache; a
// deadlocking graph keeps no entry.
TEST(CacheRegistry, AnalysisIsMemoizedPerEntryAndPeekNeverTouchesTheLru) {
  const sdf::Graph tiny = io::read_dsl(kTinyDsl);
  const sdf::ActorId target(1);
  const service::GraphKey key = service::graph_key(tiny, "b");
  service::CacheRegistry registry(/*max_graphs=*/2, /*entries_per_graph=*/0);

  EXPECT_EQ(registry.peek(key, tiny, target).analysis, nullptr);
  EXPECT_EQ(registry.peek(key, tiny, target).memo, nullptr);
  EXPECT_EQ(registry.resident(), 0u);

  const service::CacheRegistry::Lease cold = registry.acquire(key, tiny, target);
  EXPECT_FALSE(cold.warm);
  ASSERT_NE(cold.analysis, nullptr);
  const service::GraphAnalysis reference = service::analyze_graph(tiny, target);
  EXPECT_EQ(cold.analysis->bounds.max_throughput,
            reference.bounds.max_throughput);
  EXPECT_EQ(cold.analysis->bounds.max_throughput_distribution,
            reference.bounds.max_throughput_distribution);
  EXPECT_EQ(cold.analysis->max_throughput.iteration_period,
            reference.max_throughput.iteration_period);

  const service::CacheRegistry::Lease warm = registry.acquire(key, tiny, target);
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(warm.cache, cold.cache);
  EXPECT_EQ(warm.analysis, cold.analysis);
  const service::CacheRegistry::Lease peeked = registry.peek(key, tiny, target);
  EXPECT_EQ(peeked.analysis, cold.analysis);
  EXPECT_EQ(peeked.memo, cold.memo);
  EXPECT_NE(peeked.memo, nullptr);
  EXPECT_EQ(peeked.cache, nullptr);
  EXPECT_FALSE(peeked.warm);
  EXPECT_EQ(registry.analyses_computed(), 1u);
  EXPECT_EQ(registry.analysis_hits(), 2u);
  EXPECT_EQ(registry.warm_hits(), 1u);

  // LRU order [key]; add two legacy entries. The peek in between must not
  // refresh `key`, so it is the one evicted.
  EXPECT_FALSE(registry.get_or_create(11, Rational(1, 3)).warm);  // [11, key]
  EXPECT_NE(registry.peek(key, tiny, target).analysis, nullptr);
  EXPECT_FALSE(registry.get_or_create(22, Rational(1, 3)).warm);  // [22, 11]
  EXPECT_FALSE(registry.contains(key.fingerprint));
  EXPECT_EQ(registry.peek(key, tiny, target).analysis, nullptr);

  // Deadlock everywhere (a token-free cycle): the lease carries the
  // analysis, but no cache, and no entry stays resident.
  const sdf::Graph dead = io::read_dsl(
      "graph dead\n"
      "actor a 1\n"
      "actor b 1\n"
      "channel ab a 1 b 1\n"
      "channel ba b 1 a 1\n");
  const service::GraphKey dead_key = service::graph_key(dead, "b");
  const service::CacheRegistry::Lease none =
      registry.acquire(dead_key, dead, target);
  EXPECT_FALSE(none.warm);
  EXPECT_EQ(none.cache, nullptr);
  ASSERT_NE(none.analysis, nullptr);
  EXPECT_TRUE(none.analysis->bounds.deadlock);
  EXPECT_FALSE(registry.contains(dead_key.fingerprint));
  EXPECT_EQ(registry.resident(), 2u);

  // A computation that throws (an inconsistent graph) is not memoized:
  // no entry stays behind, and a retry computes afresh.
  const sdf::Graph inconsistent = io::read_dsl(
      "graph bad\n"
      "actor a 1\n"
      "actor b 1\n"
      "channel ab a 2 b 1\n"
      "channel ba b 1 a 1 tokens 1\n");
  const service::GraphKey bad_key = service::graph_key(inconsistent, "b");
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_THROW((void)registry.acquire(bad_key, inconsistent, target), Error);
    EXPECT_FALSE(registry.contains(bad_key.fingerprint));
  }
  EXPECT_EQ(registry.resident(), 2u);
  EXPECT_EQ(registry.analyses_computed(), 2u);  // tiny + dead
}

TEST(CacheRegistry, DistinctGraphsGetDistinctFingerprints) {
  const sdf::Graph tiny = io::read_dsl(kTinyDsl);
  const sdf::Graph h263 = io::read_sdf_xml(h263_xml());
  EXPECT_NE(service::graph_fingerprint(tiny, "b"),
            service::graph_fingerprint(h263, "mc"));
  EXPECT_NE(service::graph_fingerprint(tiny, "a"),
            service::graph_fingerprint(tiny, "b"));
}

// ---------------------------------------------------------------------------
// In-process server end-to-end.

service::ServerOptions tcp_options() {
  service::ServerOptions opts;
  opts.tcp_port = 0;  // ephemeral
  return opts;
}

// The acceptance bar: 8 concurrent clients explore h263 on one daemon,
// every front is byte-identical to explore_cli's, and the status
// counters prove the shared cache served warm state.
TEST(Service, EightConcurrentClientsGetByteIdenticalFronts) {
  service::Server server(tcp_options());
  server.start();
  const int port = server.tcp_port();

  constexpr int kClients = 8;
  std::vector<std::string> fronts(kClients);
  // int, not bool: vector<bool> packs bits into shared words, which would
  // be a data race across the client threads.
  std::vector<int> ok(kClients, 0);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([i, port, &fronts, &ok] {
        Client client = Client::tcp(port);
        const service::JsonValue resp =
            client.call(explore_request(i, h263_xml()));
        if (!response_ok(resp)) return;
        fronts[static_cast<std::size_t>(i)] =
            result_of(resp).find("front")->as_string();
        ok[static_cast<std::size_t>(i)] = response_id(resp) == i;
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(i)]) << "client " << i;
    EXPECT_EQ(fronts[static_cast<std::size_t>(i)], h263_reference_front())
        << "client " << i;
  }

  // All 8 leases target one fingerprint: exactly one creation, the other
  // seven served from the warm shared cache.
  Client status_client = Client::tcp(port);
  const service::JsonValue status =
      status_client.call("{\"method\":\"status\"}");
  const service::JsonValue& cache = *result_of(status).find("cache");
  EXPECT_GE(cache.find("warm_hits")->as_int(), 7);
  EXPECT_EQ(cache.find("graphs_resident")->as_int(), 1);
  // The seven that arrived while the first computed the graph's MCM and
  // bounds waited for that one computation instead of repeating it.
  EXPECT_EQ(cache.find("analyses_computed")->as_int(), 1);
  EXPECT_EQ(cache.find("analysis_hits")->as_int(), 7);

  server.shutdown();
  server.wait();
}

TEST(Service, AnalyzeThroughputMatchesMcmReferenceAndSimulation) {
  service::Server server(tcp_options());
  server.start();
  Client client = Client::tcp(server.tcp_port());

  const sdf::Graph tiny = io::read_dsl(kTinyDsl);
  const analysis::MaxThroughput reference = analysis::max_throughput(tiny);

  // Maximal throughput (no capacities).
  const service::JsonValue max_resp = client.call(
      "{\"id\":1,\"method\":\"analyze_throughput\",\"graph\":" +
      service::json_quote(kTinyDsl) + "}");
  const service::JsonValue& max_result = result_of(max_resp);
  EXPECT_EQ(max_result.find("throughput")->as_string(),
            reference.actor_throughput(sdf::ActorId(1)).str());
  EXPECT_FALSE(max_result.find("deadlock")->as_bool());

  // Bounded simulation under an explicit distribution.
  const service::JsonValue sim_resp = client.call(
      "{\"id\":2,\"method\":\"analyze_throughput\",\"graph\":" +
      service::json_quote(kTinyDsl) + ",\"capacities\":[1,2]}");
  const service::JsonValue& sim_result = result_of(sim_resp);
  EXPECT_FALSE(sim_result.find("deadlock")->as_bool());
  EXPECT_FALSE(sim_result.find("throughput")->as_string().empty());

  server.shutdown();
  server.wait();
}

TEST(Service, MalformedInputsGetStructuredErrorCodes) {
  service::Server server(tcp_options());
  server.start();
  Client client = Client::tcp(server.tcp_port());

  EXPECT_EQ(error_code(client.call("this is not json")), "bad_request");
  EXPECT_EQ(error_code(client.call("{\"method\":\"no_such_method\"}")),
            "bad_request");
  EXPECT_EQ(error_code(client.call(explore_request(1, "graph g\nactor ???"))),
            "parse_error");
  EXPECT_EQ(error_code(client.call(explore_request(
                2, kTinyDsl, ",\"target\":\"no_such_actor\""))),
            "graph_error");

  server.shutdown();
  server.wait();
}

// quality=fast serves the LP-only front without ever creating a warm
// cache registry entry, and a later quality=exact request on the same
// graph still produces the byte-identical reference front from a cold
// cache.
TEST(Service, FastQualityServesLpFrontWithoutSeedingTheWarmCache) {
  service::Server server(tcp_options());
  server.start();
  Client client = Client::tcp(server.tcp_port());

  const service::JsonValue fast_resp = client.call(
      explore_request(1, h263_xml(), ",\"quality\":\"fast\""));
  ASSERT_TRUE(response_ok(fast_resp));
  const service::JsonValue& fast = result_of(fast_resp);
  EXPECT_EQ(fast.find("quality")->as_string(), "fast");
  EXPECT_FALSE(fast.find("deadlock")->as_bool());
  EXPECT_GE(fast.find("lp_solves")->as_int(), 1);
  EXPECT_GE(fast.find("lp_cuts")->as_int(), 0);
  const service::JsonValue* points = fast.find("points");
  ASSERT_TRUE(points != nullptr && points->is_array());
  EXPECT_FALSE(points->as_array().empty());
  // Fast answers carry no cache provenance: they never take a registry
  // entry, so the member must be absent (not merely false).
  EXPECT_EQ(fast.find("cached_graph"), nullptr);
  EXPECT_EQ(fast.find("memo"), nullptr);

  // An identical repeat finds no resident entry, so no memo either: it
  // solves its grid again.
  const service::JsonValue again_resp = client.call(
      explore_request(3, h263_xml(), ",\"quality\":\"fast\""));
  ASSERT_TRUE(response_ok(again_resp));
  EXPECT_EQ(result_of(again_resp).find("memo"), nullptr);
  EXPECT_GE(result_of(again_resp).find("lp_solves")->as_int(), 1);
  EXPECT_EQ(result_of(again_resp).find("front")->as_string(),
            fast.find("front")->as_string());

  // The registry holds nothing: a fast answer must never seed exact
  // warm state. It computed its bounds itself, outside the registry, and
  // stored no answer.
  const service::JsonValue status = client.call("{\"method\":\"status\"}");
  const service::JsonValue& cache = *result_of(status).find("cache");
  EXPECT_EQ(cache.find("graphs_resident")->as_int(), 0);
  EXPECT_EQ(cache.find("analyses_computed")->as_int(), 0);
  EXPECT_EQ(cache.find("analysis_hits")->as_int(), 0);
  EXPECT_EQ(cache.find("memo_entries")->as_int(), 0);
  EXPECT_EQ(cache.find("memo_hits")->as_int(), 0);

  // The first exact request is therefore cold — and still reproduces
  // the reference front byte for byte.
  const service::JsonValue exact_resp = client.call(
      explore_request(2, h263_xml(), ",\"quality\":\"exact\""));
  ASSERT_TRUE(response_ok(exact_resp));
  const service::JsonValue& exact = result_of(exact_resp);
  EXPECT_EQ(exact.find("quality")->as_string(), "exact");
  EXPECT_FALSE(exact.find("cached_graph")->as_bool());
  EXPECT_EQ(exact.find("front")->as_string(), h263_reference_front());
  EXPECT_TRUE(exact.find("lp_prunes") != nullptr &&
              exact.find("lp_prunes")->is_int());
  EXPECT_TRUE(exact.find("lp_cuts") != nullptr &&
              exact.find("lp_cuts")->is_int());

  server.shutdown();
  server.wait();
}

// Exact explores, fast probes and maximal analyzes of one graph share the
// registry entry's analysis: the MCM and the Fig. 7 bounds are computed
// once, and every answer is the one the uncached path gives.
TEST(Service, GraphAnalysisIsComputedOncePerRegistryEntry) {
  service::Server server(tcp_options());
  server.start();
  Client client = Client::tcp(server.tcp_port());
  const auto cache_counter = [&client](const char* name) {
    const service::JsonValue status =
        client.call("{\"method\":\"status\"}");
    return result_of(status).find("cache")->find(name)->as_int();
  };

  const sdf::Graph h263 = io::read_sdf_xml(h263_xml());
  const sdf::ActorId target(h263.num_actors() - 1);
  const std::string fast_reference =
      buffer::fast_front(h263, target).pareto.str();
  const std::string analyze =
      "{\"id\":9,\"method\":\"analyze_throughput\",\"graph\":" +
      service::json_quote(h263_xml()) + "}";

  // Cold: a maximal analyze only peeks, so it computes nothing in the
  // registry and creates no entry.
  const service::JsonValue cold = client.call(analyze);
  ASSERT_TRUE(response_ok(cold));
  EXPECT_EQ(result_of(cold).find("throughput")->as_string(),
            analysis::max_throughput(h263).actor_throughput(target).str());
  EXPECT_EQ(cache_counter("graphs_resident"), 0);
  EXPECT_EQ(cache_counter("analyses_computed"), 0);

  for (int i = 0; i < 2; ++i) {
    const service::JsonValue exact = client.call(explore_request(i, h263_xml()));
    ASSERT_TRUE(response_ok(exact));
    EXPECT_EQ(result_of(exact).find("front")->as_string(),
              h263_reference_front());
    EXPECT_EQ(result_of(exact).find("cached_graph")->as_bool(), i == 1);
  }
  const service::JsonValue fast =
      client.call(explore_request(3, h263_xml(), ",\"quality\":\"fast\""));
  ASSERT_TRUE(response_ok(fast));
  EXPECT_EQ(result_of(fast).find("front")->as_string(), fast_reference);
  EXPECT_EQ(result_of(fast).find("cached_graph"), nullptr);
  const service::JsonValue warm = client.call(analyze);
  ASSERT_TRUE(response_ok(warm));
  EXPECT_EQ(result_of(warm).dump(), result_of(cold).dump());

  EXPECT_EQ(cache_counter("analyses_computed"), 1);
  EXPECT_EQ(cache_counter("analysis_hits"), 3);  // explore, fast, analyze
  EXPECT_EQ(cache_counter("warm_hits"), 1);
  EXPECT_EQ(cache_counter("graphs_resident"), 1);

  server.shutdown();
  server.wait();
}

// A warm exhaustive repeat that the front memo does not answer (its
// max_size differs, but lies past every enumerated candidate) is answered
// from the equivalence boxes the first request recorded in the graph's
// shared cache: the repeat simulates nothing, its response counts the box
// hits, and the status cache object counts the hits and the resident
// boxes.
TEST(Service, WarmExhaustiveRepeatIsAnsweredFromBoxes) {
  service::Server server(tcp_options());
  server.start();
  Client client = Client::tcp(server.tcp_port());
  const std::string samplerate =
      slurp(std::string(EXAMPLE_GRAPHS_DIR) + "/samplerate.sdf");
  const char* extra[2] = {",\"engine\":\"exh\"",
                          ",\"engine\":\"exh\",\"max_size\":1000000"};
  std::string fronts[2];
  i64 explored[2] = {0, 0};
  i64 sims[2] = {0, 0};
  i64 box_hits[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const service::JsonValue resp =
        client.call(explore_request(i, samplerate, extra[i]));
    ASSERT_TRUE(response_ok(resp));
    const service::JsonValue& result = result_of(resp);
    EXPECT_EQ(result.find("memo"), nullptr) << "request " << i;
    fronts[i] = result.find("front")->as_string();
    explored[i] = result.find("distributions_explored")->as_int();
    sims[i] = result.find("simulations_run")->as_int();
    box_hits[i] = result.find("box_hits")->as_int();
  }
  EXPECT_EQ(fronts[0], fronts[1]);
  EXPECT_EQ(explored[0], explored[1]);
  EXPECT_GT(sims[0], 0);
  EXPECT_EQ(sims[1], 0);
  EXPECT_GT(box_hits[1], box_hits[0]);

  const service::JsonValue status = client.call("{\"method\":\"status\"}");
  const service::JsonValue& cache = *result_of(status).find("cache");
  EXPECT_EQ(cache.find("box_hits")->as_int(), box_hits[0] + box_hits[1]);
  // One box per simulation at most: lane-batched candidates that share a
  // box are simulated together and recorded once.
  EXPECT_GT(cache.find("boxes_stored")->as_int(), 0);
  EXPECT_LE(cache.find("boxes_stored")->as_int(), sims[0]);

  server.shutdown();
  server.wait();
}

// A capped per-graph cache fills up with boxes and then refuses new ones
// instead of evicting: both fronts stay the reference's, and status shows
// the cache full and counts what it refused.
TEST(Service, CappedCacheFillsAndCountsDroppedEntries) {
  constexpr i64 kCap = 16;
  service::ServerOptions opts = tcp_options();
  opts.cache_entries_per_graph = kCap;
  service::Server server(opts);
  server.start();
  Client client = Client::tcp(server.tcp_port());
  for (int i = 0; i < 2; ++i) {
    const service::JsonValue resp = client.call(
        explore_request(i, h263_xml(), ",\"engine\":\"exh\""));
    ASSERT_TRUE(response_ok(resp));
    EXPECT_EQ(result_of(resp).find("front")->as_string(),
              h263_reference_front())
        << "request " << i;
  }

  const service::JsonValue status = client.call("{\"method\":\"status\"}");
  const service::JsonValue& cache = *result_of(status).find("cache");
  EXPECT_EQ(cache.find("boxes_stored")->as_int(), kCap);
  EXPECT_GT(cache.find("entries_dropped")->as_int(), 0);

  server.shutdown();
  server.wait();
}

// ---------------------------------------------------------------------------
// The front memo (DESIGN.md §10): an identical exact repeat on a resident
// graph is answered from the entry's finished answers, without an engine.

// The front members a memo hit must reproduce byte for byte.
std::string front_members(const service::JsonValue& result) {
  std::string out;
  for (const char* name : {"target", "quality", "deadlock", "bounds", "front",
                           "points", "distributions_explored"}) {
    const service::JsonValue* v = result.find(name);
    out += std::string(name) + "=" + (v != nullptr ? v->dump() : "-") + ";";
  }
  return out;
}

i64 memo_counter(Client& client, const char* name) {
  const service::JsonValue status = client.call("{\"method\":\"status\"}");
  return result_of(status).find("cache")->find(name)->as_int();
}

TEST(Service, IdenticalExactRepeatIsAnsweredFromTheFrontMemo) {
  service::Server server(tcp_options());
  server.start();
  Client client = Client::tcp(server.tcp_port());
  const service::JsonValue cold = client.call(explore_request(1, h263_xml()));
  const service::JsonValue warm = client.call(explore_request(2, h263_xml()));
  ASSERT_TRUE(response_ok(cold));
  ASSERT_TRUE(response_ok(warm));
  const service::JsonValue& first = result_of(cold);
  const service::JsonValue& hit = result_of(warm);
  EXPECT_EQ(first.find("memo"), nullptr);
  EXPECT_GT(first.find("simulations_run")->as_int(), 0);
  EXPECT_EQ(front_members(hit), front_members(first));
  EXPECT_EQ(hit.find("front")->as_string(), h263_reference_front());
  EXPECT_TRUE(hit.find("cached_graph")->as_bool());
  ASSERT_NE(hit.find("memo"), nullptr) << warm.dump();
  EXPECT_TRUE(hit.find("memo")->as_bool());
  // The work counters read what the repeat did: nothing.
  for (const char* counter : {"simulations_run", "cache_hits", "box_hits",
                              "dominance_skips", "lp_prunes", "lp_cuts",
                              "max_states_stored"}) {
    EXPECT_EQ(hit.find(counter)->as_int(), 0) << counter;
  }
  EXPECT_EQ(memo_counter(client, "memo_hits"), 1);
  EXPECT_EQ(memo_counter(client, "memo_entries"), 1);

  server.shutdown();
  server.wait();
}

TEST(Service, FrontMemoMissesOnEveryKeyedOption) {
  // Each request differs from the first in one engine-effective option, so
  // each is explored and memoized on its own; repeating them all hits.
  constexpr const char* kBigExecDsl =
      "graph bigexec\n"
      "actor a 3000000000\n"
      "actor b 1\n"
      "channel ab a 1 b 1\n"
      "channel ba b 1 a 1 tokens 1\n";
  const std::vector<std::pair<const char*, std::string>> requests = {
      {kTinyDsl, ""},
      {kTinyDsl, ",\"engine\":\"exh\""},
      {kTinyDsl, ",\"levels\":2"},
      {kTinyDsl, ",\"max_size\":3"},
      {kTinyDsl, ",\"goal\":\"1/4\""},
      {kTinyDsl, ",\"min_throughput\":\"1/8\""},
      {kBigExecDsl, ""},
      // Downgraded from fast: the same exploration, but a marked answer.
      {kBigExecDsl, ",\"quality\":\"fast\""},
  };
  service::Server server(tcp_options());
  server.start();
  Client client = Client::tcp(server.tcp_port());
  for (const int round : {0, 1}) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const service::JsonValue resp = client.call(explore_request(
          static_cast<i64>(i), requests[i].first, requests[i].second));
      ASSERT_TRUE(response_ok(resp)) << resp.dump();
      EXPECT_EQ(result_of(resp).find("memo") != nullptr, round == 1)
          << "request " << i << " round " << round;
    }
  }
  EXPECT_EQ(memo_counter(client, "memo_entries"),
            static_cast<i64>(requests.size()));
  EXPECT_EQ(memo_counter(client, "memo_hits"),
            static_cast<i64>(requests.size()));

  server.shutdown();
  server.wait();
}

TEST(Service, CacheFalseBypassesTheFrontMemo) {
  service::Server server(tcp_options());
  server.start();
  Client client = Client::tcp(server.tcp_port());
  for (int i = 0; i < 2; ++i) {
    const service::JsonValue resp =
        client.call(explore_request(i, kTinyDsl, ",\"cache\":false"));
    ASSERT_TRUE(response_ok(resp));
    EXPECT_EQ(result_of(resp).find("memo"), nullptr) << "request " << i;
    EXPECT_FALSE(result_of(resp).find("cached_graph")->as_bool());
  }
  EXPECT_EQ(memo_counter(client, "memo_entries"), 0);
  EXPECT_EQ(memo_counter(client, "memo_hits"), 0);

  server.shutdown();
  server.wait();
}

TEST(Service, FullFrontMemoRefusesNewAnswers) {
  // One graph, one more distinct option set than the memo holds: the
  // first kCapacity answers stay and keep answering, the last is refused
  // and explored again on its repeat.
  constexpr i64 kCapacity = service::FrontMemo::kCapacity;
  service::Server server(tcp_options());
  server.start();
  Client client = Client::tcp(server.tcp_port());
  const auto explore = [&client](i64 levels) {
    const service::JsonValue resp = client.call(explore_request(
        levels, kTinyDsl, ",\"levels\":" + std::to_string(levels)));
    EXPECT_TRUE(response_ok(resp)) << resp.dump();
    return result_of(resp).find("memo") != nullptr;
  };
  for (i64 levels = 1; levels <= kCapacity + 1; ++levels) {
    EXPECT_FALSE(explore(levels)) << levels;
  }
  EXPECT_EQ(memo_counter(client, "memo_entries"), kCapacity);
  EXPECT_TRUE(explore(1));
  EXPECT_TRUE(explore(kCapacity));
  EXPECT_FALSE(explore(kCapacity + 1));
  EXPECT_EQ(memo_counter(client, "memo_entries"), kCapacity);

  server.shutdown();
  server.wait();
}

TEST(Service, FrontMemoIsDroppedWithItsGraphEntry) {
  const std::string kTinyText = kTinyDsl;
  // One resident graph: exploring a second evicts the first's entry, memo
  // included, so the first graph's repeat is explored cold again.
  service::ServerOptions opts = tcp_options();
  opts.cache_graphs = 1;
  service::Server server(opts);
  server.start();
  Client client = Client::tcp(server.tcp_port());
  const std::string samplerate =
      slurp(std::string(EXAMPLE_GRAPHS_DIR) + "/samplerate.sdf");
  // tiny, samplerate (evicts tiny), tiny (cold again), tiny (memo hit).
  const std::string* graphs[] = {&kTinyText, &samplerate, &kTinyText,
                                 &kTinyText};
  std::vector<service::JsonValue> answers;
  for (std::size_t i = 0; i < 4; ++i) {
    const service::JsonValue resp =
        client.call(explore_request(static_cast<i64>(i), *graphs[i]));
    ASSERT_TRUE(response_ok(resp));
    answers.push_back(result_of(resp));
  }
  EXPECT_EQ(answers[2].find("memo"), nullptr);
  EXPECT_FALSE(answers[2].find("cached_graph")->as_bool());
  ASSERT_NE(answers[3].find("memo"), nullptr);
  EXPECT_EQ(front_members(answers[2]), front_members(answers[0]));
  EXPECT_EQ(front_members(answers[3]), front_members(answers[0]));
  EXPECT_EQ(memo_counter(client, "memo_entries"), 1);

  server.shutdown();
  server.wait();
}

TEST(Service, ConcurrentIdenticalExploresShareOneMemoEntry) {
  // Requests racing on a cold memo may each explore; every answer is the
  // reference front, and only one of them is kept.
  service::Server server(tcp_options());
  server.start();
  const int port = server.tcp_port();
  constexpr int kClients = 6;
  std::vector<std::string> fronts(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([i, port, &fronts] {
        Client client = Client::tcp(port);
        const service::JsonValue resp = client.call(
            explore_request(i, h263_xml(), ",\"engine\":\"exh\""));
        if (!response_ok(resp)) return;
        fronts[static_cast<std::size_t>(i)] =
            result_of(resp).find("front")->as_string();
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(fronts[static_cast<std::size_t>(i)], h263_reference_front())
        << "client " << i;
  }
  Client client = Client::tcp(port);
  EXPECT_EQ(memo_counter(client, "memo_entries"), 1);

  server.shutdown();
  server.wait();
}

// A fast answer on a resident graph is kept in the same front memo, under
// its own key: an identical fast repeat solves no LP.
TEST(Service, IdenticalFastRepeatIsAnsweredFromTheFrontMemo) {
  service::Server server(tcp_options());
  server.start();
  Client client = Client::tcp(server.tcp_port());
  ASSERT_TRUE(response_ok(client.call(explore_request(1, kTinyDsl))));
  const auto fast = [&client](i64 id, const std::string& extra) {
    const service::JsonValue resp = client.call(explore_request(
        id, kTinyDsl, ",\"quality\":\"fast\"" + extra));
    EXPECT_TRUE(response_ok(resp)) << resp.dump();
    return result_of(resp);
  };
  const service::JsonValue cold = fast(2, "");
  EXPECT_EQ(cold.find("memo"), nullptr);
  EXPECT_GE(cold.find("lp_solves")->as_int(), 1);
  EXPECT_EQ(memo_counter(client, "memo_entries"), 2);
  const i64 hits_before = memo_counter(client, "memo_hits");

  const service::JsonValue hit = fast(3, "");
  ASSERT_NE(hit.find("memo"), nullptr) << hit.dump();
  EXPECT_TRUE(hit.find("memo")->as_bool());
  EXPECT_EQ(hit.find("quality")->as_string(), "fast");
  for (const char* name : {"bounds", "front", "points"}) {
    EXPECT_EQ(hit.find(name)->dump(), cold.find(name)->dump()) << name;
  }
  EXPECT_EQ(front_members(hit), front_members(cold));
  for (const char* counter : {"lp_solves", "lp_pivots", "lp_cuts"}) {
    EXPECT_EQ(hit.find(counter)->as_int(), 0) << counter;
  }
  EXPECT_EQ(hit.find("seconds")->as_double(), 0.0);
  EXPECT_EQ(hit.find("cached_graph"), nullptr);
  EXPECT_EQ(memo_counter(client, "memo_hits"), hits_before + 1);

  // Another grid is another key: it misses, and is kept in turn.
  const service::JsonValue other = fast(4, ",\"levels\":3");
  EXPECT_EQ(other.find("memo"), nullptr);
  EXPECT_GE(other.find("lp_solves")->as_int(), 1);
  EXPECT_EQ(memo_counter(client, "memo_entries"), 3);
  EXPECT_NE(fast(5, ",\"levels\":3").find("memo"), nullptr);

  server.shutdown();
  server.wait();
}

TEST(Service, FullFrontMemoRefusesFastAnswersAndKeepsItsExactOnes) {
  constexpr i64 kCapacity = service::FrontMemo::kCapacity;
  service::Server server(tcp_options());
  server.start();
  Client client = Client::tcp(server.tcp_port());
  const auto explore = [&client](i64 id, const std::string& extra) {
    const service::JsonValue resp =
        client.call(explore_request(id, kTinyDsl, extra));
    EXPECT_TRUE(response_ok(resp)) << resp.dump();
    return result_of(resp).find("memo") != nullptr;
  };
  for (i64 levels = 1; levels <= kCapacity; ++levels) {
    EXPECT_FALSE(explore(levels, ",\"levels\":" + std::to_string(levels)));
  }
  EXPECT_EQ(memo_counter(client, "memo_entries"), kCapacity);
  for (i64 id = 100; id < 102; ++id) {
    EXPECT_FALSE(explore(id, ",\"quality\":\"fast\"")) << id;
  }
  EXPECT_EQ(memo_counter(client, "memo_entries"), kCapacity);
  for (i64 levels = 1; levels <= kCapacity; ++levels) {
    EXPECT_TRUE(explore(levels, ",\"levels\":" + std::to_string(levels)))
        << levels;
  }

  server.shutdown();
  server.wait();
}

TEST(Service, CacheFalseFastRequestsBypassTheFrontMemo) {
  service::Server server(tcp_options());
  server.start();
  Client client = Client::tcp(server.tcp_port());
  ASSERT_TRUE(response_ok(client.call(explore_request(1, kTinyDsl))));
  for (i64 id = 2; id < 4; ++id) {
    const service::JsonValue resp = client.call(explore_request(
        id, kTinyDsl, ",\"quality\":\"fast\",\"cache\":false"));
    ASSERT_TRUE(response_ok(resp));
    EXPECT_EQ(result_of(resp).find("memo"), nullptr) << "request " << id;
    EXPECT_GE(result_of(resp).find("lp_solves")->as_int(), 1);
  }
  EXPECT_EQ(memo_counter(client, "memo_entries"), 1);
  EXPECT_EQ(memo_counter(client, "memo_hits"), 0);

  server.shutdown();
  server.wait();
}

TEST(Service, AdmissionRejectsMagnitudeOverflowGraphs) {
  // A consistent graph whose magnitude certificate (DESIGN.md §16)
  // saturates: the timestamp envelope max_steps * max_execution_time
  // leaves i64, so every engine downstream could only fail mid-analysis
  // with an OverflowError. Admission answers the structured code up
  // front, naming the escaped envelope.
  constexpr const char* kHugeDsl =
      "graph huge\n"
      "actor a 4611686018427387903\n"
      "actor b 1\n"
      "channel ab a 1 b 1\n"
      "channel ba b 1 a 1 tokens 1\n";
  service::Server server(tcp_options());
  server.start();
  Client client = Client::tcp(server.tcp_port());

  const service::JsonValue resp = client.call(explore_request(1, kHugeDsl));
  EXPECT_EQ(error_code(resp), "magnitude_overflow");
  EXPECT_NE(resp.find("error")->find("message")->as_string().find("huge"),
            std::string::npos)
      << resp.dump();
  // The fast tier sits behind the same admission gate.
  EXPECT_EQ(error_code(client.call(
                explore_request(2, kHugeDsl, ",\"quality\":\"fast\""))),
            "magnitude_overflow");
  // The ordinary analyze path too.
  EXPECT_EQ(error_code(client.call(
                "{\"id\":3,\"method\":\"analyze_throughput\",\"graph\":" +
                service::json_quote(kHugeDsl) + "}")),
            "magnitude_overflow");

  server.shutdown();
  server.wait();
}

TEST(Service, FastQualityDowngradesWhenEveryLpSolveOverflows) {
  // Execution time 3e9 pushes every periodic-LP coefficient denominator
  // (throughput rationals ~ 1/period) past the simplex's 2^31 safe pivot
  // bound, so all grid solves answer numeric_overflow and the fast front
  // degenerates to the bare max-throughput anchor. The daemon must serve
  // the exact engine instead and mark the response downgraded. The i64
  // envelopes still fit (admission passes) and the exploration itself is
  // tiny, so the exact answer is instant.
  constexpr const char* kBigExecDsl =
      "graph bigexec\n"
      "actor a 3000000000\n"
      "actor b 1\n"
      "channel ab a 1 b 1\n"
      "channel ba b 1 a 1 tokens 1\n";
  service::Server server(tcp_options());
  server.start();
  Client client = Client::tcp(server.tcp_port());

  const service::JsonValue resp = client.call(
      explore_request(1, kBigExecDsl, ",\"quality\":\"fast\""));
  ASSERT_TRUE(response_ok(resp));
  const service::JsonValue& result = result_of(resp);
  EXPECT_EQ(result.find("quality")->as_string(), "exact");
  ASSERT_NE(result.find("downgraded"), nullptr) << resp.dump();
  EXPECT_TRUE(result.find("downgraded")->as_bool());
  EXPECT_FALSE(result.find("front")->as_string().empty());

  // An un-degenerate fast answer carries no downgrade marker at all.
  const service::JsonValue fast = client.call(
      explore_request(2, kTinyDsl, ",\"quality\":\"fast\""));
  ASSERT_TRUE(response_ok(fast));
  EXPECT_EQ(result_of(fast).find("quality")->as_string(), "fast");
  EXPECT_EQ(result_of(fast).find("downgraded"), nullptr);

  server.shutdown();
  server.wait();
}

TEST(Service, QualityMemberIsValidated) {
  service::Server server(tcp_options());
  server.start();
  Client client = Client::tcp(server.tcp_port());

  EXPECT_EQ(error_code(client.call(
                explore_request(1, kTinyDsl, ",\"quality\":\"bogus\""))),
            "bad_request");
  EXPECT_EQ(error_code(client.call(
                explore_request(2, kTinyDsl, ",\"quality\":17"))),
            "bad_request");

  server.shutdown();
  server.wait();
}

TEST(Service, DeadlineExpiredRequestsReturnDeadlineExceeded) {
  service::Server server(tcp_options());
  server.start();
  Client client = Client::tcp(server.tcp_port());

  // h263 needs far more than 1 ms; the partial front is discarded and
  // the documented code comes back.
  const service::JsonValue resp =
      client.call(explore_request(5, h263_xml(), ",\"deadline_ms\":1"));
  EXPECT_EQ(response_id(resp), 5);
  EXPECT_EQ(error_code(resp), "deadline_exceeded");

  server.shutdown();
  server.wait();
}

TEST(Service, OverloadedWhenTheQueueIsFull) {
  service::ServerOptions opts = tcp_options();
  opts.threads = 1;
  opts.queue_capacity = 1;
  service::Server server(opts);
  server.start();
  Client client = Client::tcp(server.tcp_port());

  // Occupy the single job slot, then overflow it. Backpressure is an
  // explicit error, never a silent drop.
  client.send_line(explore_request(1, h263_xml()));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const service::JsonValue overflow =
      client.call(explore_request(2, kTinyDsl));
  EXPECT_EQ(response_id(overflow), 2);
  EXPECT_EQ(error_code(overflow), "overloaded");

  // Unblock the slot and let the drain finish the in-flight job.
  client.send_line("{\"id\":3,\"method\":\"cancel\",\"target_id\":1}");
  server.shutdown();
  server.wait();
}

TEST(Service, ShutdownDrainsInFlightAndRejectsQueued) {
  service::ServerOptions opts = tcp_options();
  opts.threads = 1;  // forces the second job to queue behind the first
  service::Server server(opts);
  server.start();
  const int port = server.tcp_port();

  Client worker = Client::tcp(port);
  worker.send_line(explore_request(1, h263_xml()));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  worker.send_line(explore_request(2, kTinyDsl));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // The shutdown response is the drain barrier: when it arrives, the
  // in-flight exploration has completed and delivered its response, and
  // the queued one has been rejected.
  Client admin = Client::tcp(port);
  const service::JsonValue drained =
      admin.call("{\"id\":9,\"method\":\"shutdown\"}");
  EXPECT_TRUE(result_of(drained).find("drained")->as_bool());

  std::map<i64, service::JsonValue> responses;
  for (int i = 0; i < 2; ++i) {
    const std::string line = worker.recv_line();
    ASSERT_FALSE(line.empty());
    service::JsonValue resp = service::JsonValue::parse(line);
    responses.emplace(response_id(resp), std::move(resp));
  }
  ASSERT_TRUE(responses.count(1) == 1 && responses.count(2) == 1);
  EXPECT_EQ(result_of(responses.at(1)).find("front")->as_string(),
            h263_reference_front());
  EXPECT_EQ(error_code(responses.at(2)), "shutting_down");

  server.wait();
}

// ---------------------------------------------------------------------------
// Connection lifecycle, against both daemons: buffyd's in-process Server
// and buffyd-router's in-process Router over one real buffyd worker. They
// share one front-end (service/front_end.hpp), so framing, cancel and the
// drain must behave the same through either.

enum class Daemon { Buffyd, Router };

class Lifecycle : public ::testing::TestWithParam<Daemon> {
 protected:
  // Starts the daemon under test on an ephemeral TCP port and, for the
  // router, waits until its worker is up.
  void start(u64 max_request_bytes = service::ListenerOptions{}
                                         .max_request_bytes) {
    if (GetParam() == Daemon::Buffyd) {
      service::ServerOptions opts = tcp_options();
      opts.max_request_bytes = max_request_bytes;
      server_ = std::make_unique<service::Server>(opts);
      server_->start();
      return;
    }
    static std::atomic<int> fleets{0};
    fleet::RouterOptions opts;
    opts.tcp_port = 0;
    opts.max_request_bytes = max_request_bytes;
    opts.worker_binary = BUFFYD_PATH;
    opts.workers = 1;
    opts.runtime_dir = ::testing::TempDir() + "lifecycle_" +
                       std::to_string(fleets.fetch_add(1)) + "." +
                       std::to_string(::getpid());
    router_ = std::make_unique<fleet::Router>(opts);
    router_->start();
    Client client = Client::tcp(port());
    testing::wait_for_fleet_up(client, 1);
  }

  [[nodiscard]] int port() const {
    return server_ ? server_->tcp_port() : router_->tcp_port();
  }
  void shutdown() { server_ ? server_->shutdown() : router_->shutdown(); }
  void wait() { server_ ? server_->wait() : router_->wait(); }

 private:
  std::unique_ptr<service::Server> server_;
  std::unique_ptr<fleet::Router> router_;
};

INSTANTIATE_TEST_SUITE_P(Daemons, Lifecycle,
                         ::testing::Values(Daemon::Buffyd, Daemon::Router),
                         [](const ::testing::TestParamInfo<Daemon>& info) {
                           return info.param == Daemon::Buffyd ? "buffyd"
                                                               : "router";
                         });

TEST_P(Lifecycle, OverlongRequestLineIsBadRequest) {
  constexpr u64 kMaxBytes = 1u << 16;
  start(kMaxBytes);
  Client client = Client::tcp(port());

  // One byte over the bound: the line is refused with bad_request and the
  // connection closes, since the stream is out of frame.
  client.send_line(std::string(kMaxBytes + 1, 'x'));
  const std::string line = client.recv_line();
  ASSERT_FALSE(line.empty());
  const service::JsonValue resp = service::JsonValue::parse(line);
  EXPECT_EQ(error_code(resp), "bad_request");
  EXPECT_NE(resp.find("error")->find("message")->as_string().find(
                "exceeds " + std::to_string(kMaxBytes) + " bytes"),
            std::string::npos)
      << line;
  EXPECT_TRUE(client.recv_line().empty());

  shutdown();
  wait();
}

TEST_P(Lifecycle, CancelledRequestsReturnCancelled) {
  start();
  Client client = Client::tcp(port());

  client.send_line(explore_request(7, h263_xml()));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  client.send_line("{\"id\":8,\"method\":\"cancel\",\"target_id\":7}");

  // Responses correlate by id; the cancel ack may overtake the abort.
  std::map<i64, service::JsonValue> responses;
  for (int i = 0; i < 2; ++i) {
    const std::string line = client.recv_line();
    ASSERT_FALSE(line.empty());
    service::JsonValue resp = service::JsonValue::parse(line);
    responses.emplace(response_id(resp), std::move(resp));
  }
  ASSERT_TRUE(responses.count(7) == 1 && responses.count(8) == 1);
  EXPECT_EQ(error_code(responses.at(7)), "cancelled");
  EXPECT_TRUE(result_of(responses.at(8)).find("cancelled")->as_bool());

  shutdown();
  wait();
}

TEST_P(Lifecycle, WireShutdownDrainsInFlightWorkFirst) {
  start();
  Client client = Client::tcp(port());

  // The shutdown answer is the drain barrier: the running exploration's
  // response is on the wire before `drained` is. (The pause lets buffyd's
  // pool start the job; a job still queued when the drain begins answers
  // shutting_down instead — ShutdownDrainsInFlightAndRejectsQueued.)
  client.send_line(explore_request(1, h263_xml()));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  client.send_line("{\"id\":2,\"method\":\"shutdown\"}");
  const service::JsonValue first =
      service::JsonValue::parse(client.recv_line());
  EXPECT_EQ(response_id(first), 1);
  EXPECT_EQ(result_of(first).find("front")->as_string(),
            h263_reference_front());
  const service::JsonValue second =
      service::JsonValue::parse(client.recv_line());
  EXPECT_EQ(response_id(second), 2);
  EXPECT_TRUE(result_of(second).find("drained")->as_bool());

  wait();
  EXPECT_TRUE(client.recv_line().empty());
}

TEST_P(Lifecycle, IdleConnectionsCloseWhenTheDrainCompletes) {
  start();
  Client client = Client::tcp(port());
  // A round-trip guarantees the accept loop has handed the connection to
  // a reader thread (a connect() alone may still sit in the backlog,
  // where closing the listener resets it).
  EXPECT_TRUE(response_ok(client.call("{\"method\":\"status\"}")));

  // With no jobs in flight the drain completes immediately and the
  // reader side of every open connection is torn down: the client sees
  // an orderly EOF, not a wedged socket.
  shutdown();
  wait();
  EXPECT_TRUE(client.recv_line().empty());
}

// ---------------------------------------------------------------------------
// The real binary, over a Unix-domain socket.

TEST(Service, BuffydBinaryServesAndDrainsCleanly) {
  const std::string dir = ::testing::TempDir();
  const std::string socket_path = dir + "/buffyd_e2e.sock";
  ::unlink(socket_path.c_str());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::execl(BUFFYD_PATH, BUFFYD_PATH, "--socket", socket_path.c_str(),
            "--threads", "2", static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }

  {
    Client client = Client::unix_socket(socket_path);
    const service::JsonValue resp =
        client.call(explore_request(1, kTinyDsl));
    const sdf::Graph tiny = io::read_dsl(kTinyDsl);
    buffer::DseOptions opts;
    opts.target = sdf::ActorId(tiny.num_actors() - 1);
    EXPECT_EQ(result_of(resp).find("front")->as_string(),
              buffer::explore(tiny, opts).pareto.str());

    const service::JsonValue drained =
        client.call("{\"id\":2,\"method\":\"shutdown\"}");
    EXPECT_TRUE(result_of(drained).find("drained")->as_bool());
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status)) << "buffyd did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace buffy
