// End-to-end tests for buffyd-router, the fleet front-end (DESIGN.md §17).
//
// Every test runs an in-process fleet::Router that fork/execs real buffyd
// worker binaries (BUFFYD_PATH) and drives it over real sockets, exactly
// as a remote client would. The load-bearing assertions are:
//
//  * fronts served through the router — forwarded or scattered across the
//    worker fleet — are byte-identical to a single-process exploration of
//    the same graph, including when a worker is SIGKILLed mid-wave (the
//    fault-injection suite);
//  * a stalled worker (SIGSTOP) turns into a structured deadline_exceeded
//    on the affected request, never a router hang;
//  * backpressure is structured: a full shard queue answers `overloaded`
//    with a retry_after_ms hint;
//  * affinity and supervision are observable through `status` (per-shard
//    queue depth, restart counts, the worker's own cache occupancy).
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/diagnostics.hpp"
#include "buffer/dse.hpp"
#include "fleet/router.hpp"
#include "io/dsl.hpp"
#include "io/sdf_xml.hpp"
#include "models/models.hpp"
#include "service/cache_registry.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "line_client.hpp"

namespace buffy {
namespace {

using testing::Client;
using testing::error_code;
using testing::explore_request;
using testing::response_ok;
using testing::result_of;
using testing::wait_for_fleet_up;

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

std::string graph_file(const std::string& name) {
  return slurp(std::string(EXAMPLE_GRAPHS_DIR) + "/" + name);
}

// The reference front: a plain in-process exploration with the same
// effective options the daemon derives from the request (test_service
// pins daemon == library; this suite pins router == daemon == library).
std::string reference_front(const sdf::Graph& graph, buffer::DseEngine engine,
                            std::optional<i64> levels) {
  buffer::DseOptions opts;
  opts.target = sdf::ActorId(graph.num_actors() - 1);
  opts.engine = engine;
  opts.quantization_levels = levels;
  return buffer::explore(graph, opts).pareto.str();
}

sdf::Graph parse_any(const std::string& text) {
  for (const char c : text) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') continue;
    if (c == '<') return io::read_sdf_xml(text);
    break;
  }
  return io::read_dsl(text);
}

// Router options for a test fleet: real buffyd workers, an ephemeral TCP
// listener, and a per-test runtime directory for the worker sockets.
fleet::RouterOptions fleet_options(const std::string& test_name,
                                   unsigned workers) {
  fleet::RouterOptions opts;
  opts.tcp_port = 0;  // ephemeral
  opts.worker_binary = BUFFYD_PATH;
  opts.workers = workers;
  opts.runtime_dir = ::testing::TempDir() + "fleet_" + test_name + "." +
                     std::to_string(::getpid());
  return opts;
}

// SIGSTOPs `pid` and waits until the stop actually landed (state 'T' in
// /proc/<pid>/stat). kill() returns before the target is descheduled, so
// a fast worker can otherwise still serve one more request — racing any
// test that relies on the worker being wedged.
void stop_process(i64 pid) {
  ASSERT_EQ(::kill(static_cast<pid_t>(pid), SIGSTOP), 0);
  const std::string stat_path =
      "/proc/" + std::to_string(pid) + "/stat";
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::ifstream in(stat_path);
    std::string stat;
    std::getline(in, stat);
    // State is the first field after the parenthesised command name.
    const std::size_t paren = stat.rfind(')');
    if (paren != std::string::npos && paren + 2 < stat.size() &&
        stat[paren + 2] == 'T') {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "worker " << pid << " did not stop";
}

// ---------------------------------------------------------------------------
// Byte-identity: scattered and forwarded fronts equal single-process ones.

TEST(Fleet, ScatteredFrontsAreByteIdenticalToSingleProcess) {
  fleet::Router router(fleet_options("scatter_identity", 4));
  router.start();
  Client client = Client::tcp(router.tcp_port());
  wait_for_fleet_up(client, 4);

  const std::vector<std::pair<std::string, std::string>> graphs = {
      {"h263", graph_file("h263.xml")},
      {"mpeg4", io::write_dsl(models::mpeg4_sp_decoder())},
      {"modem", graph_file("modem.sdf")},
      {"samplerate", graph_file("samplerate.sdf")},
  };
  i64 id = 1;
  for (const auto& [name, text] : graphs) {
    const std::string reference = reference_front(
        parse_any(text), buffer::DseEngine::Exhaustive, /*levels=*/6);
    const service::JsonValue resp = client.call(explore_request(
        id++, text, ",\"engine\":\"exh\",\"levels\":6,\"scatter\":true"));
    const service::JsonValue& result = result_of(resp);
    EXPECT_EQ(result.find("front")->as_string(), reference) << name;
    EXPECT_TRUE(result.find("scattered")->as_bool()) << name;
    EXPECT_GE(result.find("waves")->as_int(), 1) << name;
    EXPECT_GE(result.find("slices")->as_int(), 2) << name;
  }

  router.shutdown();
  router.wait();
}

TEST(Fleet, UnquantizedScatterMatchesToo) {
  fleet::Router router(fleet_options("scatter_unquantized", 3));
  router.start();
  Client client = Client::tcp(router.tcp_port());
  wait_for_fleet_up(client, 3);

  const std::string text = graph_file("samplerate.sdf");
  const std::string reference = reference_front(
      parse_any(text), buffer::DseEngine::Exhaustive, std::nullopt);
  const service::JsonValue resp = client.call(
      explore_request(1, text, ",\"engine\":\"exh\",\"scatter\":true"));
  EXPECT_EQ(result_of(resp).find("front")->as_string(), reference);

  router.shutdown();
  router.wait();
}

TEST(Fleet, ForwardedExploreMatchesAndSecondHitWarmsTheHomeShard) {
  fleet::Router router(fleet_options("affinity", 3));
  router.start();
  Client client = Client::tcp(router.tcp_port());
  wait_for_fleet_up(client, 3);

  const std::string text = graph_file("h263.xml");
  const std::string reference = reference_front(
      parse_any(text), buffer::DseEngine::Incremental, std::nullopt);

  const service::JsonValue first = client.call(explore_request(1, text));
  EXPECT_EQ(result_of(first).find("front")->as_string(), reference);
  EXPECT_FALSE(result_of(first).find("cached_graph")->as_bool());

  // Affinity: the second query lands on the same worker and finds the
  // per-graph throughput cache warm. If routing were not sticky this
  // would be false for any worker count > 1.
  const service::JsonValue second = client.call(explore_request(2, text));
  EXPECT_EQ(result_of(second).find("front")->as_string(), reference);
  EXPECT_TRUE(result_of(second).find("cached_graph")->as_bool());

  router.shutdown();
  router.wait();
}

// ---------------------------------------------------------------------------
// Fault injection.

TEST(Fleet, SigkillMidWaveRedispatchesAndStaysByteIdentical) {
  fleet::RouterOptions opts = fleet_options("kill_midwave", 4);
  // Deterministic mid-wave crash: as soon as a post-endpoint wave has
  // been dispatched, SIGKILL one worker. The slices it held are
  // re-dispatched to surviving shards; the front must not change.
  fleet::Router* router_ptr = nullptr;
  std::atomic<bool> killed{false};
  opts.after_wave_dispatch = [&](unsigned wave, std::size_t) {
    if (wave >= 1 && !killed.exchange(true)) {
      const i64 pid = router_ptr->worker_pid(0);
      if (pid > 0) ::kill(static_cast<pid_t>(pid), SIGKILL);
    }
  };
  fleet::Router router(opts);
  router_ptr = &router;
  router.start();
  Client client = Client::tcp(router.tcp_port());
  wait_for_fleet_up(client, 4);

  const std::string text = graph_file("h263.xml");
  const std::string reference = reference_front(
      parse_any(text), buffer::DseEngine::Exhaustive, /*levels=*/8);
  const service::JsonValue resp = client.call(explore_request(
      1, text, ",\"engine\":\"exh\",\"levels\":8,\"scatter\":true"));
  EXPECT_EQ(result_of(resp).find("front")->as_string(), reference);
  EXPECT_TRUE(killed.load()) << "the fault was never injected";

  // The supervisor respawns the killed worker; the restart is visible in
  // the status counters.
  for (int attempt = 0; attempt < 400 && router.worker_restarts(0) == 0;
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_GE(router.worker_restarts(0), 1u);
  const service::JsonValue status = client.call("{\"method\":\"status\"}");
  EXPECT_GE(result_of(status).find("fleet")->find("restarts_total")->as_int(),
            1);

  router.shutdown();
  router.wait();
}

TEST(Fleet, SigkillDuringDrainDoesNotHangTheDrain) {
  fleet::RouterOptions opts = fleet_options("kill_drain", 3);
  std::atomic<bool> wave_seen{false};
  opts.after_wave_dispatch = [&](unsigned, std::size_t) {
    wave_seen.store(true);
  };
  fleet::Router router(opts);
  router.start();
  Client client = Client::tcp(router.tcp_port());
  wait_for_fleet_up(client, 3);

  const std::string text = graph_file("h263.xml");
  const std::string reference = reference_front(
      parse_any(text), buffer::DseEngine::Exhaustive, /*levels=*/8);

  // Scatter in flight on one connection...
  client.send_line(explore_request(
      1, text, ",\"engine\":\"exh\",\"levels\":8,\"scatter\":true"));
  while (!wave_seen.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // ...then a drain starts and a worker dies mid-drain. The drain must
  // finish the scatter (re-dispatching the dead worker's slices), answer
  // both clients, and reap the fleet — no hang, no lost response.
  Client admin = Client::tcp(router.tcp_port());
  admin.send_line("{\"id\":9,\"method\":\"shutdown\"}");
  const i64 pid = router.worker_pid(1);
  if (pid > 0) ::kill(static_cast<pid_t>(pid), SIGKILL);

  const service::JsonValue resp =
      service::JsonValue::parse(client.recv_line());
  EXPECT_EQ(result_of(resp).find("front")->as_string(), reference);
  const service::JsonValue drained =
      service::JsonValue::parse(admin.recv_line());
  EXPECT_TRUE(result_of(drained).find("drained")->as_bool());
  router.wait();
}

TEST(Fleet, StalledWorkerHitsTheRequestDeadlineNotARouterHang) {
  fleet::RouterOptions opts = fleet_options("stall_deadline", 1);
  // Keep the health-kill far away so the test pins the *deadline* path:
  // the client must get deadline_exceeded from the router's backstop, not
  // a crash-and-redispatch.
  opts.health_timeout_ms = 60'000;
  fleet::Router router(opts);
  router.start();
  Client client = Client::tcp(router.tcp_port());
  wait_for_fleet_up(client, 1);

  const i64 pid = router.worker_pid(0);
  ASSERT_GT(pid, 0);
  stop_process(pid);

  const auto t0 = std::chrono::steady_clock::now();
  const service::JsonValue resp = client.call(
      explore_request(1, kTinyDsl, ",\"deadline_ms\":300"));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_EQ(error_code(resp), "deadline_exceeded");
  EXPECT_LT(elapsed.count(), 10'000) << "deadline backstop took too long";

  ::kill(static_cast<pid_t>(pid), SIGCONT);
  router.shutdown();
  router.wait();
}

TEST(Fleet, RelayedCancelHoldsItsConnectionUntilTheWorkerAnswers) {
  fleet::RouterOptions opts = fleet_options("cancel_relay", 1);
  // A relayed cancel waits for its worker's answer at most this long; a
  // stopped worker is replaced after it too.
  opts.health_timeout_ms = 1500;
  fleet::Router router(opts);
  router.start();
  Client next = Client::tcp(router.tcp_port());
  wait_for_fleet_up(next, 1);
  stop_process(router.worker_pid(0));

  {
    Client client = Client::tcp(router.tcp_port());
    client.send_line(explore_request(1, kTinyDsl, ",\"deadline_ms\":100"));
    client.send_line("{\"id\":2,\"method\":\"cancel\",\"target_id\":1}");
    // The router's deadline backstop answers the request long before the
    // stopped worker could answer the relayed cancel.
    EXPECT_EQ(error_code(service::JsonValue::parse(client.recv_line())),
              "deadline_exceeded");
  }
  // The client left with only the relay outstanding. A new connection
  // makes the accept loop reap finished connections: the relay must keep
  // the old one alive until its answer has been written (into the closed
  // connection, once the health timeout replaced the worker).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Client other = Client::tcp(router.tcp_port());
  EXPECT_TRUE(response_ok(other.call("{\"method\":\"status\"}")));
  std::this_thread::sleep_for(std::chrono::milliseconds(2000));
  EXPECT_TRUE(response_ok(next.call("{\"method\":\"status\"}")));

  router.shutdown();
  router.wait();
}

TEST(Fleet, FullShardQueueAnswersOverloadedWithRetryHint) {
  fleet::RouterOptions opts = fleet_options("backpressure", 1);
  opts.shard_queue_capacity = 1;
  opts.health_timeout_ms = 60'000;
  fleet::Router router(opts);
  router.start();
  Client first = Client::tcp(router.tcp_port());
  wait_for_fleet_up(first, 1);

  // Stop the only worker: the first request parks in its shard queue,
  // the second finds every queue full.
  const i64 pid = router.worker_pid(0);
  ASSERT_GT(pid, 0);
  stop_process(pid);

  first.send_line(explore_request(1, kTinyDsl));

  // The parked request is invisible from outside; poll status until the
  // router has dispatched it (the shard queue reports depth 1).
  Client second = Client::tcp(router.tcp_port());
  for (int attempt = 0; attempt < 200; ++attempt) {
    const service::JsonValue st = second.call("{\"method\":\"status\"}");
    const service::JsonValue* shards = result_of(st).find("shards");
    if (shards != nullptr &&
        shards->as_array()[0].find("queue_depth")->as_int() == 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const service::JsonValue rejected =
      second.call(explore_request(2, kTinyDsl));
  EXPECT_EQ(error_code(rejected), "overloaded");
  const service::JsonValue* err = rejected.find("error");
  ASSERT_NE(err, nullptr);
  const service::JsonValue* retry = err->find("retry_after_ms");
  ASSERT_NE(retry, nullptr) << rejected.dump();
  EXPECT_GT(retry->as_int(), 0);

  // Queue depth is observable while the request is parked.
  const service::JsonValue status = second.call("{\"method\":\"status\"}");
  const service::JsonValue* shards = result_of(status).find("shards");
  ASSERT_NE(shards, nullptr);
  EXPECT_EQ(shards->as_array()[0].find("queue_depth")->as_int(), 1);

  // Resume the worker: the parked request completes normally.
  ::kill(static_cast<pid_t>(pid), SIGCONT);
  const service::JsonValue resp =
      service::JsonValue::parse(first.recv_line());
  EXPECT_TRUE(response_ok(resp));

  router.shutdown();
  router.wait();
}

TEST(Fleet, CrashedIdleWorkerIsRespawnedWithBackoff) {
  fleet::Router router(fleet_options("respawn", 2));
  router.start();
  Client client = Client::tcp(router.tcp_port());
  wait_for_fleet_up(client, 2);

  const i64 pid = router.worker_pid(1);
  ASSERT_GT(pid, 0);
  ::kill(static_cast<pid_t>(pid), SIGKILL);

  // The supervisor reaps the corpse, backs off, respawns, reconnects.
  for (int attempt = 0; attempt < 400; ++attempt) {
    if (router.worker_restarts(1) >= 1 && router.worker_pid(1) > 0 &&
        router.worker_pid(1) != pid) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_GE(router.worker_restarts(1), 1u);
  EXPECT_NE(router.worker_pid(1), pid);

  // And the fleet still serves correct fronts afterwards.
  wait_for_fleet_up(client, 2);
  const std::string reference = reference_front(
      io::read_dsl(kTinyDsl), buffer::DseEngine::Incremental, std::nullopt);
  const service::JsonValue resp = client.call(explore_request(3, kTinyDsl));
  EXPECT_EQ(result_of(resp).find("front")->as_string(), reference);

  router.shutdown();
  router.wait();
}

// ---------------------------------------------------------------------------
// Status shape and routing metadata.

TEST(Fleet, StatusReportsPerShardSupervisionState) {
  fleet::Router router(fleet_options("status_shape", 2));
  router.start();
  Client client = Client::tcp(router.tcp_port());
  wait_for_fleet_up(client, 2);

  // Serve one request so the worker-side counters move, then give the
  // health pings one cycle to refresh the cached worker statuses.
  EXPECT_TRUE(response_ok(client.call(explore_request(1, kTinyDsl))));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  const service::JsonValue resp = client.call("{\"method\":\"status\"}");
  const service::JsonValue& result = result_of(resp);
  EXPECT_EQ(result.find("role")->as_string(), "router");
  const service::JsonValue* fleet = result.find("fleet");
  ASSERT_NE(fleet, nullptr);
  EXPECT_EQ(fleet->find("workers")->as_int(), 2);
  EXPECT_EQ(fleet->find("up")->as_int(), 2);
  EXPECT_GE(fleet->find("forwarded")->as_int(), 1);

  const service::JsonValue* shards = result.find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->as_array().size(), 2u);
  bool some_worker_served = false;
  for (const service::JsonValue& shard : shards->as_array()) {
    EXPECT_EQ(shard.find("state")->as_string(), "up");
    EXPECT_GT(shard.find("pid")->as_int(), 0);
    EXPECT_EQ(shard.find("restarts")->as_int(), 0);
    ASSERT_NE(shard.find("queue_depth"), nullptr);
    // The embedded worker status is the worker's own `status` result.
    const service::JsonValue* worker = shard.find("worker");
    ASSERT_NE(worker, nullptr);
    if (worker->is_object()) {
      const service::JsonValue* cache = worker->find("cache");
      if (cache != nullptr &&
          cache->find("graphs_resident")->as_int() >= 1) {
        some_worker_served = true;
      }
    }
  }
  // Affinity made exactly one worker own the tiny graph's cache.
  EXPECT_TRUE(some_worker_served);

  // The connection counters buffyd reports as well: this test's single
  // client connection.
  const service::JsonValue* connections = result.find("connections");
  ASSERT_NE(connections, nullptr) << resp.dump();
  EXPECT_EQ(connections->find("accepted")->as_int(), 1);
  EXPECT_EQ(connections->find("open")->as_int(), 1);

  // A request refused by the drain counts as responses.shutting_down.
  router.shutdown();
  EXPECT_EQ(error_code(client.call(explore_request(2, kTinyDsl))),
            "shutting_down");
  const service::JsonValue drained = client.call("{\"method\":\"status\"}");
  EXPECT_TRUE(result_of(drained).find("draining")->as_bool());
  const service::JsonValue* responses = result_of(drained).find("responses");
  ASSERT_NE(responses, nullptr) << drained.dump();
  ASSERT_NE(responses->find("shutting_down"), nullptr) << drained.dump();
  EXPECT_EQ(responses->find("shutting_down")->as_int(), 1);
  router.wait();
}

TEST(Fleet, ShardOfIsStableAndInRange) {
  fleet::Router router(fleet_options("shard_of", 3));
  const sdf::Graph tiny = io::read_dsl(kTinyDsl);
  const u64 fp = service::graph_fingerprint(tiny, "b");
  EXPECT_EQ(router.shard_of(fp), router.shard_of(fp));
  EXPECT_LT(router.shard_of(fp), 3u);
  EXPECT_EQ(router.num_workers(), 3u);
}

// ---------------------------------------------------------------------------
// The real buffyd-router binary, over a Unix-domain socket.

TEST(Fleet, RouterBinaryServesScattersAndDrainsCleanly) {
  const std::string dir = ::testing::TempDir();
  const std::string socket_path = dir + "/buffyd_router_e2e.sock";
  const std::string runtime_dir =
      dir + "fleet_binary_e2e." + std::to_string(::getpid());
  ::unlink(socket_path.c_str());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::execl(BUFFYD_ROUTER_PATH, BUFFYD_ROUTER_PATH, "--socket",
            socket_path.c_str(), "--workers", "2", "--worker-bin",
            BUFFYD_PATH, "--runtime-dir", runtime_dir.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }

  {
    Client client = Client::unix_socket(socket_path);
    wait_for_fleet_up(client, 2);

    // Forwarded and scattered requests through the real binary.
    const std::string reference_inc = reference_front(
        io::read_dsl(kTinyDsl), buffer::DseEngine::Incremental, std::nullopt);
    EXPECT_EQ(
        result_of(client.call(explore_request(1, kTinyDsl)))
            .find("front")
            ->as_string(),
        reference_inc);

    const std::string modem = graph_file("modem.sdf");
    const std::string reference_exh = reference_front(
        parse_any(modem), buffer::DseEngine::Exhaustive, std::nullopt);
    EXPECT_EQ(result_of(client.call(explore_request(
                            2, modem, ",\"engine\":\"exh\",\"scatter\":true")))
                  .find("front")
                  ->as_string(),
              reference_exh);

    const service::JsonValue drained =
        client.call("{\"id\":3,\"method\":\"shutdown\"}");
    EXPECT_TRUE(result_of(drained).find("drained")->as_bool());
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status)) << "buffyd-router did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace buffy
