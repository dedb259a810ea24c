// Concurrency where the traffic is: buffyd runs many single-threaded
// explorations at once, all reading and merging one per-graph
// ThroughputCache through the Snapshot/Delta/merge protocol (DESIGN.md
// §14). Concurrent explorations of the same graph and target — both
// engines, bounded and unbounded caches — must each reproduce the oracle's
// front (tests/oracle.hpp) byte for byte, witnesses included. Run under
// ThreadSanitizer this is also the race check of the protocol.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "buffer/bounds.hpp"
#include "buffer/dse.hpp"
#include "buffer/throughput_cache.hpp"
#include "models/models.hpp"
#include "oracle.hpp"

namespace buffy::buffer {
namespace {

constexpr int kThreads = 4;
constexpr int kRounds = 3;

void expect_concurrent_fronts_match_oracle(const sdf::Graph& graph,
                                           u64 cache_capacity) {
  const sdf::ActorId target = models::reported_actor(graph);
  const DseEngine engines[] = {DseEngine::Exhaustive, DseEngine::Incremental};
  std::string want[2];
  for (int e = 0; e < 2; ++e) {
    want[e] = explore(graph, testing::oracle_options(target, engines[e]))
                  .pareto.str();
  }
  const DesignSpaceBounds bounds = design_space_bounds(graph, target);
  ThroughputCache cache(bounds.max_throughput, cache_capacity);

  // Each thread runs kRounds explorations per engine, starting with a
  // different engine than its neighbour, so exhaustive and incremental
  // waves interleave their snapshots and merges on the one cache. Fronts
  // are compared after the join: gtest assertions stay on the main thread.
  std::vector<std::string> got(kThreads * kRounds * 2);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds * 2; ++i) {
        const int e = (t + i) % 2;
        DseOptions opts{.target = target, .engine = engines[e]};
        opts.shared_cache = &cache;
        got[static_cast<std::size_t>((t * kRounds * 2) + i)] =
            explore(graph, opts, bounds).pareto.str();
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kRounds * 2; ++i) {
      const int e = (t + i) % 2;
      EXPECT_EQ(got[static_cast<std::size_t>((t * kRounds * 2) + i)],
                want[e])
          << graph.name() << " thread " << t << " run " << i << " engine "
          << (e == 0 ? "exh" : "inc") << " cache capacity " << cache_capacity;
    }
  }
  EXPECT_GT(cache.merges(), 0u);
}

TEST(SharedCache, ConcurrentExplorationsMatchTheOracle) {
  for (const u64 capacity : {u64{1} << 18, u64{0}}) {
    expect_concurrent_fronts_match_oracle(models::samplerate_converter(),
                                          capacity);
    expect_concurrent_fronts_match_oracle(models::satellite_receiver(),
                                          capacity);
  }
}

}  // namespace
}  // namespace buffy::buffer
