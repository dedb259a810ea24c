// Micro-benchmarks (google-benchmark) of the machinery behind the paper's
// numbers: state-space execution rate, throughput computation per model,
// state hashing, MCM, repetition vectors, the exploration engines and the
// throughput cache's per-candidate bookkeeping.
#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "analysis/hsdf.hpp"
#include "analysis/max_throughput.hpp"
#include "analysis/mcm.hpp"
#include "analysis/repetition_vector.hpp"
#include "base/hash.hpp"
#include "buffer/bounds.hpp"
#include "buffer/dse.hpp"
#include "buffer/throughput_cache.hpp"
#include "gen/random_graph.hpp"
#include "models/models.hpp"
#include "state/engine.hpp"
#include "state/throughput.hpp"
#include "trace/trace.hpp"

namespace {

using namespace buffy;

const sdf::Graph& model(int index) {
  static const auto models = models::table2_models();
  return models[static_cast<std::size_t>(index)].graph;
}

const char* model_name(int index) {
  static const auto models = models::table2_models();
  return models[static_cast<std::size_t>(index)].display_name;
}

std::vector<i64> generous_caps(const sdf::Graph& g) {
  std::vector<i64> caps;
  for (const sdf::ChannelId c : g.channel_ids()) {
    const sdf::Channel& ch = g.channel(c);
    caps.push_back(ch.initial_tokens + 2 * (ch.production + ch.consumption));
  }
  return caps;
}

void BM_EngineSteps(benchmark::State& state) {
  const sdf::Graph& g = model(static_cast<int>(state.range(0)));
  state::Engine engine(g, state::Capacities::bounded(generous_caps(g)));
  engine.reset();
  i64 events = 0;
  for (auto _ : state) {
    if (!engine.advance()) engine.reset();
    ++events;
  }
  state.SetItemsProcessed(events);
  state.SetLabel(model_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_EngineSteps)->DenseRange(0, 4);

void BM_ThroughputComputation(benchmark::State& state) {
  const sdf::Graph& g = model(static_cast<int>(state.range(0)));
  const auto caps = state::Capacities::bounded(generous_caps(g));
  const sdf::ActorId target = models::reported_actor(g);
  for (auto _ : state) {
    const auto r = state::compute_throughput(
        g, caps, state::ThroughputOptions{.target = target});
    benchmark::DoNotOptimize(r.throughput);
  }
  state.SetLabel(model_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_ThroughputComputation)->DenseRange(0, 4);

void BM_StateHash(benchmark::State& state) {
  const sdf::Graph& g = model(3);  // satellite: 22 actors + 26 channels
  state::Engine engine(g, state::Capacities::bounded(generous_caps(g)));
  engine.reset();
  const state::TimedState snapshot = engine.snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot.hash());
  }
}
BENCHMARK(BM_StateHash);

// hash_words over 17 words (a corpus capacity vector) and 49 words (a
// satellite visited-state record).
void BM_HashWords(benchmark::State& state) {
  std::vector<i64> words(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = static_cast<i64>(i % 7) + 1;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(words.data());
    benchmark::DoNotOptimize(hash_words(words));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashWords)->Arg(17)->Arg(49);

// Per-candidate cost of the bounded daemon cache (1 << 18 boxes) over one
// cold exhaustive explore the size of g10_60's (24,000 candidates in waves
// of 64): each candidate misses the box probe, records its box into the
// wave's delta and is folded back by the wave's merge. Candidates are
// distinct 17-channel vectors that blocked on every channel, so every box
// holds its own candidate only, and their outcome is sub-maximal, so the
// witness antichains stay empty and the box index carries the whole cost.
// Building and freeing the cache is not timed.
void BM_CacheClassifyRecordMerge(benchmark::State& state) {
  constexpr std::size_t kChannels = 17;
  constexpr std::size_t kWave = 64;
  constexpr std::size_t kWaves = 375;
  buffer::CachedThroughput value;
  value.throughput = Rational(1, 3);
  value.states_stored = 3;
  value.period = 7;
  std::vector<std::vector<i64>> wave(kWave, std::vector<i64>(kChannels));
  std::vector<i64> demand(kChannels);
  std::optional<buffer::ThroughputCache> cache;
  for (auto _ : state) {
    state.PauseTiming();
    cache.emplace(Rational(1, 2), u64{1} << 18);
    buffer::ThroughputCache::Delta delta = cache->make_delta();
    state.ResumeTiming();
    u64 next = 0;
    for (std::size_t w = 0; w < kWaves; ++w) {
      // Distinct candidates: the mixed-radix digits of a running counter.
      for (std::vector<i64>& caps : wave) {
        u64 n = next++;
        for (i64& c : caps) {
          c = static_cast<i64>(n % 6) + 1;
          n /= 6;
        }
      }
      const buffer::ThroughputCache::Snapshot snap = cache->snapshot();
      for (const std::vector<i64>& caps : wave) {
        const buffer::CapsKey key(caps);
        if (!delta.find_box(snap, key).has_value()) {
          for (std::size_t c = 0; c < kChannels; ++c) demand[c] = caps[c] + 1;
          delta.record_box(key, demand, value);
        }
      }
      buffer::ThroughputCache::Delta* const deltas[] = {&delta};
      cache->merge(deltas);
      delta.clear();
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(kWave * kWaves));
}
BENCHMARK(BM_CacheClassifyRecordMerge);

void BM_RepetitionVector(benchmark::State& state) {
  const sdf::Graph& g = model(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::repetition_vector(g).sum());
  }
  state.SetLabel(model_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_RepetitionVector)->DenseRange(0, 4);

void BM_HsdfConversion(benchmark::State& state) {
  const sdf::Graph& g = model(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::to_hsdf(g).graph.num_actors());
  }
  state.SetLabel(model_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_HsdfConversion)->DenseRange(0, 4);

void BM_MaxCycleRatio(benchmark::State& state) {
  const auto hsdf = analysis::to_hsdf(model(static_cast<int>(state.range(0))));
  const auto problem = analysis::ratio_problem_from_hsdf(hsdf.graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::max_cycle_ratio(problem).ratio);
  }
  state.SetLabel(model_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_MaxCycleRatio)->DenseRange(0, 4);

void BM_MaxCycleRatioKarp(benchmark::State& state) {
  const auto hsdf = analysis::to_hsdf(model(static_cast<int>(state.range(0))));
  const auto problem = analysis::ratio_problem_from_hsdf(hsdf.graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::max_cycle_ratio_karp(problem).ratio);
  }
  state.SetLabel(model_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_MaxCycleRatioKarp)->DenseRange(0, 3);  // H.263's H is large

void BM_DesignSpaceBounds(benchmark::State& state) {
  const sdf::Graph& g = model(static_cast<int>(state.range(0)));
  const sdf::ActorId target = models::reported_actor(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(buffer::design_space_bounds(g, target).ub_size);
  }
  state.SetLabel(model_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_DesignSpaceBounds)->DenseRange(0, 4);

void BM_IncrementalDse(benchmark::State& state) {
  const sdf::Graph& g = model(static_cast<int>(state.range(0)));
  const buffer::DseOptions opts{.target = models::reported_actor(g),
                                .engine = buffer::DseEngine::Incremental};
  for (auto _ : state) {
    benchmark::DoNotOptimize(buffer::explore(g, opts).pareto.size());
  }
  state.SetLabel(model_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_IncrementalDse)->DenseRange(0, 3);  // H.263 covered elsewhere

// Tracing overhead guard: the same throughput computation with tracing
// compiled in but no collector attached (the production default — one
// relaxed atomic load per potential event) and with a collector attached.
// The "off" run must stay within 2% of pre-trace numbers; compare the two
// to see the cost of actually recording.
void BM_throughput_trace_off(benchmark::State& state) {
  const sdf::Graph& g = model(static_cast<int>(state.range(0)));
  const auto caps = state::Capacities::bounded(generous_caps(g));
  const sdf::ActorId target = models::reported_actor(g);
  for (auto _ : state) {
    const auto r = state::compute_throughput(
        g, caps, state::ThroughputOptions{.target = target});
    benchmark::DoNotOptimize(r.throughput);
  }
  state.SetLabel(model_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_throughput_trace_off)->DenseRange(0, 2);

void BM_throughput_trace_attached(benchmark::State& state) {
  const sdf::Graph& g = model(static_cast<int>(state.range(0)));
  const auto caps = state::Capacities::bounded(generous_caps(g));
  const sdf::ActorId target = models::reported_actor(g);
  trace::Collector collector;
  trace::attach(&collector);
  for (auto _ : state) {
    const auto r = state::compute_throughput(
        g, caps, state::ThroughputOptions{.target = target});
    benchmark::DoNotOptimize(r.throughput);
    // Keep the event buffer from growing without bound; clearing costs one
    // mutex acquisition, noise next to a full state-space run.
    collector.clear();
  }
  trace::attach(nullptr);
  state.SetLabel(model_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_throughput_trace_attached)->DenseRange(0, 2);

void BM_RandomGraphGeneration(benchmark::State& state) {
  u64 seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gen::random_graph(
            gen::RandomGraphOptions{.num_actors = 16, .seed = seed++})
            .num_channels());
  }
}
BENCHMARK(BM_RandomGraphGeneration);

}  // namespace

BENCHMARK_MAIN();
