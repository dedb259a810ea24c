// Property-based differential tests over pinned random graphs.
//
// Every seed in tests/golden/property_seeds.txt draws a small random SDF
// graph and cross-checks independent implementations against each other:
//
//  (a) the exhaustive engine (the paper's reference algorithm) and the
//      incremental engine produce the identical Pareto front;
//  (b) the throughput cache is invisible: cache on, cache off and a
//      tightly capped cache yield byte-identical fronts;
//  (c) the state-space simulation (Sec. 7, reduced states + cycle
//      detection) agrees with the HSDF-expansion/maximum-cycle-ratio
//      route (Sec. 8 reference) on the maximal throughput.
//
// The engines share almost no code with their counterpart in each pair,
// so agreement over hundreds of structurally diverse graphs is strong
// evidence of correctness. On any failure the test prints the seed and
// the graph's DSL serialisation so the case can be replayed and shrunk
// by hand:
//
//   repro: seed N, graph:
//   <paste into a .sdf file and run explore_cli on it>
//
// The seed list is append-only; a seed that ever failed stays pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/max_throughput.hpp"
#include "analysis/repetition_vector.hpp"
#include "base/diagnostics.hpp"
#include "base/rng.hpp"
#include "buffer/dse.hpp"
#include "buffer/fast_front.hpp"
#include "buffer/throughput_cache.hpp"
#include "gen/random_graph.hpp"
#include "io/dsl.hpp"
#include "lp/sdf_model.hpp"
#include "oracle.hpp"
#include "state/simd_backend.hpp"
#include "state/throughput.hpp"

namespace buffy {
namespace {

std::vector<u64> load_seeds() {
  const std::string path = std::string(GOLDEN_DIR) + "/property_seeds.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<u64> seeds;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    seeds.push_back(static_cast<u64>(std::stoull(line)));
  }
  return seeds;
}

// The small-graph family the differential sweep runs on: 3-6 actors,
// modest repetition vector so the exhaustive engine and the HSDF
// expansion both stay fast across 200 seeds.
gen::RandomGraphOptions graph_options(u64 seed) {
  gen::RandomGraphOptions opts;
  opts.num_actors = 3 + static_cast<std::size_t>(seed % 4);
  opts.max_repetition = 3;
  opts.max_execution_time = 4;
  opts.seed = seed;
  return opts;
}

std::string repro(u64 seed, const sdf::Graph& graph) {
  return "repro: seed " + std::to_string(seed) + ", graph:\n" +
         io::write_dsl(graph);
}

// Renders the storage/throughput trade-off curve — the (size, throughput)
// pairs — without the witness capacities. Minimal distributions need not
// be unique (Sec. 8, Fig. 6), so two correct engines may return different
// witnesses for the same Pareto point; the curve itself is unique.
std::string curve(const buffer::ParetoSet& pareto) {
  std::string out;
  for (const buffer::ParetoPoint& p : pareto.points()) {
    out += std::to_string(p.size()) + "  " + p.throughput.str() + "\n";
  }
  return out;
}

// Every front point must be honest: the witness has exactly the claimed
// size, and simulating it (an independent code path from either search)
// reproduces the claimed throughput.
void validate_witnesses(const sdf::Graph& graph, sdf::ActorId target,
                        const buffer::DseResult& result,
                        const std::string& context) {
  for (const buffer::ParetoPoint& p : result.pareto.points()) {
    ASSERT_EQ(p.distribution.size(), p.size()) << context;
    state::ThroughputOptions topts;
    topts.target = target;
    const state::ThroughputResult run = state::compute_throughput(
        graph, state::Capacities::bounded(p.distribution.capacities()), topts);
    ASSERT_EQ(run.throughput, p.throughput)
        << context << "witness " << p.distribution.str()
        << " does not reproduce its claimed throughput";
  }
}

// Property (a): the two engines implement the same mathematical object —
// the set of minimal storage distributions — via entirely different
// searches (divide-and-conquer enumeration vs storage-dependency
// climbing). The trade-off curves must match exactly, and every witness
// either engine reports must simulate to its claimed throughput. (This
// harness caught a real completeness bug: the exhaustive engine once
// clipped its enumeration to the per-channel Fig. 7 box, missing minimal
// distributions that trade one buffer above the max-throughput witness
// for a smaller total.)
TEST(PropertyDifferential, ExhaustiveAndIncrementalFrontsAreIdentical) {
  for (const u64 seed : load_seeds()) {
    const sdf::Graph graph = gen::random_graph(graph_options(seed));
    buffer::DseOptions opts;
    opts.target = sdf::ActorId(graph.num_actors() - 1);

    opts.engine = buffer::DseEngine::Exhaustive;
    const buffer::DseResult exact = buffer::explore(graph, opts);
    opts.engine = buffer::DseEngine::Incremental;
    const buffer::DseResult incremental = buffer::explore(graph, opts);

    ASSERT_EQ(exact.bounds.deadlock, incremental.bounds.deadlock)
        << repro(seed, graph);
    ASSERT_EQ(curve(exact.pareto), curve(incremental.pareto))
        << repro(seed, graph);
    validate_witnesses(graph, opts.target, exact,
                       "exhaustive: " + repro(seed, graph) + "\n");
    validate_witnesses(graph, opts.target, incremental,
                       "incremental: " + repro(seed, graph) + "\n");
  }
}

// Property (b): the throughput cache (equivalence boxes + Sec. 8
// dominance) and its cap are pure accelerators — on, off, or full after a
// handful of entries, the front is the same bytes.
TEST(PropertyDifferential, CacheOnOffAndCappedFrontsAreIdentical) {
  for (const u64 seed : load_seeds()) {
    const sdf::Graph graph = gen::random_graph(graph_options(seed));
    buffer::DseOptions opts;
    opts.target = sdf::ActorId(graph.num_actors() - 1);

    const buffer::DseResult cached = buffer::explore(graph, opts);
    opts.use_throughput_cache = false;
    const buffer::DseResult uncached = buffer::explore(graph, opts);
    opts.use_throughput_cache = true;
    opts.cache_capacity = 16;  // a cache full after its first 16 entries
    const buffer::DseResult capped = buffer::explore(graph, opts);

    ASSERT_EQ(cached.pareto.str(), uncached.pareto.str())
        << repro(seed, graph);
    ASSERT_EQ(cached.pareto.str(), capped.pareto.str()) << repro(seed, graph);
    // The cache only ever skips work, never adds candidates.
    ASSERT_LE(capped.simulations_run, uncached.simulations_run)
        << repro(seed, graph);
  }
}

// Property (c): simulated maximal throughput == the HSDF/MCM reference.
// Strongly connected graphs are eventually periodic even with unbounded
// buffers, so the state-space lasso must close on exactly the maximum
// cycle ratio that the [GG93] expansion computes analytically.
TEST(PropertyDifferential, SimulatedMaxThroughputMatchesMcmReference) {
  for (const u64 seed : load_seeds()) {
    gen::RandomGraphOptions gopts = graph_options(seed);
    gopts.strongly_connected = true;
    const sdf::Graph graph = gen::random_graph(gopts);
    const sdf::ActorId target(graph.num_actors() - 1);

    const analysis::MaxThroughput reference = analysis::max_throughput(graph);
    ASSERT_FALSE(reference.deadlock) << repro(seed, graph);

    state::ThroughputOptions topts;
    topts.target = target;
    const state::ThroughputResult simulated = state::compute_throughput(
        graph, state::Capacities::unbounded(graph.num_channels()), topts);

    ASSERT_FALSE(simulated.deadlocked) << repro(seed, graph);
    ASSERT_EQ(simulated.throughput, reference.actor_throughput(target))
        << repro(seed, graph);
  }
}

// Property (d): the LP cycle cuts are sound. For every point either
// engine puts on the front, the cut upper bound at the witness's
// capacities must be at or above the throughput the simulation actually
// achieved, and the single-edge necessary floors must fit under every
// witness's per-channel capacity — a floor above any real Pareto point
// would mean the LP "proves" an achieved distribution infeasible.
TEST(PropertyDifferential, LpCutBoundsAreSoundOnEveryParetoPoint) {
  for (const u64 seed : load_seeds()) {
    const sdf::Graph graph = gen::random_graph(graph_options(seed));
    buffer::DseOptions opts;
    opts.target = sdf::ActorId(graph.num_actors() - 1);
    const buffer::DseResult exact = buffer::explore(graph, opts);

    const lp::ThroughputCuts cuts = lp::ThroughputCuts::derive(
        graph, analysis::repetition_vector(graph).counts(), opts.target);
    const std::vector<i64>& floors = cuts.necessary_floors();

    for (const buffer::ParetoPoint& p : exact.pareto.points()) {
      const std::vector<i64>& caps = p.distribution.capacities();
      // No cut may bound the witness strictly below what it achieves.
      ASSERT_FALSE(cuts.bounds_below(caps, p.throughput, /*strict=*/true))
          << repro(seed, graph) << "point " << p.distribution.str();
      if (p.throughput.is_zero()) continue;
      for (std::size_t c = 0; c < caps.size(); ++c) {
        ASSERT_LE(floors[c], caps[c])
            << repro(seed, graph) << "channel " << c << " of point "
            << p.distribution.str();
      }
    }
  }
}

// Property (e): LP pruning is invisible in the result. The exhaustive
// engine's front must be the same bytes with the bounds on or off (the
// skip test is non-strict against an armed incumbent, so no point the
// search would keep can be skipped); the incremental engine's trade-off
// curve likewise (its warm start only lifts the floor by capacities every
// non-deadlocked distribution needs anyway). Pruning may only ever remove
// simulations, never add them — a claim about the LP alone, so it is
// checked with the cache off: with it on, a candidate the LP answers
// records no equivalence box, and a later candidate may need the
// simulation that box would have saved.
TEST(PropertyDifferential, LpPruningPreservesTheFronts) {
  for (const u64 seed : load_seeds()) {
    const sdf::Graph graph = gen::random_graph(graph_options(seed));
    buffer::DseOptions opts;
    opts.target = sdf::ActorId(graph.num_actors() - 1);

    opts.engine = buffer::DseEngine::Exhaustive;
    opts.use_lp_bounds = true;
    const buffer::DseResult exh_lp = buffer::explore(graph, opts);
    opts.use_lp_bounds = false;
    const buffer::DseResult exh_plain = buffer::explore(graph, opts);
    ASSERT_EQ(exh_lp.pareto.str(), exh_plain.pareto.str())
        << repro(seed, graph);
    opts.use_throughput_cache = false;
    const buffer::DseResult exh_plain_uncached = buffer::explore(graph, opts);
    opts.use_lp_bounds = true;
    const buffer::DseResult exh_lp_uncached = buffer::explore(graph, opts);
    opts.use_throughput_cache = true;
    ASSERT_LE(exh_lp_uncached.simulations_run,
              exh_plain_uncached.simulations_run)
        << repro(seed, graph);

    opts.engine = buffer::DseEngine::Incremental;
    opts.use_lp_bounds = true;
    const buffer::DseResult inc_lp = buffer::explore(graph, opts);
    opts.use_lp_bounds = false;
    const buffer::DseResult inc_plain = buffer::explore(graph, opts);
    ASSERT_EQ(curve(inc_lp.pareto), curve(inc_plain.pareto))
        << repro(seed, graph);
    validate_witnesses(graph, opts.target, inc_lp,
                       "incremental+lp: " + repro(seed, graph) + "\n");
  }
}

// Property (f): quality=fast is sound and never flatters. Every fast
// point's witness must simulate to at least its claimed throughput (the
// periodic schedule the LP found is a real schedule; self-timed execution
// only does better), and every fast point must be weakly dominated by
// some exact Pareto point — fast trades tightness, never correctness.
TEST(PropertyDifferential, FastFrontsAreSoundAndDominatedByExact) {
  for (const u64 seed : load_seeds()) {
    const sdf::Graph graph = gen::random_graph(graph_options(seed));
    const sdf::ActorId target(graph.num_actors() - 1);

    const buffer::FastFrontResult fast = buffer::fast_front(graph, target);
    buffer::DseOptions opts;
    opts.target = target;
    const buffer::DseResult exact = buffer::explore(graph, opts);
    ASSERT_EQ(fast.bounds.deadlock, exact.bounds.deadlock)
        << repro(seed, graph);
    if (fast.bounds.deadlock) continue;

    for (const buffer::ParetoPoint& p : fast.pareto.points()) {
      state::ThroughputOptions topts;
      topts.target = target;
      const state::ThroughputResult run = state::compute_throughput(
          graph, state::Capacities::bounded(p.distribution.capacities()),
          topts);
      ASSERT_FALSE(run.deadlocked)
          << repro(seed, graph) << "fast point " << p.distribution.str();
      ASSERT_GE(run.throughput, p.throughput)
          << repro(seed, graph) << "fast point " << p.distribution.str()
          << " does not achieve its claimed throughput";

      bool dominated = false;
      for (const buffer::ParetoPoint& q : exact.pareto.points()) {
        if (q.size() <= p.size() && q.throughput >= p.throughput) {
          dominated = true;
          break;
        }
      }
      ASSERT_TRUE(dominated)
          << repro(seed, graph) << "fast point " << p.distribution.str()
          << " (" << p.throughput.str()
          << ") is not dominated by any exact point";
    }
  }
}

// Property (h): the SIMD backend is invisible in the result. Both
// engines must reproduce the oracle's front (tests/oracle.hpp) byte for
// byte — witnesses included — under the lane kernel compiled at the
// baseline ISA (swar) and, when the host has it, at -mavx2 (avx2), at a
// seed-varied lane width. This sweeps the whole lane machinery per DESIGN.md §15: SoA
// packing, masked retirement/refill, the i64/i32 width election and the
// per-lane witness extraction feeding the caches.
TEST(PropertyDifferential, FrontsAreByteIdenticalUnderEveryLaneBackend) {
  std::vector<state::SimdBackend> lane_backends{state::SimdBackend::Swar};
  if (state::backend_available(state::SimdBackend::Avx2)) {
    lane_backends.push_back(state::SimdBackend::Avx2);
  }
  for (const u64 seed : load_seeds()) {
    const sdf::Graph graph = gen::random_graph(graph_options(seed));
    const sdf::ActorId target(graph.num_actors() - 1);
    buffer::DseOptions opts;
    opts.target = target;
    // Walk the whole [1, 64] lane range across the seed sweep, including
    // the single-lane degenerate batch.
    opts.simd_lanes = 1 + seed % state::kMaxLanes;

    for (const buffer::DseEngine engine :
         {buffer::DseEngine::Exhaustive, buffer::DseEngine::Incremental}) {
      opts.engine = engine;
      const buffer::DseResult oracle =
          buffer::explore(graph, testing::oracle_options(target, engine));
      for (const state::SimdBackend backend : lane_backends) {
        opts.simd = backend;
        const buffer::DseResult lanes = buffer::explore(graph, opts);
        ASSERT_EQ(oracle.pareto.str(), lanes.pareto.str())
            << repro(seed, graph) << "engine "
            << (engine == buffer::DseEngine::Exhaustive ? "exh" : "inc")
            << " backend " << state::backend_name(backend) << " lanes "
            << opts.simd_lanes;
      }
    }
  }
}

// Every field of a Fig. 7 bounds result, for byte comparison.
std::string bounds_str(const buffer::DesignSpaceBounds& b) {
  return "deadlock " + std::to_string(b.deadlock) + " lb " +
         b.per_channel_lb.str() + " (" + std::to_string(b.lb_size) +
         ") ub " + b.max_throughput_distribution.str() + " (" +
         std::to_string(b.ub_size) + ") max " + b.max_throughput.str();
}

// A DSE result's front, bounds and every engine counter a response
// carries (all but the wall-clock seconds).
std::string result_str(const buffer::DseResult& r) {
  return r.pareto.str() + bounds_str(r.bounds) + " distributions " +
         std::to_string(r.distributions_explored) + " sims " +
         std::to_string(r.simulations_run) + " hits " +
         std::to_string(r.cache_hits) + " dominance " +
         std::to_string(r.dominance_skips) + " lp_prunes " +
         std::to_string(r.lp_prunes) + " lp_cuts " +
         std::to_string(r.lp_cuts) + " narrow " +
         std::to_string(r.static_narrow) + " states " +
         std::to_string(r.max_states_stored) + " cancelled " +
         std::to_string(r.cancelled);
}

std::string fast_str(const buffer::FastFrontResult& r) {
  return r.pareto.str() + bounds_str(r.bounds) + " solves " +
         std::to_string(r.lp_solves) + " overflows " +
         std::to_string(r.lp_overflows) + " pivots " +
         std::to_string(r.lp_pivots) + " cuts " + std::to_string(r.lp_cuts);
}

// Property (i): precomputed bounds are invisible. buffyd's cache registry
// computes a graph's MCM and Fig. 7 bounds once and hands them to every
// request through the bounds-taking overloads; those must return exactly
// what the overloads that compute the bounds themselves return — fronts,
// witnesses and counters — for both engines and the fast tier, and the
// bounds derived from a given MCM (with or without a reusable solver, as
// the registry computes them) must equal the self-contained derivation.
TEST(PropertyDifferential, PrecomputedBoundsAndMcmGiveByteIdenticalResults) {
  for (const u64 seed : load_seeds()) {
    const sdf::Graph graph = gen::random_graph(graph_options(seed));
    const sdf::ActorId target(graph.num_actors() - 1);

    buffer::DseOptions opts;
    opts.target = target;
    const buffer::DesignSpaceBounds bounds =
        buffer::design_space_bounds(graph, target, opts.max_steps_per_run);
    const analysis::MaxThroughput mt = analysis::max_throughput(graph);
    ASSERT_EQ(bounds_str(buffer::design_space_bounds(graph, target, mt)),
              bounds_str(bounds))
        << repro(seed, graph);
    state::ThroughputSolver solver(graph);
    ASSERT_EQ(bounds_str(buffer::design_space_bounds(
                  graph, target, mt, opts.max_steps_per_run, &solver)),
              bounds_str(bounds))
        << repro(seed, graph);

    for (const buffer::DseEngine engine :
         {buffer::DseEngine::Exhaustive, buffer::DseEngine::Incremental}) {
      opts.engine = engine;
      ASSERT_EQ(result_str(buffer::explore(graph, opts, bounds)),
                result_str(buffer::explore(graph, opts)))
          << repro(seed, graph) << "engine "
          << (engine == buffer::DseEngine::Exhaustive ? "exh" : "inc");
    }
    ASSERT_EQ(fast_str(buffer::fast_front(graph, target, 8, bounds)),
              fast_str(buffer::fast_front(graph, target)))
        << repro(seed, graph);
  }
}

std::string run_signature(const state::ThroughputResult& r) {
  std::ostringstream out;
  out << r.deadlocked << ' ' << r.throughput << " states " << r.states_stored
      << " cycle " << r.cycle_start_time << '+' << r.period << " firings "
      << r.firings_on_cycle << " time " << r.time_steps << " deps";
  for (const sdf::ChannelId c : r.storage_deps) out << ' ' << c.index();
  out << " demand";
  for (const i64 d : r.demand) out << ' ' << d;
  return out.str();
}

// The channels whose space check failed in a run at `caps`.
std::vector<sdf::ChannelId> blocked_of(const state::ThroughputResult& r,
                                       const std::vector<i64>& caps) {
  std::vector<sdf::ChannelId> blocked;
  for (std::size_t c = 0; c < caps.size(); ++c) {
    if (r.demand[c] > caps[c]) blocked.emplace_back(c);
  }
  return blocked;
}

std::string caps_str(const std::vector<i64>& caps) {
  std::ostringstream out;
  for (const i64 c : caps) out << ' ' << c;
  return out.str();
}

// Graphs up to this repetition-vector sum also check every box corner
// against the analytic oracle, whose HSDF expansion has sum(q) nodes. The
// sweep's family (at most 6 actors, q <= 3) stays under it today; the cap
// keeps the check cheap if the family grows.
constexpr i64 kAnalyticMaxIterationSize = 18;

// Property (g): every equivalence box the exhaustive engine records
// (DESIGN.md §7) holds. The engine runs its default lane path with a
// caller-owned cache; each recorded box's corner (the capacities on the
// blocked channels, the demand floor elsewhere) and a random point above
// the corner off the blocked channels are re-simulated by the scalar
// solver. Both must give the identical ThroughputResult, storage
// dependencies included, carrying the recorded outcome. On small graphs
// the corner's throughput and deadlock verdict are also checked against
// testing::throughput_at, which shares no code with the state space —
// deadlocked candidates are answered only by boxes or simulations.
TEST(PropertyDifferential, EveryRecordedBoxReplaysItsRun) {
  std::size_t boxes = 0;
  std::size_t analytic = 0;
  std::size_t analytic_deadlocks = 0;
  for (const u64 seed : load_seeds()) {
    const sdf::Graph graph = gen::random_graph(graph_options(seed));
    const sdf::ActorId target(graph.num_actors() - 1);
    buffer::DseOptions opts;
    opts.target = target;
    opts.engine = buffer::DseEngine::Exhaustive;
    const buffer::DesignSpaceBounds bounds = buffer::design_space_bounds(
        graph, target, opts.max_steps_per_run);
    if (bounds.deadlock) continue;
    buffer::ThroughputCache cache(bounds.max_throughput);
    opts.shared_cache = &cache;
    (void)buffer::explore(graph, opts, bounds);
    const analysis::RepetitionVector q = analysis::repetition_vector(graph);
    const bool check_analytic =
        std::accumulate(q.counts().begin(), q.counts().end(), i64{0}) <=
        kAnalyticMaxIterationSize;

    Rng rng(seed);
    state::ThroughputOptions run_opts{.target = target};
    run_opts.collect_storage_deps = true;
    run_opts.collect_box = true;
    for (const buffer::ThroughputCache::BoxRecord& box :
         cache.boxes_for_test()) {
      ++boxes;
      std::vector<i64> interior = box.corner;
      for (std::size_t c = 0; c < interior.size(); ++c) {
        if (std::ranges::find(box.blocked, sdf::ChannelId(c)) ==
            box.blocked.end()) {
          interior[c] += rng.uniform(0, 3);
        }
      }
      const state::ThroughputResult corner = state::compute_throughput(
          graph, state::Capacities::bounded(box.corner), run_opts);
      const state::ThroughputResult inside = state::compute_throughput(
          graph, state::Capacities::bounded(interior), run_opts);
      const std::string where = repro(seed, graph) + "corner" +
                                caps_str(box.corner) + ", interior" +
                                caps_str(interior);
      ASSERT_EQ(run_signature(corner), run_signature(inside)) << where;
      ASSERT_EQ(blocked_of(corner, box.corner), box.blocked) << where;
      ASSERT_EQ(blocked_of(inside, interior), box.blocked) << where;
      ASSERT_EQ(corner.throughput, box.value.throughput) << where;
      ASSERT_EQ(corner.deadlocked, box.value.deadlocked) << where;
      ASSERT_EQ(corner.states_stored, box.value.states_stored) << where;
      ASSERT_EQ(corner.cycle_start_time, box.value.cycle_start_time) << where;
      ASSERT_EQ(corner.period, box.value.period) << where;
      if (!check_analytic) continue;
      const testing::AnalyticThroughput reference =
          testing::throughput_at(graph, target, box.corner);
      ASSERT_EQ(reference.deadlocked, box.value.deadlocked) << where;
      ASSERT_EQ(reference.throughput, box.value.throughput) << where;
      ++analytic;
      if (reference.deadlocked) ++analytic_deadlocks;
    }
  }
  EXPECT_GT(boxes, 0u);
  EXPECT_GT(analytic, 0u);
  EXPECT_GT(analytic_deadlocks, 0u);
}

// The pinned list itself: losing seeds would silently weaken the sweep.
TEST(PropertyDifferential, SeedListHoldsAtLeastTwoHundredSeeds) {
  EXPECT_GE(load_seeds().size(), 200u);
}

}  // namespace
}  // namespace buffy
