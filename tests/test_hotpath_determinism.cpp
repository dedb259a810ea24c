// Determinism of the optimised throughput hot path: for every engine, the
// Pareto front must be byte-identical to the oracle's (tests/oracle.hpp)
// with the throughput cache on or off — the Sec. 8
// dominance answers are exact, so no configuration may change a fold
// result. Also the regression suite for the fused storage-dependency
// collection (it must reproduce buffer::storage_dependencies).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "buffer/bounds.hpp"
#include "buffer/dse.hpp"
#include "buffer/dse_incremental.hpp"
#include "gen/random_graph.hpp"
#include "models/models.hpp"
#include "oracle.hpp"
#include "state/throughput.hpp"

namespace buffy::buffer {
namespace {

std::string front_signature(const DseResult& result) {
  std::ostringstream out;
  for (const ParetoPoint& p : result.pareto.points()) {
    out << p.throughput << " @";
    for (const i64 c : p.distribution.capacities()) out << ' ' << c;
    out << '\n';
  }
  return out.str();
}

// Runs the default evaluation path (lane backend, LP bounds) with the
// cache off and on and expects the oracle's front both times.
// `oracle` carries the engine, target and any extra inputs (quantisation,
// binding, ...).
void expect_identical_fronts(const sdf::Graph& graph,
                             const DseOptions& oracle) {
  const DseResult baseline = explore(graph, oracle);
  const std::string want = front_signature(baseline);
  EXPECT_FALSE(baseline.pareto.empty());

  for (const bool cache : {false, true}) {
    DseOptions opts = oracle;
    opts.simd = DseOptions{}.simd;
    opts.use_lp_bounds = DseOptions{}.use_lp_bounds;
    opts.use_throughput_cache = cache;
    const DseResult run = explore(graph, opts);
    EXPECT_EQ(front_signature(run), want)
        << "divergent front: cache=" << cache;
  }
}

DseOptions options_for(const sdf::Graph& graph, DseEngine engine) {
  return testing::oracle_options(models::reported_actor(graph), engine);
}

TEST(HotpathDeterminism, PaperExampleBothEngines) {
  const sdf::Graph g = models::paper_example();
  expect_identical_fronts(g, options_for(g, DseEngine::Exhaustive));
  expect_identical_fronts(g, options_for(g, DseEngine::Incremental));
}

TEST(HotpathDeterminism, Fig6DiamondBothEngines) {
  const sdf::Graph g = models::fig6_diamond();
  expect_identical_fronts(g, options_for(g, DseEngine::Exhaustive));
  expect_identical_fronts(g, options_for(g, DseEngine::Incremental));
}

TEST(HotpathDeterminism, SamplerateBothEngines) {
  const sdf::Graph g = models::samplerate_converter();
  expect_identical_fronts(g, options_for(g, DseEngine::Exhaustive));
  expect_identical_fronts(g, options_for(g, DseEngine::Incremental));
}

TEST(HotpathDeterminism, ModemIncremental) {
  const sdf::Graph g = models::modem();
  expect_identical_fronts(g, options_for(g, DseEngine::Incremental));
}

TEST(HotpathDeterminism, QuantizedSamplerateIncremental) {
  const sdf::Graph g = models::samplerate_converter();
  DseOptions opts = options_for(g, DseEngine::Incremental);
  opts.quantization_levels = 3;
  expect_identical_fronts(g, opts);
}

TEST(HotpathDeterminism, BoundIncrementalDisablesDominanceSafely) {
  // Under a processor binding throughput is not monotone in the storage
  // distribution, so the engines must not use dominance answers — the
  // cached configurations still have to match the uncached ones.
  const sdf::Graph g = models::fig6_diamond();
  DseOptions opts = options_for(g, DseEngine::Incremental);
  opts.binding = std::vector<std::size_t>(g.num_actors(), 0);
  opts.binding.back() = 1;
  expect_identical_fronts(g, opts);
}

TEST(HotpathDeterminism, SeededRandomGraphs) {
  for (const u64 seed : {3u, 11u, 27u}) {
    gen::RandomGraphOptions gopts;
    gopts.num_actors = 6;
    gopts.max_repetition = 3;
    gopts.strongly_connected = true;
    gopts.seed = seed;
    const sdf::Graph g = gen::random_graph(gopts);
    expect_identical_fronts(g, options_for(g, DseEngine::Incremental));
  }
}

TEST(HotpathDeterminism, SmallRandomGraphExhaustive) {
  gen::RandomGraphOptions gopts;
  gopts.num_actors = 4;
  gopts.max_repetition = 2;
  gopts.strongly_connected = true;
  gopts.seed = 5;
  const sdf::Graph g = gen::random_graph(gopts);
  expect_identical_fronts(g, options_for(g, DseEngine::Exhaustive));
}

TEST(HotpathCounters, ExhaustiveDominanceSkipsTheMaxWitness) {
  // The Fig. 7 max-throughput distribution seeds the witness set, so the
  // exhaustive engine's evaluation of the top size is answered by
  // dominance instead of a simulation.
  const sdf::Graph g = models::paper_example();
  const DseResult run = explore(
      g, DseOptions{.target = models::reported_actor(g),
                    .engine = DseEngine::Exhaustive});
  EXPECT_GE(run.dominance_skips, 1u);
  EXPECT_EQ(run.simulations_run + run.cache_hits + run.dominance_skips,
            run.distributions_explored);
}

// --- fused storage-dependency collection vs the reference definition ---

std::vector<sdf::ChannelId> fused_deps(const sdf::Graph& graph,
                                       const std::vector<i64>& caps,
                                       state::ThroughputSolver& solver,
                                       const std::vector<std::size_t>& binding =
                                           {}) {
  state::ThroughputOptions opts{.target = models::reported_actor(graph)};
  opts.processor_of = binding;
  opts.collect_storage_deps = true;
  return solver.compute(state::Capacities::bounded(caps), opts).storage_deps;
}

void expect_deps_match_reference(const sdf::Graph& graph,
                                 const std::vector<i64>& caps,
                                 state::ThroughputSolver& solver,
                                 const std::vector<std::size_t>& binding = {}) {
  state::ThroughputOptions opts{.target = models::reported_actor(graph)};
  opts.processor_of = binding;
  const auto run =
      state::compute_throughput(graph, state::Capacities::bounded(caps), opts);
  const auto reference = storage_dependencies(
      graph, state::Capacities::bounded(caps), run.cycle_start_time,
      run.period, binding);
  std::ostringstream label;
  for (const i64 c : caps) label << c << ' ';
  EXPECT_EQ(fused_deps(graph, caps, solver, binding), reference)
      << "caps: " << label.str();
}

// Every capacity vector the incremental exploration would evaluate, plus
// the box corners: the fused collection must agree with the two-pass
// reference on all of them (satellite graphs included via the random seeds
// of the determinism suite above).
TEST(StorageDepsRegression, MatchesReferenceAcrossTheDesignSpace) {
  for (const auto& model :
       {models::paper_example(), models::fig6_diamond(), models::modem()}) {
    const sdf::ActorId target = models::reported_actor(model);
    const DesignSpaceBounds bounds = design_space_bounds(model, target);
    ASSERT_FALSE(bounds.deadlock);
    state::ThroughputSolver solver(model);

    const std::vector<i64> lb = bounds.per_channel_lb.capacities();
    const std::vector<i64> mtd =
        bounds.max_throughput_distribution.capacities();
    expect_deps_match_reference(model, lb, solver);
    expect_deps_match_reference(model, mtd, solver);
    for (std::size_t c = 0; c < lb.size(); ++c) {
      std::vector<i64> bumped = lb;
      bumped[c] += 1;
      expect_deps_match_reference(model, bumped, solver);
    }
  }
}

TEST(StorageDepsRegression, DeadlockedRunsReportTheWholeExecution) {
  // Below the analytic lower bound the example graph deadlocks; dependency
  // collection must then cover the whole run (window start 0), exactly as
  // the reference does.
  const sdf::Graph g = models::paper_example();
  state::ThroughputSolver solver(g);
  expect_deps_match_reference(g, {3, 1}, solver);
  expect_deps_match_reference(g, {2, 2}, solver);
}

TEST(StorageDepsRegression, MatchesReferenceUnderABinding) {
  const sdf::Graph g = models::fig6_diamond();
  const sdf::ActorId target = models::reported_actor(g);
  const DesignSpaceBounds bounds = design_space_bounds(g, target);
  state::ThroughputSolver solver(g);
  std::vector<std::size_t> binding(g.num_actors(), 0);
  binding.back() = 1;
  expect_deps_match_reference(g, bounds.per_channel_lb.capacities(), solver,
                              binding);
  expect_deps_match_reference(
      g, bounds.max_throughput_distribution.capacities(), solver, binding);
}

// The solver arena is reused across runs; repeated computations over the
// same graph must not leak state between runs.
TEST(StorageDepsRegression, SolverReuseDoesNotLeakDepsBetweenRuns) {
  const sdf::Graph g = models::paper_example();
  state::ThroughputSolver solver(g);
  const auto first = fused_deps(g, {4, 2}, solver);
  EXPECT_FALSE(first.empty());
  // A later run with different capacities must reproduce the reference
  // exactly despite the recycled engine and arena (no stale instants).
  const sdf::ActorId target = models::reported_actor(g);
  expect_deps_match_reference(g, {6, 2}, solver);
  expect_deps_match_reference(g, {4, 2}, solver);
  // And collection off must not report anything even right after a
  // collecting run.
  state::ThroughputOptions opts{.target = target};
  const auto plain = solver.compute(state::Capacities::bounded({4, 2}), opts);
  EXPECT_TRUE(plain.storage_deps.empty());
}

}  // namespace
}  // namespace buffy::buffer
