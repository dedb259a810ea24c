#include "buffer/dse.hpp"

#include <gtest/gtest.h>

#include "analysis/repetition_vector.hpp"
#include "base/diagnostics.hpp"
#include "buffer/dse_exact.hpp"
#include "gen/random_graph.hpp"
#include "models/models.hpp"
#include "sdf/builder.hpp"
#include "state/throughput.hpp"

namespace buffy::buffer {
namespace {

DseOptions options_for(const sdf::Graph& g, DseEngine engine) {
  return DseOptions{.target = models::reported_actor(g), .engine = engine};
}

void expect_example_pareto(const DseResult& r) {
  // The paper's Fig. 5 staircase: sizes 6, 8, 9, 10 with throughputs
  // 1/7, 1/6, 1/5, 1/4.
  ASSERT_EQ(r.pareto.size(), 4u);
  const auto& pts = r.pareto.points();
  EXPECT_EQ(pts[0].size(), 6);
  EXPECT_EQ(pts[0].throughput, Rational(1, 7));
  EXPECT_EQ(pts[1].size(), 8);
  EXPECT_EQ(pts[1].throughput, Rational(1, 6));
  EXPECT_EQ(pts[2].size(), 9);
  EXPECT_EQ(pts[2].throughput, Rational(1, 5));
  EXPECT_EQ(pts[3].size(), 10);
  EXPECT_EQ(pts[3].throughput, Rational(1, 4));
}

TEST(DseExhaustive, ExampleMatchesFig5) {
  const sdf::Graph g = models::paper_example();
  const auto r = explore(g, options_for(g, DseEngine::Exhaustive));
  expect_example_pareto(r);
  EXPECT_EQ(r.bounds.lb_size, 6);
  EXPECT_EQ(r.bounds.max_throughput, Rational(1, 4));
}

TEST(DseIncremental, ExampleMatchesFig5) {
  const sdf::Graph g = models::paper_example();
  const auto r = explore(g, options_for(g, DseEngine::Incremental));
  expect_example_pareto(r);
}

TEST(Dse, SmallestDistributionIsThePaperExampleOne) {
  const sdf::Graph g = models::paper_example();
  const auto r = explore(g, options_for(g, DseEngine::Incremental));
  EXPECT_EQ(r.pareto.points().front().distribution.str(), "<4, 2>");
}

TEST(Dse, ParetoDistributionsRealiseTheirThroughput) {
  const sdf::Graph g = models::paper_example();
  const auto r = explore(g, options_for(g, DseEngine::Exhaustive));
  for (const ParetoPoint& p : r.pareto.points()) {
    const auto run = state::compute_throughput(
        g, p.distribution.capacities(), *g.find_actor("c"));
    EXPECT_EQ(run.throughput, p.throughput) << p.distribution.str();
  }
}

TEST(Dse, Fig6MinimalDistributionsNotUnique) {
  // The paper notes that <1,2,3,3> and <2,1,3,3> realise the same
  // throughput for actor d: check both do, and that the explored minimum
  // has their common size.
  const sdf::Graph g = models::fig6_diamond();
  const sdf::ActorId d = *g.find_actor("d");
  const auto t1 =
      state::compute_throughput(g, {1, 2, 3, 3}, d).throughput;
  const auto t2 =
      state::compute_throughput(g, {2, 1, 3, 3}, d).throughput;
  EXPECT_EQ(t1, t2);
  EXPECT_GT(t1, Rational(0));
}

TEST(Dse, EnginesAgreeOnFig6) {
  const sdf::Graph g = models::fig6_diamond();
  const auto exh = explore(g, options_for(g, DseEngine::Exhaustive));
  const auto inc = explore(g, options_for(g, DseEngine::Incremental));
  ASSERT_EQ(exh.pareto.size(), inc.pareto.size());
  for (std::size_t i = 0; i < exh.pareto.size(); ++i) {
    EXPECT_EQ(exh.pareto.points()[i].size(), inc.pareto.points()[i].size());
    EXPECT_EQ(exh.pareto.points()[i].throughput,
              inc.pareto.points()[i].throughput);
  }
}

TEST(Dse, ThroughputGoalStopsEarly) {
  const sdf::Graph g = models::paper_example();
  auto opts = options_for(g, DseEngine::Incremental);
  opts.throughput_goal = Rational(1, 6);
  const auto r = explore(g, opts);
  ASSERT_GE(r.pareto.size(), 2u);
  EXPECT_EQ(r.pareto.points().back().throughput, Rational(1, 6));
}

TEST(Dse, MaxDistributionSizeTruncatesTheCurve) {
  const sdf::Graph g = models::paper_example();
  for (const DseEngine engine :
       {DseEngine::Exhaustive, DseEngine::Incremental}) {
    auto opts = options_for(g, engine);
    opts.max_distribution_size = 8;
    const auto r = explore(g, opts);
    ASSERT_EQ(r.pareto.size(), 2u);
    EXPECT_EQ(r.pareto.points().back().throughput, Rational(1, 6));
  }
}

TEST(Dse, QuantizationCollapsesLevels) {
  const sdf::Graph g = models::paper_example();
  auto opts = options_for(g, DseEngine::Incremental);
  opts.quantization = Rational(1, 10);  // grid 0, 1/10, 2/10, ...
  const auto r = explore(g, opts);
  // 1/7 and 1/6 both floor to 1/10; 1/5 and 1/4 both floor to 2/10.
  ASSERT_EQ(r.pareto.size(), 2u);
  EXPECT_EQ(r.pareto.points()[0].throughput, Rational(1, 10));
  EXPECT_EQ(r.pareto.points()[0].size(), 6);
  EXPECT_EQ(r.pareto.points()[1].throughput, Rational(1, 5));
  EXPECT_EQ(r.pareto.points()[1].size(), 9);
}

TEST(Dse, QuantizationLevelsConvenience) {
  // With N levels, anything within one grid step of the maximum counts as
  // the maximum, so the search stops early. levels = 2 means "within half
  // of the maximal throughput is good enough": the very first feasible
  // distribution (size 6, raw 1/7 >= 1/8) already qualifies.
  const sdf::Graph g = models::paper_example();
  auto opts = options_for(g, DseEngine::Incremental);
  opts.quantization_levels = 2;  // step = (1/4)/2 = 1/8, goal = 1/8
  const auto r = explore(g, opts);
  ASSERT_EQ(r.pareto.size(), 1u);
  EXPECT_EQ(r.pareto.points()[0].throughput, Rational(1, 8));
  EXPECT_EQ(r.pareto.points()[0].size(), 6);
  EXPECT_LE(r.distributions_explored, 2u);
}

TEST(Dse, QuantizationLevelsFinerGridKeepsMorePoints) {
  const sdf::Graph g = models::paper_example();
  auto opts = options_for(g, DseEngine::Incremental);
  opts.quantization_levels = 100;  // step = 1/400, goal = 99/400
  const auto r = explore(g, opts);
  // All four raw levels survive a fine grid, and the search stops at 1/4
  // (raw 1/4 >= 99/400).
  ASSERT_EQ(r.pareto.size(), 4u);
  EXPECT_EQ(r.pareto.points()[3].size(), 10);
  // Quantised value of 1/4 on the 1/400 grid is exactly 1/4.
  EXPECT_EQ(r.pareto.points()[3].throughput, Rational(1, 4));
}

TEST(Dse, MinThroughputFiltersTheFront) {
  // Sec. 10: the user may restrict the throughput region of interest.
  const sdf::Graph g = models::paper_example();
  auto opts = options_for(g, DseEngine::Incremental);
  opts.min_throughput = Rational(1, 5);
  const auto r = explore(g, opts);
  ASSERT_EQ(r.pareto.size(), 2u);
  EXPECT_EQ(r.pareto.points()[0].throughput, Rational(1, 5));
  EXPECT_EQ(r.pareto.points()[0].size(), 9);
  EXPECT_EQ(r.pareto.points()[1].throughput, Rational(1, 4));
}

TEST(Dse, MinThroughputAboveMaxGivesEmptyFront) {
  const sdf::Graph g = models::paper_example();
  auto opts = options_for(g, DseEngine::Exhaustive);
  opts.min_throughput = Rational(1, 2);
  const auto r = explore(g, opts);
  EXPECT_TRUE(r.pareto.empty());
  EXPECT_EQ(r.bounds.max_throughput, Rational(1, 4));
}

TEST(Dse, QuantizeDownHelper) {
  EXPECT_EQ(quantize_down(Rational(1, 7), std::nullopt), Rational(1, 7));
  EXPECT_EQ(quantize_down(Rational(1, 7), Rational(1, 10)), Rational(1, 10));
  EXPECT_EQ(quantize_down(Rational(1, 4), Rational(1, 10)), Rational(1, 5));
  EXPECT_EQ(quantize_down(Rational(1, 20), Rational(1, 10)), Rational(0));
  EXPECT_EQ(quantize_down(Rational(3, 10), Rational(1, 10)), Rational(3, 10));
  EXPECT_THROW((void)quantize_down(Rational(1), Rational(0)), Error);
}

TEST(Dse, DeadlockedGraphYieldsEmptyPareto) {
  sdf::GraphBuilder b("dead");
  const auto a = b.actor("a", 1);
  const auto bb = b.actor("b", 1);
  b.channel("ab", a, 1, bb, 1);
  b.channel("ba", bb, 1, a, 1);
  const sdf::Graph g = b.build();
  const auto r = explore(g, DseOptions{.target = a});
  EXPECT_TRUE(r.bounds.deadlock);
  EXPECT_TRUE(r.pareto.empty());
}

// The degenerate-cycle regression (DESIGN.md §13): a self-loop whose
// initial tokens are below its consumption rate can never fire, so the
// whole pipeline must classify the graph as deadlocked — the MCM layer
// sees a zero-token cycle (test_mcm.cpp), the LP layer refuses the model
// with a structured DeadSelfLoop diagnostic (test_lp.cpp), and here both
// engines report deadlock with an empty front instead of crashing or
// dividing by zero, with the LP bounds on or off.
TEST(Dse, DeadSelfLoopYieldsDeadlockNotACrash) {
  sdf::GraphBuilder b("dead-self-loop");
  const auto a = b.actor("a", 1);
  const auto bb = b.actor("b", 2);
  b.channel("ab", a, 1, bb, 1, 1);
  b.channel("ba", bb, 1, a, 1, 1);
  b.channel("self", bb, 2, bb, 2, 1);  // 1 token < consumption 2: dead
  const sdf::Graph g = b.build();

  for (const DseEngine engine : {DseEngine::Exhaustive, DseEngine::Incremental}) {
    for (const bool lp : {true, false}) {
      DseOptions opts{.target = a, .engine = engine};
      opts.use_lp_bounds = lp;
      const auto r = explore(g, opts);
      EXPECT_TRUE(r.bounds.deadlock);
      EXPECT_TRUE(r.pareto.empty());
    }
  }
}

TEST(Dse, InconsistentGraphThrows) {
  sdf::GraphBuilder b("bad");
  const auto a = b.actor("a", 1);
  const auto bb = b.actor("b", 1);
  b.channel("c1", a, 1, bb, 2);
  b.channel("c2", a, 1, bb, 1);
  const sdf::Graph g = b.build();
  EXPECT_THROW((void)explore(g, DseOptions{.target = a}), ConsistencyError);
}

TEST(Dse, InvalidTargetThrows) {
  EXPECT_THROW(
      (void)explore(models::paper_example(), DseOptions{.target = {}}), Error);
}

TEST(Dse, MaxDistributionsBudgetEnforced) {
  const sdf::Graph g = models::samplerate_converter();
  auto opts = options_for(g, DseEngine::Incremental);
  opts.max_distributions = 3;
  EXPECT_THROW((void)explore(g, opts), Error);
}


TEST(Dse, ThreadsOtherThanOneAreRejected) {
  // Explorations are single-threaded; a thread request is an error that
  // names the field, never a silently ignored knob.
  const sdf::Graph g = models::samplerate_converter();
  for (const auto engine : {DseEngine::Exhaustive, DseEngine::Incremental}) {
    auto opts = options_for(g, engine);
    for (const unsigned threads : {0u, 2u}) {
      opts.threads = threads;
      try {
        (void)explore(g, opts);
        FAIL() << "threads = " << threads << " was accepted";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("DseOptions::threads"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  // The fleet's per-slice entry point holds the same contract: a slice
  // request that is valid at one thread is rejected at two.
  auto opts = options_for(g, DseEngine::Exhaustive);
  const DesignSpaceBounds bounds = design_space_bounds(g, opts.target);
  const SlicePlan plan = exhaustive_slice_plan(g, opts, bounds);
  const SliceRequest request{.size = plan.lo_size, .slice_goal = plan.goal};
  EXPECT_NO_THROW((void)explore_size_slice(g, opts, bounds, request));
  opts.threads = 2;
  EXPECT_THROW((void)explore_size_slice(g, opts, bounds, request), Error);
}

// Property: the incremental engine finds exactly the exhaustive engine's
// Pareto staircase on random graphs small enough to enumerate.
class EngineEquivalence : public ::testing::TestWithParam<u64> {};

TEST_P(EngineEquivalence, IncrementalMatchesExhaustive) {
  const sdf::Graph g = gen::random_graph(gen::RandomGraphOptions{
      .num_actors = 4,
      .max_repetition = 2,
      .max_execution_time = 3,
      .max_rate_scale = 1,
      .extra_edge_fraction = 0.4,
      .seed = GetParam()});
  const sdf::ActorId target(g.num_actors() - 1);
  DseOptions opts{.target = target, .engine = DseEngine::Exhaustive};
  opts.max_distributions = 2'000'000;
  const auto exh = explore(g, opts);
  opts.engine = DseEngine::Incremental;
  const auto inc = explore(g, opts);
  ASSERT_EQ(exh.pareto.size(), inc.pareto.size()) << "seed " << GetParam();
  for (std::size_t i = 0; i < exh.pareto.size(); ++i) {
    EXPECT_EQ(exh.pareto.points()[i].size(), inc.pareto.points()[i].size())
        << "seed " << GetParam() << " point " << i;
    EXPECT_EQ(exh.pareto.points()[i].throughput,
              inc.pareto.points()[i].throughput)
        << "seed " << GetParam() << " point " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalence, ::testing::Range<u64>(1, 25));

}  // namespace
}  // namespace buffy::buffer
