// Per-channel capacity constraints on the DSE (paper Sec. 8: distributed
// memories expressed "as extra constraints on the channel capacities") and
// the enumeration of equal minimal distributions (Fig. 6).
#include <gtest/gtest.h>

#include <algorithm>

#include "base/diagnostics.hpp"
#include "buffer/dse.hpp"
#include "buffer/dse_exact.hpp"
#include "models/models.hpp"
#include "sdf/builder.hpp"
#include "state/simd_backend.hpp"
#include "state/throughput.hpp"

namespace buffy::buffer {
namespace {

DseOptions base_options(const sdf::Graph& g, DseEngine engine) {
  return DseOptions{.target = models::reported_actor(g), .engine = engine};
}

class ConstraintEngines : public ::testing::TestWithParam<DseEngine> {};

TEST_P(ConstraintEngines, CeilingTruncatesTheFront) {
  // alpha capped at 6: the example can reach 1/5 (via <6,3>) but not 1/4
  // (which needs alpha = 7).
  const sdf::Graph g = models::paper_example();
  auto opts = base_options(g, GetParam());
  opts.channel_constraints.resize(2);
  opts.channel_constraints[0].max = 6;
  const auto r = explore(g, opts);
  ASSERT_FALSE(r.pareto.empty());
  EXPECT_FALSE(r.constraints_infeasible);
  EXPECT_EQ(r.pareto.points().back().throughput, Rational(1, 5));
  for (const ParetoPoint& p : r.pareto.points()) {
    EXPECT_LE(p.distribution[std::size_t{0}], 6);
  }
}

TEST_P(ConstraintEngines, FloorRaisesTheStart) {
  // alpha must be at least 6: the cheap <4, 2> point disappears, the first
  // feasible point starts at size 8 with throughput 1/6.
  const sdf::Graph g = models::paper_example();
  auto opts = base_options(g, GetParam());
  opts.channel_constraints.resize(2);
  opts.channel_constraints[0].min = 6;
  const auto r = explore(g, opts);
  ASSERT_FALSE(r.pareto.empty());
  EXPECT_EQ(r.pareto.points().front().size(), 8);
  EXPECT_EQ(r.pareto.points().front().throughput, Rational(1, 6));
  EXPECT_EQ(r.pareto.points().back().throughput, Rational(1, 4));
}

TEST_P(ConstraintEngines, BothEnginesAgreeUnderConstraints) {
  const sdf::Graph g = models::paper_example();
  auto opts = base_options(g, GetParam());
  opts.channel_constraints.resize(2);
  opts.channel_constraints[0].max = 6;
  opts.channel_constraints[1].min = 3;
  const auto r = explore(g, opts);
  // Reference by direct probing: best throughput within the constrained box.
  for (const ParetoPoint& p : r.pareto.points()) {
    EXPECT_LE(p.distribution[std::size_t{0}], 6);
    EXPECT_GE(p.distribution[std::size_t{1}], 3);
    const auto probe = state::compute_throughput(
        g, p.distribution.capacities(), *g.find_actor("c"));
    EXPECT_EQ(probe.throughput, p.throughput);
  }
}

// A user floor off the channel's capacity lattice (DESIGN.md §2): on a
// g = 2 channel with one initial token the aligned capacities are odd, so
// a floor of 12 runs like 11 and the climb steps it straight to 13. Both
// engines must still give the front of the plain enumeration, and every
// witness on that channel is the floor itself or an aligned capacity.
TEST_P(ConstraintEngines, UnalignedFloorStepsOntoTheLattice) {
  sdf::GraphBuilder b("stepped");
  const auto a = b.actor("a", 1);
  const auto mid = b.actor("b", 2);
  const auto c = b.actor("c", 1);
  b.channel("ab", a, 4, mid, 6, 1);
  b.channel("bc", mid, 6, c, 4, 0);
  b.channel("ca", c, 2, a, 2, 6);
  const sdf::Graph g = b.build();
  DseOptions opts{.target = c, .engine = DseEngine::Exhaustive};
  opts.channel_constraints.resize(3);
  opts.channel_constraints[0].min = 12;
  opts.use_throughput_cache = false;
  opts.use_lp_bounds = false;
  opts.simd = state::SimdBackend::Scalar;
  const auto reference = explore(g, opts);
  opts = DseOptions{.target = c, .engine = GetParam()};
  opts.channel_constraints.resize(3);
  opts.channel_constraints[0].min = 12;
  const auto r = explore(g, opts);
  ASSERT_FALSE(r.pareto.empty());
  ASSERT_EQ(r.pareto.size(), reference.pareto.size());
  for (std::size_t i = 0; i < r.pareto.size(); ++i) {
    const ParetoPoint& p = r.pareto.points()[i];
    EXPECT_EQ(p.size(), reference.pareto.points()[i].size());
    EXPECT_EQ(p.throughput, reference.pareto.points()[i].throughput);
    const i64 ab = p.distribution[std::size_t{0}];
    EXPECT_TRUE(ab == 12 || (ab > 12 && ab % 2 == 1)) << ab;
    EXPECT_EQ(state::compute_throughput(g, p.distribution.capacities(), c)
                  .throughput,
              p.throughput);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ConstraintEngines,
    ::testing::Values(DseEngine::Exhaustive, DseEngine::Incremental),
    [](const ::testing::TestParamInfo<DseEngine>& info) {
      return info.param == DseEngine::Exhaustive ? "Exhaustive"
                                                 : "Incremental";
    });

TEST(Constraints, EnginesProduceIdenticalConstrainedFronts) {
  const sdf::Graph g = models::paper_example();
  for (i64 cap : {5, 6, 7}) {
    auto opts = base_options(g, DseEngine::Exhaustive);
    opts.channel_constraints.resize(2);
    opts.channel_constraints[0].max = cap;
    const auto exh = explore(g, opts);
    opts.engine = DseEngine::Incremental;
    const auto inc = explore(g, opts);
    ASSERT_EQ(exh.pareto.size(), inc.pareto.size()) << "cap " << cap;
    for (std::size_t i = 0; i < exh.pareto.size(); ++i) {
      EXPECT_EQ(exh.pareto.points()[i].size(), inc.pareto.points()[i].size());
      EXPECT_EQ(exh.pareto.points()[i].throughput,
                inc.pareto.points()[i].throughput);
    }
  }
}

TEST(Constraints, InfeasibleCeilingReported) {
  // alpha needs at least 4 tokens for any positive throughput; a memory of
  // 3 makes the whole space infeasible.
  const sdf::Graph g = models::paper_example();
  auto opts = base_options(g, DseEngine::Incremental);
  opts.channel_constraints.resize(2);
  opts.channel_constraints[0].max = 3;
  const auto r = explore(g, opts);
  EXPECT_TRUE(r.constraints_infeasible);
  EXPECT_TRUE(r.pareto.empty());
}

TEST(Constraints, WrongSizeVectorThrows) {
  const sdf::Graph g = models::paper_example();
  auto opts = base_options(g, DseEngine::Incremental);
  opts.channel_constraints.resize(1);  // graph has 2 channels
  EXPECT_THROW((void)explore(g, opts), Error);
}

TEST(EquivalentMinima, Fig6TiesAreSymmetric) {
  // The diamond is symmetric in its two arms, so every minimal
  // distribution has its mirrored twin in the tie set.
  const sdf::Graph g = models::fig6_diamond();
  const auto opts = base_options(g, DseEngine::Exhaustive);
  const auto dse = explore(g, opts);
  ASSERT_FALSE(dse.pareto.empty());
  for (const ParetoPoint& p : dse.pareto.points()) {
    const auto ties = equivalent_minimal_distributions(
        g, opts, p.size(), p.throughput);
    ASSERT_FALSE(ties.empty());
    // The witness itself is in the set.
    EXPECT_NE(std::find(ties.begin(), ties.end(), p.distribution),
              ties.end());
    for (const StorageDistribution& d : ties) {
      // Mirror arms: swap (alpha, gamma) with (beta, delta).
      const StorageDistribution mirrored(
          {d[std::size_t{1}], d[std::size_t{0}], d[std::size_t{3}],
           d[std::size_t{2}]});
      EXPECT_NE(std::find(ties.begin(), ties.end(), mirrored), ties.end())
          << d.str() << " has no mirror";
    }
  }
}

TEST(EquivalentMinima, ExampleHasUniqueSmallestDistribution) {
  const sdf::Graph g = models::paper_example();
  const auto opts = base_options(g, DseEngine::Exhaustive);
  const auto ties =
      equivalent_minimal_distributions(g, opts, 6, Rational(1, 7));
  ASSERT_EQ(ties.size(), 1u);
  EXPECT_EQ(ties[0].str(), "<4, 2>");
}

TEST(EquivalentMinima, MultipleDistributionsAtSizeTen) {
  // Size 10 admits both <7, 3> and (checked here) no other shape reaching
  // 1/4 — but several shapes reach 1/6.
  const sdf::Graph g = models::paper_example();
  const auto opts = base_options(g, DseEngine::Exhaustive);
  const auto best =
      equivalent_minimal_distributions(g, opts, 10, Rational(1, 4));
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0].str(), "<7, 3>");
  const auto weaker =
      equivalent_minimal_distributions(g, opts, 10, Rational(1, 6));
  EXPECT_GT(weaker.size(), 1u);
  for (const StorageDistribution& d : weaker) {
    const auto probe = state::compute_throughput(g, d.capacities(),
                                                 *g.find_actor("c"));
    EXPECT_GE(probe.throughput, Rational(1, 6)) << d.str();
  }
}

TEST(EquivalentMinima, SizeOutsideBoxGivesEmpty) {
  const sdf::Graph g = models::paper_example();
  const auto opts = base_options(g, DseEngine::Exhaustive);
  EXPECT_TRUE(
      equivalent_minimal_distributions(g, opts, 5, Rational(1, 7)).empty());
}

}  // namespace
}  // namespace buffy::buffer
