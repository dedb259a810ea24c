#include "buffer/bounds.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "models/models.hpp"
#include "sdf/builder.hpp"
#include "state/throughput.hpp"

namespace buffy::buffer {
namespace {

sdf::Channel make_channel(i64 p, i64 c, i64 t, bool self_loop = false) {
  return sdf::Channel{.name = "ch",
                      .src = sdf::ActorId(0),
                      .dst = self_loop ? sdf::ActorId(0) : sdf::ActorId(1),
                      .production = p,
                      .consumption = c,
                      .initial_tokens = t};
}

TEST(Bounds, PaperExampleChannelBounds) {
  // Sec. 8 / Fig. 7 for the example: lb(alpha) = 4, lb(beta) = 2.
  EXPECT_EQ(channel_lower_bound(make_channel(2, 3, 0)), 4);
  EXPECT_EQ(channel_lower_bound(make_channel(1, 2, 0)), 2);
}

TEST(Bounds, ClassicFormulaCases) {
  EXPECT_EQ(channel_lower_bound(make_channel(1, 1, 0)), 1);
  EXPECT_EQ(channel_lower_bound(make_channel(3, 5, 0)), 7);   // 3+5-1
  EXPECT_EQ(channel_lower_bound(make_channel(4, 6, 0)), 8);   // 4+6-2
  EXPECT_EQ(channel_lower_bound(make_channel(4, 6, 1)), 9);   // + 1 mod 2
  EXPECT_EQ(channel_lower_bound(make_channel(594, 1, 0)), 594);
}

TEST(Bounds, ManyInitialTokensNeedTheirOwnSpace) {
  EXPECT_EQ(channel_lower_bound(make_channel(1, 1, 10)), 10);
  EXPECT_EQ(channel_lower_bound(make_channel(2, 3, 100)), 100);
}

TEST(Bounds, SelfLoopNeedsTokensPlusClaim) {
  EXPECT_EQ(channel_lower_bound(make_channel(1, 1, 1, /*self_loop=*/true)), 2);
  EXPECT_EQ(channel_lower_bound(make_channel(2, 2, 4, /*self_loop=*/true)), 6);
}

TEST(Bounds, LowerBoundDistributionOfExample) {
  const auto lb = lower_bound_distribution(models::paper_example());
  EXPECT_EQ(lb.capacities(), (std::vector<i64>{4, 2}));
  EXPECT_EQ(lb.size(), 6);
}

TEST(CapacityLattice, StepIsTheGcdOfTheRates) {
  const CapacityLattice unit = channel_lattice(make_channel(2, 3, 5));
  EXPECT_EQ(unit.step, 1);
  EXPECT_EQ(unit.residue, 0);
  EXPECT_EQ(unit.floor(7), 7);
  EXPECT_EQ(unit.next(7), 8);

  const CapacityLattice even = channel_lattice(make_channel(4, 6, 0));
  EXPECT_EQ(even.step, 2);
  EXPECT_EQ(even.residue, 0);
  EXPECT_EQ(even.floor(8), 8);
  EXPECT_EQ(even.floor(9), 8);
  EXPECT_EQ(even.next(8), 10);
  EXPECT_EQ(even.next(9), 10);
}

TEST(CapacityLattice, TokensOffTheStepShiftTheLattice) {
  // g = 3 and t = 7: the aligned capacities are 7, 10, 13, ...
  const CapacityLattice l = channel_lattice(make_channel(6, 9, 7));
  EXPECT_EQ(l.step, 3);
  EXPECT_EQ(l.residue, 1);
  EXPECT_EQ(l.floor(10), 10);
  EXPECT_EQ(l.floor(11), 10);
  EXPECT_EQ(l.floor(12), 10);
  EXPECT_EQ(l.floor(13), 13);
  EXPECT_EQ(l.next(10), 13);
  EXPECT_EQ(l.next(12), 13);
}

TEST(CapacityLattice, SelfLoopsStepByTheirRate) {
  const CapacityLattice l =
      channel_lattice(make_channel(2, 2, 3, /*self_loop=*/true));
  EXPECT_EQ(l.step, 2);
  EXPECT_EQ(l.residue, 1);
  EXPECT_EQ(l.floor(6), 5);
  EXPECT_EQ(l.next(5), 7);
  EXPECT_EQ(l.next(6), 7);
}

TEST(CapacityLattice, UnalignedUserMinStepsStraightOntoTheLattice) {
  // g = 2, t = 1: a user floor of 12 runs like 11, and the climb's next
  // capacity is 13, not 14.
  const CapacityLattice l = channel_lattice(make_channel(4, 6, 1));
  EXPECT_EQ(l.floor(12), 11);
  EXPECT_EQ(l.next(12), 13);
}

TEST(CapacityLattice, LowerBoundsAreAligned) {
  for (i64 p = 1; p <= 8; ++p) {
    for (i64 c = 1; c <= 8; ++c) {
      for (i64 t = 0; t <= 2 * (p + c); ++t) {
        const sdf::Channel ch = make_channel(p, c, t);
        const i64 lb = channel_lower_bound(ch);
        EXPECT_EQ(channel_lattice(ch).floor(lb), lb)
            << "p=" << p << " c=" << c << " t=" << t;
      }
    }
    for (i64 t = p; t <= 3 * p; ++t) {
      const sdf::Channel loop = make_channel(p, p, t, /*self_loop=*/true);
      const i64 lb = channel_lower_bound(loop);
      EXPECT_EQ(channel_lattice(loop).floor(lb), lb) << "p=" << p << " t=" << t;
    }
  }
}

// Every capacity in a grid above the lower bounds runs exactly like its
// aligned floor: the same throughput, deadlock verdict, storage
// dependencies and demand. The graph has a g = 2 channel with an odd token
// count, a g = 2 self-loop with an odd token count and a g = 2 feedback
// channel.
TEST(CapacityLattice, EveryCapacityRunsLikeItsFloor) {
  sdf::GraphBuilder b("stepped");
  const auto a = b.actor("a", 1);
  const auto mid = b.actor("b", 2);
  const auto c = b.actor("c", 1);
  b.channel("ab", a, 4, mid, 6, 1);
  b.channel("bb", mid, 2, mid, 2, 3);
  b.channel("bc", mid, 6, c, 4, 0);
  b.channel("ca", c, 2, a, 2, 6);
  const sdf::Graph g = b.build();
  const std::vector<i64> lb = lower_bound_distribution(g).capacities();
  std::vector<CapacityLattice> lattices;
  for (const sdf::ChannelId ch : g.channel_ids()) {
    lattices.push_back(channel_lattice(g.channel(ch)));
  }
  state::ThroughputOptions opts{.target = c};
  opts.collect_storage_deps = true;
  opts.collect_box = true;
  const auto signature = [&](const std::vector<i64>& caps) {
    const state::ThroughputResult r =
        state::compute_throughput(g, state::Capacities::bounded(caps), opts);
    std::ostringstream out;
    out << r.throughput << ' ' << r.deadlocked << " states "
        << r.states_stored << " deps";
    for (const sdf::ChannelId d : r.storage_deps) out << ' ' << d.index();
    out << " demand";
    for (const i64 d : r.demand) out << ' ' << d;
    return out.str();
  };
  std::size_t unaligned = 0;
  std::vector<i64> caps(4);
  for (i64 d0 = 0; d0 < 6; ++d0) {
    for (i64 d1 = 0; d1 < 4; ++d1) {
      for (i64 d2 = 0; d2 < 6; ++d2) {
        for (i64 d3 = 0; d3 < 3; ++d3) {
          caps = {lb[0] + d0, lb[1] + d1, lb[2] + d2, lb[3] + d3};
          std::vector<i64> floor(4);
          for (std::size_t k = 0; k < 4; ++k) {
            floor[k] = lattices[k].floor(caps[k]);
          }
          if (floor == caps) continue;
          ++unaligned;
          ASSERT_EQ(signature(caps), signature(floor))
              << caps[0] << " " << caps[1] << " " << caps[2] << " "
              << caps[3];
        }
      }
    }
  }
  EXPECT_GT(unaligned, 0u);
}

// Brute force: for an isolated producer/consumer pair, the formula must be
// exactly the smallest capacity whose self-timed execution does not
// deadlock, for every (p, c, t) in a grid.
struct PcCase {
  i64 p, c;
};

class BoundFormulaExact : public ::testing::TestWithParam<PcCase> {};

TEST_P(BoundFormulaExact, MatchesBruteForce) {
  const auto [p, c] = GetParam();
  for (i64 t = 0; t <= 2 * (p + c); ++t) {
    sdf::GraphBuilder b("pair");
    const auto src = b.actor("src", 1);
    const auto dst = b.actor("dst", 2);
    b.channel("ch", src, p, dst, c, t);
    const sdf::Graph g = b.build();

    const i64 formula = channel_lower_bound(g.channel(sdf::ChannelId(0)));
    // Smallest capacity >= t with positive throughput.
    i64 brute = -1;
    for (i64 cap = t; cap <= t + p + c + 2; ++cap) {
      const auto r = state::compute_throughput(g, {cap}, dst);
      if (!r.deadlocked) {
        brute = cap;
        break;
      }
    }
    ASSERT_NE(brute, -1) << "p=" << p << " c=" << c << " t=" << t;
    EXPECT_EQ(formula, brute) << "p=" << p << " c=" << c << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BoundFormulaExact,
    ::testing::Values(PcCase{1, 1}, PcCase{2, 3}, PcCase{3, 2}, PcCase{1, 4},
                      PcCase{4, 1}, PcCase{4, 6}, PcCase{6, 4}, PcCase{5, 5},
                      PcCase{8, 12}, PcCase{7, 3}));

class SelfLoopBoundExact : public ::testing::TestWithParam<i64> {};

TEST_P(SelfLoopBoundExact, MatchesBruteForce) {
  const i64 p = GetParam();
  for (i64 t = p; t <= 3 * p; ++t) {  // t >= p or the loop can never fire
    sdf::GraphBuilder b("loop");
    const auto a = b.actor("a", 1);
    b.channel("self", a, p, a, p, t);
    const sdf::Graph g = b.build();
    const i64 formula = channel_lower_bound(g.channel(sdf::ChannelId(0)));
    i64 brute = -1;
    for (i64 cap = t; cap <= t + 2 * p + 2; ++cap) {
      if (!state::compute_throughput(g, {cap}, a).deadlocked) {
        brute = cap;
        break;
      }
    }
    ASSERT_NE(brute, -1);
    EXPECT_EQ(formula, brute) << "p=" << p << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, SelfLoopBoundExact, ::testing::Values(1, 2, 3, 5));

TEST(DesignSpaceBounds, ExampleMatchesPaper) {
  const sdf::Graph g = models::paper_example();
  const auto bounds = design_space_bounds(g, *g.find_actor("c"));
  EXPECT_FALSE(bounds.deadlock);
  EXPECT_EQ(bounds.lb_size, 6);
  EXPECT_EQ(bounds.max_throughput, Rational(1, 4));
  // The max-throughput distribution must actually achieve the maximum and
  // be no smaller than the known minimal size 10.
  EXPECT_GE(bounds.ub_size, 10);
  const auto check = state::compute_throughput(
      g, bounds.max_throughput_distribution.capacities(), *g.find_actor("c"));
  EXPECT_EQ(check.throughput, Rational(1, 4));
}

TEST(DesignSpaceBounds, MaxThroughputDistributionDominatesLowerBounds) {
  for (const auto& m : models::table2_models()) {
    const sdf::ActorId target = models::reported_actor(m.graph);
    const auto bounds = design_space_bounds(m.graph, target);
    ASSERT_FALSE(bounds.deadlock) << m.display_name;
    for (std::size_t c = 0; c < m.graph.num_channels(); ++c) {
      EXPECT_GE(bounds.max_throughput_distribution[c],
                bounds.per_channel_lb[c])
          << m.display_name << " channel " << c;
    }
    EXPECT_GE(bounds.ub_size, bounds.lb_size) << m.display_name;
  }
}

TEST(DesignSpaceBounds, DeadlockedGraphFlagged) {
  sdf::GraphBuilder b("dead");
  const auto a = b.actor("a", 1);
  const auto bb = b.actor("b", 1);
  b.channel("ab", a, 1, bb, 1);
  b.channel("ba", bb, 1, a, 1);
  const sdf::Graph g = b.build();
  const auto bounds = design_space_bounds(g, a);
  EXPECT_TRUE(bounds.deadlock);
}

}  // namespace
}  // namespace buffy::buffer
