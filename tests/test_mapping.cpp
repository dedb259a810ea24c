#include "mapping/binding.hpp"

#include <gtest/gtest.h>

#include "base/diagnostics.hpp"
#include "buffer/dse.hpp"
#include "gen/random_graph.hpp"
#include "models/models.hpp"
#include "sdf/builder.hpp"

namespace buffy::mapping {
namespace {

state::Capacities generous(const sdf::Graph& g) {
  std::vector<i64> caps;
  for (const sdf::ChannelId c : g.channel_ids()) {
    const sdf::Channel& ch = g.channel(c);
    caps.push_back(ch.initial_tokens + 4 * (ch.production + ch.consumption));
  }
  return state::Capacities::bounded(caps);
}

TEST(Binding, Constructors) {
  const sdf::Graph g = models::paper_example();
  const Binding rr = round_robin_binding(g, 2);
  EXPECT_EQ(rr.processor_of, (std::vector<std::size_t>{0, 1, 0}));
  EXPECT_EQ(rr.num_processors(), 2u);
  EXPECT_EQ(rr.actors_on(0).size(), 2u);
  EXPECT_NE(rr.str(g).find("p0: a c"), std::string::npos);
  EXPECT_THROW((void)round_robin_binding(g, 0), Error);
}

TEST(Binding, LoadBalancePutsHeaviestAlone) {
  // Work per iteration: a = 3*1 = 3, b = 2*2 = 4, c = 1*2 = 2.
  // LPT on two processors: b first (p0), then a (p1), then c (p1: load 3
  // vs 4).
  const sdf::Graph g = models::paper_example();
  const Binding lb = load_balanced_binding(g, 2);
  EXPECT_EQ(lb.processor_of[1], 0u);  // b alone on p0
  EXPECT_EQ(lb.processor_of[0], lb.processor_of[2]);
}

TEST(Binding, ValidationRejectsWrongSize) {
  const sdf::Graph g = models::paper_example();
  Binding bad;
  bad.processor_of = {0, 1};
  EXPECT_THROW(validate_binding(g, bad), Error);
}

TEST(Binding, OneProcessorSerialisesEverything) {
  // On one processor a c-firing needs all of an iteration's work done
  // serially: 3*e(a) + 2*e(b) + 1*e(c) = 9 time steps per period.
  const sdf::Graph g = models::paper_example();
  const auto r = throughput_under_binding(
      g, generous(g), round_robin_binding(g, 1), *g.find_actor("c"));
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.throughput, Rational(1, 9));
}

TEST(Binding, OneProcessorPerActorMatchesUnboundExecution) {
  for (const auto& m : models::table2_models()) {
    if (std::string(m.display_name) == "H.263 decoder") continue;  // slow
    const sdf::ActorId target = models::reported_actor(m.graph);
    const auto caps = generous(m.graph);
    const auto unbound = state::compute_throughput(
        m.graph, caps, state::ThroughputOptions{.target = target});
    const auto bound = throughput_under_binding(
        m.graph, caps, round_robin_binding(m.graph, m.graph.num_actors()),
        target);
    EXPECT_EQ(unbound.throughput, bound.throughput) << m.display_name;
  }
}

TEST(Binding, MoreProcessorsNeverHurtWithLoadBalancing) {
  const sdf::Graph g = models::modem();
  const auto sweep = processor_sweep(g, generous(g),
                                     models::reported_actor(g), 4);
  ASSERT_EQ(sweep.size(), 4u);
  // The single-processor point is the serial bound; the curve should rise
  // (or at least not collapse) as processors are added.
  EXPECT_GT(sweep.back().throughput, sweep.front().throughput);
  for (const SweepPoint& p : sweep) {
    EXPECT_GT(p.throughput, Rational(0)) << p.processors;
  }
}

TEST(Binding, BufferSizingUnderBinding) {
  // DSE with all actors on one processor: the Pareto front tops out at the
  // serial rate 1/9 instead of 1/4, and needs less storage to get there.
  const sdf::Graph g = models::paper_example();
  buffer::DseOptions opts{.target = *g.find_actor("c"),
                          .engine = buffer::DseEngine::Incremental};
  opts.binding = round_robin_binding(g, 1).processor_of;
  const auto r = buffer::explore(g, opts);
  ASSERT_FALSE(r.pareto.empty());
  EXPECT_EQ(r.pareto.points().back().throughput, Rational(1, 9));
  EXPECT_LT(r.pareto.points().back().size(), 10);  // unbound max needs 10
  // The unbound front's last point dominates in throughput.
  const auto unbound = buffer::explore(
      g, buffer::DseOptions{.target = *g.find_actor("c"),
                            .engine = buffer::DseEngine::Incremental});
  EXPECT_GT(unbound.pareto.points().back().throughput,
            r.pareto.points().back().throughput);
  // The binding forces the scalar solver, and the result says so instead
  // of falling back silently; the unbound Auto run resolves to a lane
  // backend.
  EXPECT_EQ(r.backend, state::SimdBackend::Scalar);
  EXPECT_EQ(unbound.backend, state::resolve_backend(state::SimdBackend::Auto));
  EXPECT_NE(unbound.backend, state::SimdBackend::Scalar);
}

TEST(Binding, ExhaustiveEngineRejectsBindings) {
  const sdf::Graph g = models::paper_example();
  buffer::DseOptions opts{.target = *g.find_actor("c"),
                          .engine = buffer::DseEngine::Exhaustive};
  opts.binding = round_robin_binding(g, 1).processor_of;
  EXPECT_THROW((void)buffer::explore(g, opts), Error);
}

// Property: binding throughput is bounded by the unbound throughput, and
// one-actor-per-processor reproduces it exactly, on random graphs.
class BindingProperty : public ::testing::TestWithParam<u64> {};

TEST_P(BindingProperty, SerialisationOnlySlowsDown) {
  const sdf::Graph g = gen::random_graph(gen::RandomGraphOptions{
      .num_actors = 5, .max_repetition = 3, .seed = GetParam()});
  const sdf::ActorId target(0);
  const auto caps = generous(g);
  const auto unbound = state::compute_throughput(
      g, caps, state::ThroughputOptions{.target = target});
  for (const std::size_t procs : {std::size_t{1}, std::size_t{2}}) {
    const auto bound = throughput_under_binding(
        g, caps, load_balanced_binding(g, procs), target);
    EXPECT_LE(bound.throughput, unbound.throughput)
        << "seed " << GetParam() << " procs " << procs;
  }
  const auto each_own = throughput_under_binding(
      g, caps, round_robin_binding(g, g.num_actors()), target);
  EXPECT_EQ(each_own.throughput, unbound.throughput) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BindingProperty, ::testing::Range<u64>(1, 25));

}  // namespace
}  // namespace buffy::mapping
