#include "buffer/fast_front.hpp"

#include <algorithm>
#include <chrono>

#include "analysis/repetition_vector.hpp"
#include "base/diagnostics.hpp"
#include "buffer/dse.hpp"
#include "lp/sdf_model.hpp"
#include "trace/trace.hpp"

namespace buffy::buffer {

FastFrontResult fast_front(const sdf::Graph& graph, sdf::ActorId target,
                           i64 levels, u64 max_steps) {
  BUFFY_REQUIRE(levels >= 1, "fast_front requires levels >= 1");
  const auto t0 = std::chrono::steady_clock::now();
  FastFrontResult result = fast_front(
      graph, target, levels, design_space_bounds(graph, target, max_steps));
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

FastFrontResult fast_front(const sdf::Graph& graph, sdf::ActorId target,
                           i64 levels, const DesignSpaceBounds& bounds) {
  BUFFY_REQUIRE(levels >= 1, "fast_front requires levels >= 1");
  const auto t0 = std::chrono::steady_clock::now();
  FastFrontResult result;
  result.bounds = bounds;
  const auto stamp = [&] {
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  };
  if (result.bounds.deadlock) {
    stamp();
    return result;
  }
  // A dead self-loop deadlocks the graph at every capacity, so the bounds
  // probe above already returned; this gate only protects the LP layer's
  // precondition if that ever changes.
  if (!lp::model_diagnostics(graph).empty()) {
    stamp();
    return result;
  }

  const std::vector<i64> reps =
      analysis::repetition_vector(graph).counts();
  const lp::ThroughputCuts cuts =
      lp::ThroughputCuts::derive(graph, reps, target);
  result.lp_cuts = cuts.size();

  // The floors every positive-throughput distribution must meet: the
  // closed-form channel bound raised by the LP necessary floors.
  const std::size_t m = graph.num_channels();
  std::vector<i64> floors(m, 0);
  for (std::size_t c = 0; c < m; ++c) {
    floors[c] = std::max(result.bounds.per_channel_lb[c],
                         cuts.necessary_floors()[c]);
  }

  // Grid of throughput targets, low to high, so ParetoSet::add sees
  // increasing sizes; the exact Fig. 7 anchor caps the front.
  for (i64 level = 1; level < levels; ++level) {
    const Rational theta =
        result.bounds.max_throughput * Rational(level, levels);
    if (theta.is_zero()) continue;
    const lp::PeriodicSolveResult solved = lp::min_buffers_for_throughput(
        graph, reps, target, theta, floors);
    result.lp_pivots += solved.pivots;
    ++result.lp_solves;
    if (solved.status == lp::Status::NumericOverflow) ++result.lp_overflows;
    if (solved.status != lp::Status::Optimal) continue;
    const std::size_t before = result.pareto.size();
    result.pareto.add(
        ParetoPoint{StorageDistribution(solved.capacities), theta});
    if (trace::enabled() && result.pareto.size() > before) {
      i64 size = 0;
      for (const i64 cap : solved.capacities) size += cap;
      trace::emit_pareto_point(size, theta.to_double());
    }
  }
  result.pareto.add(ParetoPoint{result.bounds.max_throughput_distribution,
                                result.bounds.max_throughput});
  stamp();
  return result;
}

}  // namespace buffy::buffer
