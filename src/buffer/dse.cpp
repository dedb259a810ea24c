#include "buffer/dse.hpp"

#include <algorithm>
#include <optional>

#include "analysis/consistency.hpp"
#include "base/audit.hpp"
#include "base/diagnostics.hpp"
#include "buffer/audit_checks.hpp"
#include "buffer/dse_exact.hpp"
#include "buffer/dse_incremental.hpp"
#include "state/throughput.hpp"

namespace buffy::buffer {

Rational quantize_down(const Rational& value,
                       const std::optional<Rational>& step) {
  if (!step.has_value()) return value;
  BUFFY_REQUIRE(step->num() > 0, "quantisation step must be positive");
  // floor(value / step) * step, exactly.
  const i64 cells = floor_div(checked_mul(value.num(), step->den()),
                              checked_mul(value.den(), step->num()));
  return Rational(cells) * *step;
}

std::vector<i64> constrained_floor(const DseOptions& options,
                                   const DesignSpaceBounds& b) {
  std::vector<i64> floor = b.per_channel_lb.capacities();
  if (!options.channel_constraints.empty()) {
    BUFFY_REQUIRE(options.channel_constraints.size() == floor.size(),
                  "channel_constraints must have one entry per channel");
    for (std::size_t c = 0; c < floor.size(); ++c) {
      if (const auto& min = options.channel_constraints[c].min) {
        floor[c] = std::max(floor[c], *min);
      }
    }
  }
  return floor;
}

std::vector<std::optional<i64>> constrained_ceiling(const DseOptions& options,
                                                    std::size_t num_channels) {
  std::vector<std::optional<i64>> ceiling(num_channels);
  if (!options.channel_constraints.empty()) {
    BUFFY_REQUIRE(options.channel_constraints.size() == num_channels,
                  "channel_constraints must have one entry per channel");
    for (std::size_t c = 0; c < num_channels; ++c) {
      ceiling[c] = options.channel_constraints[c].max;
    }
  }
  return ceiling;
}

void apply_quantization_levels(DseOptions& options,
                               const DesignSpaceBounds& bounds) {
  if (options.quantization.has_value() ||
      !options.quantization_levels.has_value()) {
    return;
  }
  const i64 levels = *options.quantization_levels;
  BUFFY_REQUIRE(levels > 0, "quantization_levels must be positive");
  options.quantization = bounds.max_throughput / Rational(levels);
  // On an N-level grid anything within one step of the maximum is
  // indistinguishable from it, so the exploration may stop one grid level
  // early — this is where the quantised search gains its speed (Sec. 11):
  // the expensive tail of the climb towards the exact maximum is skipped.
  const Rational near_max = bounds.max_throughput * Rational(levels - 1, levels);
  if (!options.throughput_goal.has_value() ||
      near_max < *options.throughput_goal) {
    options.throughput_goal = near_max;
  }
}

namespace {

void require_explorable(const sdf::Graph& graph, const DseOptions& options) {
  BUFFY_REQUIRE(options.target.valid() &&
                    options.target.index() < graph.num_actors(),
                "DSE target actor is not part of the graph");
  BUFFY_REQUIRE(options.threads == 1,
                "DseOptions::threads must be 1: an exploration runs on one "
                "thread");
  analysis::require_consistent(graph);
  if (!options.binding.empty()) {
    BUFFY_REQUIRE(options.binding.size() == graph.num_actors(),
                  "binding must assign every actor a processor");
    BUFFY_REQUIRE(options.engine == DseEngine::Incremental,
                  "processor bindings are supported by the incremental "
                  "engine (the exhaustive engine's Fig. 7 box assumes "
                  "unbound execution)");
  }
}

// The one exploration path behind both explore() overloads. `setup_solver`
// serves the plateau search under a processor binding; null = build one
// when the binding needs it.
DseResult explore_within(const sdf::Graph& graph, const DseOptions& options,
                         const DesignSpaceBounds& bounds,
                         state::ThroughputSolver* setup_solver) {
  if (bounds.deadlock) {
    // Every distribution deadlocks; the Pareto space is empty.
    DseResult result;
    result.bounds = bounds;
    return result;
  }
  {
    // A ceiling below the analytic lower bound leaves nothing to explore.
    const auto floor = constrained_floor(options, bounds);
    const auto ceiling = constrained_ceiling(options, graph.num_channels());
    for (std::size_t c = 0; c < floor.size(); ++c) {
      if (ceiling[c].has_value() && *ceiling[c] < floor[c]) {
        DseResult result;
        result.bounds = bounds;
        result.constraints_infeasible = true;
        return result;
      }
    }
  }
  DseOptions effective = options;
  if (effective.deadline_ms.has_value()) {
    // The engines and their throughput runs poll one combined token:
    // cancelled when the user's token fires OR the budget runs out.
    effective.cancel = options.cancel.with_deadline(*effective.deadline_ms);
  }
  if (!effective.binding.empty()) {
    // Under a processor binding the unbound maximal throughput (MCM) is
    // unreachable and storage dependencies need not ever vanish (a
    // fixed-priority producer can fill any finite buffer before yielding
    // its processor), so the goal is the bound maximum, established by
    // capacity doubling until the throughput plateaus.
    std::vector<i64> caps = bounds.per_channel_lb.capacities();
    for (std::size_t c = 0; c < caps.size(); ++c) {
      const sdf::Channel& ch = graph.channel(sdf::ChannelId(c));
      caps[c] = std::max(caps[c], ch.initial_tokens + ch.production +
                                      ch.consumption);
    }
    std::optional<state::ThroughputSolver> own_solver;
    if (setup_solver == nullptr) setup_solver = &own_solver.emplace(graph);
    Rational bound_max(0);
    int plateau = 0;
    for (int round = 0; round < 24 && plateau < 2; ++round) {
      state::ThroughputOptions run_opts{
          .target = options.target, .max_steps = options.max_steps_per_run};
      run_opts.processor_of = options.binding;
      run_opts.cancel = effective.cancel;
      run_opts.progress = options.progress;
      state::ThroughputResult run;
      try {
        run = setup_solver->compute(state::Capacities::bounded(caps),
                                    run_opts);
      } catch (const exec::Cancelled&) {
        // Budget exhausted while establishing the bound goal: nothing was
        // explored yet, so the partial front is empty.
        DseResult cancelled;
        cancelled.bounds = bounds;
        cancelled.cancelled = true;
        if (options.progress != nullptr) options.progress->mark_cancelled();
        return cancelled;
      }
      if (!run.deadlocked && run.throughput == bound_max) {
        ++plateau;
      } else if (!run.deadlocked) {
        bound_max = run.throughput;
        plateau = 0;
      }
      for (i64& c : caps) c = checked_mul(c, 2);
    }
    if (!effective.throughput_goal.has_value() ||
        bound_max < *effective.throughput_goal) {
      effective.throughput_goal = bound_max;
    }
  }
  apply_quantization_levels(effective, bounds);
  DseResult result;
  switch (effective.engine) {
    case DseEngine::Exhaustive:
      result = explore_exhaustive(graph, effective, bounds);
      break;
    case DseEngine::Incremental:
      result = explore_incremental(graph, effective, bounds);
      break;
    default:
      throw InternalError("unknown DSE engine");
  }
  if (options.min_throughput.has_value()) {
    ParetoSet filtered;
    for (const ParetoPoint& p : result.pareto.points()) {
      if (p.throughput >= *options.min_throughput) filtered.add(p);
    }
    result.pareto = std::move(filtered);
  }
  if (options.progress != nullptr) {
    options.progress->add_pareto_points(result.pareto.size());
    if (result.cancelled) options.progress->mark_cancelled();
  }
  // Every front an exploration hands back is audited for the ordering
  // invariant (strictly increasing size AND throughput) while audit mode
  // is on — including partial fronts of cancelled runs (DESIGN.md §9).
  if (audit::enabled()) audit_verify_monotone_front(result.pareto);
  return result;
}

}  // namespace

DseResult explore(const sdf::Graph& graph, const DseOptions& options) {
  require_explorable(graph, options);
  // The bounds' capacity-doubling runs and (under a binding) the plateau
  // search share one solver instead of rebuilding an engine per run — the
  // same reuse the engines apply per candidate.
  state::ThroughputSolver setup_solver(graph);
  return explore_within(
      graph, options,
      design_space_bounds(graph, options.target, options.max_steps_per_run,
                          &setup_solver),
      &setup_solver);
}

DseResult explore(const sdf::Graph& graph, const DseOptions& options,
                  const DesignSpaceBounds& bounds) {
  require_explorable(graph, options);
  return explore_within(graph, options, bounds, nullptr);
}

}  // namespace buffy::buffer
