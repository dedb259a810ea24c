#include "state/throughput.hpp"

#include "base/audit.hpp"
#include "base/diagnostics.hpp"
#include "trace/trace.hpp"

namespace buffy::state {

ThroughputSolver::ThroughputSolver(const sdf::Graph& graph)
    : engine_(graph, Capacities::unbounded(graph.num_channels())) {}

ThroughputResult ThroughputSolver::compute(const Capacities& capacities,
                                           const ThroughputOptions& opts) {
  const sdf::Graph& graph = engine_.graph();
  BUFFY_REQUIRE(opts.target.valid() && opts.target.index() < graph.num_actors(),
                "throughput target actor is not part of the graph");
  // reconfigure() and set_binding() both reset; attach the recorder only
  // for the reset that establishes the run's actual start state, so the
  // time-0 starts are recorded exactly once. Space-block tracking must be
  // armed before that reset to catch channels blocked at time 0.
  // One trace span per simulation; emitted on every exit, including the
  // cancellation unwind, so a trace shows aborted runs too. arg0 = the
  // distribution size (-1 under unbounded capacities), arg1 = reduced
  // states stored (set just before each return).
  i64 traced_size = 0;
  if (trace::enabled()) {
    for (std::size_t c = 0; c < capacities.size() && traced_size >= 0; ++c) {
      traced_size = capacities.is_bounded(c)
                        ? traced_size + capacities.capacity(c)
                        : -1;
    }
  }
  trace::Span sim_span(trace::EventKind::Simulation, traced_size);

  const bool collect_deps = opts.collect_storage_deps;
  engine_.set_space_block_tracking(collect_deps);
  engine_.set_demand_tracking(opts.collect_box);
  const bool rebind = engine_.binding() != opts.processor_of;
  engine_.set_recorder(rebind ? nullptr : opts.recorder);
  engine_.reconfigure(capacities);
  if (rebind) {
    engine_.set_recorder(opts.recorder);
    engine_.set_binding(opts.processor_of);
  }

  ThroughputResult result;

  // One record per stored reduced state: [clocks | tokens | dist]. The
  // paper's full reduced key includes the d_a dimension (time since the
  // previous completion of the target) — see Fig. 4, where (1,0,1,2,2,9)
  // and (1,0,1,2,2,7) are distinct states.
  const std::size_t state_words =
      graph.num_actors() + graph.num_channels();
  table_.reset(state_words + 1);

  // The engine records the latest space-blocked instant per channel during
  // its start phases (see set_space_block_tracking); between completions
  // the blocked set is constant, so those instants cover every state of
  // the execution. Keeping only the latest time per channel is enough
  // because the filter below is a window ending at the final time.
  const auto finish_deps = [&](i64 window_start) {
    if (!collect_deps) return;
    const std::vector<i64>& last_blocked = engine_.last_space_block();
    for (std::size_t c = 0; c < last_blocked.size(); ++c) {
      if (last_blocked[c] >= window_start) {
        result.storage_deps.emplace_back(c);
      }
    }
  };

  i64 firings = 0;
  i64 last_completion_time = 0;

  // The per-channel maxima a run may report: occupancy and demand.
  const auto finish_maxima = [&]() {
    if (opts.track_max_occupancy) result.max_occupancy = engine_.max_occupancy();
    if (opts.collect_box) result.demand = engine_.demand();
  };
  const auto report_states = [&]() {
    sim_span.set_args(traced_size, static_cast<i64>(table_.size()));
    if (opts.progress == nullptr) return;
    opts.progress->add_states(table_.size());
    opts.progress->add_simulations(1);
    opts.progress->note_arena_bytes(table_.footprint_bytes());
  };

  // Cancellation is polled every so many steps: often enough that a
  // deadline stops a runaway run promptly, rarely enough that the clock
  // read never shows up in profiles.
  constexpr u64 kCancelPollPeriod = 1024;

  for (u64 steps = 0; steps < opts.max_steps; ++steps) {
    if (steps % kCancelPollPeriod == 0 && opts.cancel.cancelled()) {
      report_states();
      throw exec::Cancelled();
    }
    const bool alive = engine_.advance();
    // Audit mode re-derives the storage invariants after every advance —
    // a capacity breach is caught at the step that introduced it, not at
    // whatever later point it corrupts the throughput.
    if (audit::enabled()) engine_.audit_verify_invariants();

    bool target_completed = false;
    for (const sdf::ActorId a : engine_.completed()) {
      if (a == opts.target) target_completed = true;
    }

    if (target_completed) {
      ++firings;
      const i64 dist = engine_.now() - last_completion_time;
      last_completion_time = engine_.now();
      const std::span<i64> record = table_.stage();
      engine_.snapshot_into(record.first(state_words));
      record[state_words] = dist;
      const VisitedTable::Entry* prev = table_.find_or_insert(
          VisitedTable::Entry{firings, engine_.now(), table_.size()});
      if (prev != nullptr) {
        // Cycle closed: the periodic phase runs from the earlier visit of
        // this state to now.
        result.firings_on_cycle = firings - prev->firing_index;
        result.period = engine_.now() - prev->time;
        result.cycle_start_time = prev->time;
        result.throughput = Rational(result.firings_on_cycle, result.period);
        result.states_stored = table_.size();
        result.time_steps = engine_.now();
        if (opts.collect_reduced_states) {
          for (std::size_t i = prev->order; i < result.reduced_states.size();
               ++i) {
            result.reduced_states[i].on_cycle = true;
          }
        }
        finish_deps(result.cycle_start_time);
        finish_maxima();
        // The whole visited table is checked once per run, at cycle
        // close: every stored hash must still match its record and every
        // record must be reachable, or the cycle just "detected" may
        // have closed on the wrong state.
        if (audit::enabled()) table_.audit_verify();
        report_states();
        return result;
      }
      if (opts.collect_reduced_states) {
        result.reduced_states.push_back(ReducedState{
            .timed = engine_.snapshot(),
            .dist = dist,
            .time = engine_.now(),
            .on_cycle = false,
        });
      }
    }

    if (!alive) {
      result.deadlocked = true;
      result.throughput = Rational(0);
      result.states_stored = table_.size();
      result.time_steps = engine_.now();
      // A deadlocked run reports dependencies over the whole execution —
      // a firing may have been delayed by space long before the stall.
      finish_deps(0);
      finish_maxima();
      report_states();
      return result;
    }
  }
  report_states();
  throw Error("throughput computation exceeded max_steps = " +
              std::to_string(opts.max_steps) + " on graph '" + graph.name() +
              "' (unbounded token growth or a bound set too low)");
}

ThroughputResult compute_throughput(const sdf::Graph& graph,
                                    const Capacities& capacities,
                                    const ThroughputOptions& opts) {
  ThroughputSolver solver(graph);
  return solver.compute(capacities, opts);
}

ThroughputResult compute_throughput(const sdf::Graph& graph,
                                    const std::vector<i64>& caps,
                                    sdf::ActorId target) {
  return compute_throughput(graph, Capacities::bounded(caps),
                            ThroughputOptions{.target = target});
}

}  // namespace buffy::state
