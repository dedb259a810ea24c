// Throughput via reduced state-space exploration (paper Sec. 7).
//
// Only the states reached when the firing of a chosen target actor completes
// are stored, together with the time elapsed since the previous such state
// (the d_a dimension of the paper). The deterministic execution is a lasso:
// either it deadlocks (throughput 0) or a stored state recurs, closing the
// unique cycle; the throughput of the target actor is then the number of
// its firings on the cycle divided by the cycle's duration (Property 2).
#pragma once

#include <vector>

#include "base/rational.hpp"
#include "exec/cancellation.hpp"
#include "exec/progress.hpp"
#include "sdf/graph.hpp"
#include "state/engine.hpp"
#include "state/state.hpp"
#include "state/visited_table.hpp"

namespace buffy::state {

/// Options for a throughput computation.
struct ThroughputOptions {
  /// Actor whose firing rate is measured and whose completions define the
  /// reduced state space. Must be a valid id of the graph being run.
  sdf::ActorId target;
  /// Safety bound on simulated discrete time steps (the units of
  /// Actor::execution_time); exceeding it throws Error.
  u64 max_steps = 100'000'000;
  /// When set, the result carries the reduced state sequence (Fig. 4).
  bool collect_reduced_states = false;
  /// When set, the result carries the per-channel maximum occupancy.
  bool track_max_occupancy = false;
  /// When set, every firing start is recorded (schedule extraction).
  FiringRecorder* recorder = nullptr;
  /// Optional processor binding forwarded to Engine::set_binding (empty =
  /// unbound execution).
  std::vector<std::size_t> processor_of;
  /// Polled between execution steps; once cancelled the run throws
  /// exec::Cancelled (a partial state space has no usable throughput).
  /// The default token never cancels.
  exec::CancellationToken cancel;
  /// Optional metrics sink: stored reduced states are reported here when
  /// the run ends (including a cancelled unwind). Not owned; may be null.
  exec::Progress* progress = nullptr;
  /// When set, the run also collects the storage dependencies — channels
  /// whose space check delayed a firing during the periodic phase (or
  /// anywhere in a deadlocked run) — into ThroughputResult::storage_deps,
  /// fused into the simulation instead of costing a second one (see
  /// buffer::storage_dependencies for the reference definition).
  bool collect_storage_deps = false;
  /// When set, the result also carries the run's demand floor
  /// (ThroughputResult::demand), which with the capacities is the run's
  /// equivalence box (DESIGN.md §7): every distribution that keeps the
  /// capacity of each channel whose demand exceeded it and gives every
  /// other channel at least its demand replays this exact run.
  bool collect_box = false;
};

/// One entry of the reduced state space: the timed state at a completion of
/// the target actor plus the paper's d_a distance (time since the previous
/// completion; for the first entry, since time 0).
struct ReducedState {
  TimedState timed;
  i64 dist = 0;
  /// Absolute time of this completion.
  i64 time = 0;
  /// True for states on the detected cycle (periodic phase).
  bool on_cycle = false;
};

/// Outcome of a throughput computation.
struct ThroughputResult {
  /// Execution reached a state with no firing in progress and none possible.
  bool deadlocked = false;
  /// Target firings per discrete time step (exact rational, never
  /// rounded); 0 exactly when deadlocked.
  Rational throughput;
  /// Number of reduced states stored (Table 2's "maximum #states" metric).
  u64 states_stored = 0;
  /// Absolute time of the completion that opened the cycle.
  i64 cycle_start_time = 0;
  /// Cycle duration in time steps (0 on deadlock).
  i64 period = 0;
  /// Target firings on the cycle (0 on deadlock).
  i64 firings_on_cycle = 0;
  /// Total time simulated until the cycle closed / deadlock was reached.
  i64 time_steps = 0;
  /// Reduced states in visit order (only when requested).
  std::vector<ReducedState> reduced_states;
  /// Per-channel max occupancy (only when requested).
  std::vector<i64> max_occupancy;
  /// Storage dependencies of the run (only when collect_storage_deps was
  /// set), in channel-index order.
  std::vector<sdf::ChannelId> storage_deps;
  /// Per-channel demand floor (only when collect_box was set): the largest
  /// occupancy + rate over every space check evaluated on the channel, at
  /// least its initial tokens. The channels whose space check ever failed
  /// are exactly those whose demand exceeds their capacity.
  std::vector<i64> demand;
};

/// Reusable throughput kernel: one Engine plus one arena-backed visited-
/// state table serving any number of runs over the same graph. Reusing a
/// solver across the runs of a design-space exploration keeps the hot path
/// allocation-free in steady state — the engine is reconfigure()d instead
/// of rebuilt and the visited arena is recycled instead of reallocated.
/// Not thread-safe; concurrent explorations each own their solver.
class ThroughputSolver {
 public:
  /// The graph must outlive the solver.
  explicit ThroughputSolver(const sdf::Graph& graph);

  /// Runs self-timed execution under the given capacities until the
  /// reduced state space closes its cycle or the graph deadlocks.
  ///
  /// Preconditions: `capacities` covers every channel of the graph, each
  /// capacity either unbounded or >= the channel's initial tokens;
  /// `opts.target` is a valid actor id of the graph. Throws Error when
  /// max_steps is exceeded (e.g. unbounded token accumulation under
  /// unbounded capacities in a graph that is not back-pressured) and
  /// exec::Cancelled when `opts.cancel` fires; the solver remains
  /// reusable after either throw.
  [[nodiscard]] ThroughputResult compute(const Capacities& capacities,
                                         const ThroughputOptions& opts);

  [[nodiscard]] const sdf::Graph& graph() const { return engine_.graph(); }

  /// Peak memory footprint of the visited-state table across all runs.
  [[nodiscard]] std::size_t table_bytes() const {
    return table_.footprint_bytes();
  }

 private:
  Engine engine_;
  VisitedTable table_;
};

/// One-shot form: builds a fresh solver per call — the right tool outside
/// exploration loops, and the reference the reused solver is tested
/// against. Same preconditions as ThroughputSolver::compute; safe to call
/// concurrently on the same graph from any number of threads (each call
/// owns its solver).
[[nodiscard]] ThroughputResult compute_throughput(const sdf::Graph& graph,
                                                  const Capacities& capacities,
                                                  const ThroughputOptions& opts);

/// Convenience overload: bounded capacities given as a plain vector with
/// one entry per channel, in channel-index order.
[[nodiscard]] ThroughputResult compute_throughput(const sdf::Graph& graph,
                                                  const std::vector<i64>& caps,
                                                  sdf::ActorId target);

}  // namespace buffy::state
