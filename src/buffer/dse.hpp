// Design-space exploration of storage/throughput trade-offs (paper Sec. 9).
//
// Two engines compute the Pareto set of minimal storage distributions:
//
//  * Exhaustive ("exact"): the algorithm described in the paper — a divide
//    and conquer over the distribution-size dimension (using monotonicity
//    of the maximal throughput in the size), where the maximal throughput
//    of one size is established by enumerating every distribution of that
//    size between the per-channel lower bounds and the max-throughput
//    distribution. Exponential but complete; the reference implementation.
//
//  * Incremental: the scalable strategy of the published SDF3 tool — start
//    from the per-channel lower bounds and repeatedly bump only channels
//    whose lack of space delayed a firing in the periodic phase (storage
//    dependencies), processing candidate distributions in size order.
//
// Both support the paper's throughput quantisation (Sec. 11): with a grid
// step, throughputs are rounded down to the grid, which collapses nearby
// Pareto points and drastically shortens dense explorations (H.263).
#pragma once

#include <optional>

#include "base/rational.hpp"
#include "buffer/bounds.hpp"
#include "buffer/pareto.hpp"
#include "exec/cancellation.hpp"
#include "exec/progress.hpp"
#include "sdf/graph.hpp"
#include "state/simd_backend.hpp"

namespace buffy::buffer {

class ThroughputCache;  // buffer/throughput_cache.hpp

/// Which exploration engine to run.
enum class DseEngine {
  Exhaustive,
  Incremental,
};

/// Options for a design-space exploration.
struct DseOptions {
  /// Actor whose throughput spans the throughput dimension.
  sdf::ActorId target;
  DseEngine engine = DseEngine::Incremental;
  /// Round throughputs down to multiples of this step (Sec. 11's remedy for
  /// dense Pareto fronts). Unset = exact throughputs.
  std::optional<Rational> quantization;
  /// Convenience alternative to `quantization`: use a step of (maximal
  /// throughput / levels), i.e. at most `levels` distinct Pareto
  /// throughputs. Ignored when `quantization` is set.
  std::optional<i64> quantization_levels;
  /// Explore no distribution larger than this size (paper Sec. 10: the user
  /// may restrict the space of interest). Unset = up to the ub of Fig. 7.
  std::optional<i64> max_distribution_size;
  /// Stop once this throughput is reached (upper bound of interest).
  std::optional<Rational> throughput_goal;
  /// Report only Pareto points with at least this throughput (the paper's
  /// Sec. 10 lower bound on the space of interest). The search below the
  /// bound still runs — smaller distributions seed the climb — but the
  /// returned set is filtered.
  std::optional<Rational> min_throughput;
  /// Safety bound on the number of distributions whose throughput is
  /// computed; exceeding it throws.
  u64 max_distributions = 5'000'000;
  /// Safety bound per state-space run.
  u64 max_steps_per_run = 100'000'000;

  /// Per-channel capacity constraint for distributed-memory mappings
  /// (paper Sec. 8: non-unique minimal distributions become interesting
  /// "as extra constraints on the channel capacities").
  struct ChannelBounds {
    /// Explore no capacity below this (on top of the analytic lower bound).
    std::optional<i64> min;
    /// Explore no capacity above this (the channel's memory is this big).
    std::optional<i64> max;
  };
  /// Empty, or one entry per channel of the graph.
  std::vector<ChannelBounds> channel_constraints;

  /// Optional processor binding (actor index -> processor): actors sharing
  /// a processor execute mutually exclusively during every throughput run,
  /// sizing the buffers for the mapped system (the paper's multiprocessor
  /// context; see mapping/). Supported by the incremental engine.
  std::vector<std::size_t> binding;

  /// Must be 1: every exploration runs on the calling thread, and
  /// explore() / explore_size_slice() throw Error for any other value.
  /// Concurrency lives across requests (buffyd's pool sharing one
  /// ThroughputCache) and across processes (the fleet router). The field
  /// stays because existing callers (the request-path benchmark) set it.
  unsigned threads = 1;

  /// Consult the per-exploration throughput cache: candidates inside an
  /// earlier run's equivalence box are answered from the box index
  /// (exhaustive engine), and candidates implied by Sec. 8
  /// monotone dominance (pointwise >= a max-throughput witness, pointwise
  /// <= a deadlocked distribution) skip simulation entirely. Dominance
  /// answers equal the simulated values exactly, so the Pareto front is
  /// byte-identical with the cache on or off (see DESIGN.md §7). Disable
  /// to force every candidate through a full state-space run.
  bool use_throughput_cache = true;

  /// Derive LP cycle-cut throughput bounds (src/lp/, DESIGN.md §13) and
  /// use them to answer candidates and subtree envelopes that provably
  /// cannot beat the running incumbent, skipping their simulations. The
  /// cut bound dominates the simulated throughput, so every LP answer
  /// agrees with the simulation it replaces and the Pareto front is
  /// byte-identical with the bounds on or off. The incremental engine
  /// additionally warm-starts its frontier from the LP necessary floors.
  bool use_lp_bounds = true;

  /// Box bound for the throughput cache (0 = unbounded): once it holds
  /// this many boxes the cache admits no new ones and evicts nothing (see
  /// ThroughputCache). A refused outcome is only
  /// re-simulated later, so the Pareto front stays byte-identical at any
  /// cap.
  /// Ignored when `shared_cache` is set (a shared cache carries its own
  /// bound).
  u64 cache_capacity = 0;

  /// Optional externally owned cache reused across explorations (the
  /// resident buffyd daemon shares one per graph+target so repeated
  /// queries hit warm state; see src/service/). Preconditions: it was
  /// created with this graph+target's maximal throughput, and `binding`
  /// is empty — cached values are binding-free simulation outcomes, so a
  /// bound exploration must not share them. Null = the exploration builds
  /// its own cache. Ignored when `use_throughput_cache` is false. The
  /// caller must keep it alive for the whole exploration; concurrent
  /// explorations may share one cache (it is internally synchronised).
  ThroughputCache* shared_cache = nullptr;

  /// State-space backend for candidate evaluation (DESIGN.md §15). Auto
  /// resolves to the widest lane kernel the host supports (AVX2, falling
  /// back to the portable SWAR path); Scalar forces the classic
  /// one-candidate-at-a-time solver. A lane backend packs up to
  /// `simd_lanes` sibling candidates into each state-space batch; every
  /// per-candidate result is field-for-field identical to the scalar
  /// solver's, so the Pareto front is byte-identical across backends and
  /// lane widths. The lane path derives a static magnitude certificate
  /// (analysis::derive_bounds, DESIGN.md §16) over the exploration
  /// envelope, which elects the narrow (i32) kernel once per graph. A
  /// processor binding is the one reason the lane path stays scalar: the
  /// lane kernel simulates unbound execution only. Requesting an
  /// unavailable backend (Avx2 on a host without it) is an error.
  state::SimdBackend simd = state::SimdBackend::Auto;

  /// Candidates per lane batch, clamped to [1, 64]; 0 = the backend's
  /// default width (identical for every lane backend, keeping exploration
  /// counters host-independent).
  std::size_t simd_lanes = 0;

  /// Wall-clock budget in milliseconds. When it runs out the exploration
  /// stops at the next safepoint and returns the Pareto points verified so
  /// far, with DseResult::cancelled set — a valid partial front rather
  /// than a hang (every reported point's throughput was fully computed).
  std::optional<i64> deadline_ms;

  /// External cancellation (composes with `deadline_ms`); same partial
  /// result semantics. The default token never cancels.
  exec::CancellationToken cancel;

  /// Optional metrics sink: points explored, reduced states stored, pruned
  /// candidates, waves, Pareto points. Not owned; may be null. Must
  /// outlive the exploration; safe to snapshot from another thread while
  /// the exploration runs.
  exec::Progress* progress = nullptr;
};

/// Result of a design-space exploration.
struct DseResult {
  /// The Pareto points, by increasing size / strictly increasing throughput.
  ParetoSet pareto;
  /// The Fig. 7 bounds that framed the search.
  DesignSpaceBounds bounds;
  /// Some channel's max constraint lies below its analytic lower bound: no
  /// distribution can satisfy the constraints with positive throughput.
  bool constraints_infeasible = false;
  /// The exploration hit its deadline or was cancelled; `pareto` holds the
  /// verified points found before the stop (a valid partial front).
  bool cancelled = false;
  /// Number of storage distributions whose throughput was computed
  /// (including cache-answered candidates; the max_distributions guard
  /// counts these too).
  u64 distributions_explored = 0;
  /// Largest reduced state space stored in any single run (Table 2 metric;
  /// over simulated runs — cache-answered candidates store no states).
  u64 max_states_stored = 0;
  /// Full state-space simulations actually executed.
  u64 simulations_run = 0;
  /// Former exact-repeat count; no engine answers exact repeats any more
  /// (buffyd's front memo answers identical requests), so it reads 0.
  u64 cache_hits = 0;
  /// Candidates answered from an earlier run's equivalence box
  /// (exhaustive engine; DESIGN.md §7).
  u64 box_hits = 0;
  /// Candidates answered by Sec. 8 dominance without simulation.
  u64 dominance_skips = 0;
  /// Exhaustive engine: candidates or subtree envelopes answered by an LP
  /// cycle-cut bound without simulation. Incremental engine: tokens the LP
  /// necessary floors added to the warm-start point (candidates below it
  /// can only deadlock). 0 when use_lp_bounds is off or no cut applies.
  u64 lp_prunes = 0;
  /// LP cycle cuts derived for the exploration.
  u64 lp_cuts = 0;
  /// The lane path's magnitude certificate proved the narrow (i32) lane
  /// kernel for the whole exploration envelope, so lane batches skipped
  /// the per-batch capacity gate (false on the scalar backend, under a
  /// processor binding, or when the envelope exceeds the narrow limit).
  bool static_narrow = false;
  /// The backend that evaluated candidates (never Auto): Scalar under a
  /// processor binding, with `simd` = Scalar, or when nothing was explored.
  state::SimdBackend backend = state::SimdBackend::Scalar;
  /// Wall-clock seconds spent exploring.
  double seconds = 0.0;
};

/// Explores the design space with the selected engine.
///
/// Preconditions: `options.target` is a valid actor id of `graph`;
/// `options.channel_constraints` is empty or has one entry per channel;
/// `options.binding` is empty or has one entry per actor. Throws
/// ConsistencyError for inconsistent graphs; returns an empty Pareto set
/// when the graph deadlocks for every distribution.
///
/// Thread-safety: explore() only reads `graph` and runs on the calling
/// thread, so concurrent explorations of the same graph are safe. Sizes
/// are token counts; throughputs are exact target-firings-per-time-step
/// rationals, quantised only when requested.
[[nodiscard]] DseResult explore(const sdf::Graph& graph,
                                const DseOptions& options);

/// The same exploration framed by already computed `bounds`, which must be
/// design_space_bounds(graph, options.target, options.max_steps_per_run)
/// — a caller that memoizes them per graph (buffyd's cache registry) skips
/// the MCM and the capacity doubling. The overload above computes the
/// bounds and takes this path; the result is byte-identical.
[[nodiscard]] DseResult explore(const sdf::Graph& graph,
                                const DseOptions& options,
                                const DesignSpaceBounds& bounds);

/// Rounds a throughput down to the quantisation grid (no-op when the step
/// is unset).
[[nodiscard]] Rational quantize_down(const Rational& value,
                                     const std::optional<Rational>& step);

/// Resolves `quantization_levels` into a concrete quantisation step and
/// tightens the throughput goal to the near-max grid level (Sec. 11) —
/// exactly the preprocessing explore() applies before dispatching to an
/// engine. Exposed so out-of-process drivers (the fleet router and its
/// explore_slice workers) reproduce the engine-effective options
/// bit-for-bit; no-op when `quantization` is already set or no level count
/// was requested.
void apply_quantization_levels(DseOptions& options,
                               const DesignSpaceBounds& bounds);

/// Per-channel exploration floor: the analytic lower bound raised to any
/// user minimum. Used by both engines.
[[nodiscard]] std::vector<i64> constrained_floor(const DseOptions& options,
                                                 const DesignSpaceBounds& b);

/// Per-channel user ceiling (max constraint), or nullopt per channel.
[[nodiscard]] std::vector<std::optional<i64>> constrained_ceiling(
    const DseOptions& options, std::size_t num_channels);

}  // namespace buffy::buffer
