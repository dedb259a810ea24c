// The exhaustive (reference) design-space exploration engine; see dse.hpp.
#pragma once

#include "buffer/dse.hpp"

namespace buffy::buffer {

/// Divide-and-conquer over distribution sizes with per-size enumeration.
/// Complete within [lb, ub] (and the user's limits); exponential cost.
[[nodiscard]] DseResult explore_exhaustive(const sdf::Graph& graph,
                                           const DseOptions& options,
                                           const DesignSpaceBounds& bounds);

/// The frame of one exhaustive exploration as the fleet router needs it to
/// replicate the divide-and-conquer driver across worker processes
/// (DESIGN.md §17): the size interval of the d&c, the quantised global
/// goal, and the widened enumeration box. Derived deterministically from
/// (graph, engine-effective options, bounds), so the router and every
/// worker compute the identical plan independently.
struct SlicePlan {
  i64 lo_size = 0;  ///< smallest distribution size of the d&c
  i64 hi_size = 0;  ///< largest distribution size of the d&c
  Rational goal;    ///< quantised global throughput goal
  std::vector<i64> box_lb;  ///< per-channel enumeration floors
  std::vector<i64> box_ub;  ///< per-channel ceilings after widening
  /// Seed for the hi_size slice (the padded max-throughput distribution)
  /// when it fits the box; nullopt when user constraints reshape it.
  std::optional<std::vector<i64>> top_seed;
};

/// Computes the slice plan of explore_exhaustive for these inputs. Apply
/// apply_quantization_levels() to the options first — the plan must see
/// the same engine-effective options the workers will.
[[nodiscard]] SlicePlan exhaustive_slice_plan(const sdf::Graph& graph,
                                              const DseOptions& options,
                                              const DesignSpaceBounds& bounds);

/// Pads a witness distribution up to `size` by topping channels toward
/// the plan's ceilings left to right — the d&c's seed construction.
[[nodiscard]] std::vector<i64> pad_to_size(const SlicePlan& plan,
                                           const std::vector<i64>& witness,
                                           i64 size);

/// One per-size evaluation of the exhaustive d&c, shipped to a worker.
struct SliceRequest {
  i64 size = 0;  ///< distribution size to maximise over
  /// Optional known distribution of exactly `size` inside the box; floors
  /// the slice and arms the branch-and-bound (the padded witness of the
  /// enclosing interval's lower endpoint).
  std::optional<std::vector<i64>> seed;
  /// Ceiling the slice cannot exceed (the global goal tightened to the
  /// enclosing interval's upper-endpoint throughput); reaching it ends
  /// the scan with the exact slice maximum.
  Rational slice_goal;
};

/// The slice's exact outcome plus the exploration counters it consumed.
struct SliceOutcome {
  Rational throughput;  ///< quantised slice maximum
  StorageDistribution witness;  ///< lexicographically-first witness
  u64 distributions_explored = 0;
  u64 max_states_stored = 0;
  u64 simulations_run = 0;
  u64 box_hits = 0;
  u64 dominance_skips = 0;
  u64 lp_prunes = 0;
  u64 lp_cuts = 0;
  bool static_narrow = false;
};

/// Evaluates one size slice with the exhaustive engine's full machinery
/// (cache, LP cuts, lane kernel). The outcome is a pure function of
/// (graph, engine-effective options, size, seed, slice_goal) —
/// independent of cache state — which is
/// what makes the router's scattered fronts byte-identical to the
/// single-process exploration. Throws Error when `size` lies outside the
/// plan's enumeration box, the seed is not a distribution of `size`
/// inside it, or `options.threads` is not 1.
[[nodiscard]] SliceOutcome explore_size_slice(const sdf::Graph& graph,
                                              const DseOptions& options,
                                              const DesignSpaceBounds& bounds,
                                              const SliceRequest& request);

/// All storage distributions of exactly the given size (inside the Fig. 7
/// box, clamped by the options' channel constraints) whose throughput is at
/// least `min_throughput` — the full set of equal minimal distributions the
/// paper discusses in Sec. 8 (Fig. 6: <1,2,3,3> and <2,1,3,3> tie).
/// Exhaustive; intended for small graphs / the final Pareto points.
[[nodiscard]] std::vector<StorageDistribution> equivalent_minimal_distributions(
    const sdf::Graph& graph, const DseOptions& options, i64 size,
    const Rational& min_throughput);

}  // namespace buffy::buffer
