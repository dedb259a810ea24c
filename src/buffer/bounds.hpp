// Bounds that frame the storage/throughput design space (paper Sec. 8,
// Fig. 7; the [ALP97]/[Mur96] lower bounds and the [GGD02]-style upper
// bound).
//
// For each channel, a necessary capacity for any positive throughput is
// computed in closed form; a distribution that attains the graph's maximal
// throughput is found constructively (geometric capacity growth until the
// state-space throughput matches the MCM-derived maximum, then trimming to
// the observed occupancy). Between the summed lower bound and the size of
// that distribution lie all Pareto points.
#pragma once

#include <vector>

#include "base/checked_math.hpp"
#include "base/rational.hpp"
#include "buffer/distribution.hpp"
#include "sdf/graph.hpp"

namespace buffy::analysis {
struct MaxThroughput;
}  // namespace buffy::analysis

namespace buffy::state {
class ThroughputSolver;
}  // namespace buffy::state

namespace buffy::buffer {

/// Necessary capacity of one channel for positive throughput: with
/// production rate p, consumption rate c, g = gcd(p, c) and t initial
/// tokens, a channel needs at least p + c - g + (t mod g) tokens of storage
/// (and at least t, to hold the initial tokens). Self-loops additionally
/// keep their consumed tokens while the firing is in flight, so they need
/// t + p.
[[nodiscard]] i64 channel_lower_bound(const sdf::Channel& channel);

/// The lattice of capacities of one channel that run differently
/// (DESIGN.md §2). Occupied space changes only by the rates p and c, so
/// it is always congruent to the initial tokens t modulo g = gcd(p, c),
/// and so is every space check's demand. A capacity therefore runs
/// exactly like its aligned floor, the largest capacity at or below it
/// that is congruent to t: the same schedule, throughput and storage
/// dependencies.
struct CapacityLattice {
  i64 step = 1;     ///< g = gcd(p, c)
  i64 residue = 0;  ///< t mod g

  /// The aligned floor of `cap`: cap - ((cap - t) mod g).
  [[nodiscard]] i64 floor(i64 cap) const {
    return cap - positive_mod(cap - residue, step);
  }
  /// The smallest aligned capacity above `cap`: its floor plus g.
  [[nodiscard]] i64 next(i64 cap) const {
    return checked_add(floor(cap), step);
  }
};

/// The lattice of one channel (self-loops included: their occupancy moves
/// by the same rates).
[[nodiscard]] CapacityLattice channel_lattice(const sdf::Channel& channel);

/// Per-channel lower bounds as a distribution.
[[nodiscard]] StorageDistribution lower_bound_distribution(
    const sdf::Graph& graph);

/// Everything Fig. 7 needs.
struct DesignSpaceBounds {
  /// Per-channel lower bounds (lb_alpha, lb_beta, ... in Fig. 7).
  StorageDistribution per_channel_lb;
  /// Combined lower bound on the distribution size (lb in Fig. 7).
  i64 lb_size = 0;
  /// A distribution attaining the maximal throughput (its size is ub).
  StorageDistribution max_throughput_distribution;
  /// Combined upper bound on the meaningful distribution size (ub in Fig. 7).
  i64 ub_size = 0;
  /// Maximal achievable throughput of the target actor.
  Rational max_throughput;
  /// True when the graph deadlocks for every storage distribution
  /// (a dependency cycle without tokens); all other fields are then void.
  bool deadlock = false;
};

/// Computes the design-space bounds for the given target actor.
/// `max_steps` bounds each state-space run. When `solver` is non-null the
/// capacity-doubling runs reuse it (engine reconfigure + recycled visited
/// arena) instead of building a fresh engine per round; it must be a solver
/// over `graph`.
[[nodiscard]] DesignSpaceBounds design_space_bounds(
    const sdf::Graph& graph, sdf::ActorId target, u64 max_steps = 100'000'000,
    state::ThroughputSolver* solver = nullptr);

/// The same bounds from an already computed maximal throughput `mt` of
/// `graph` (analysis::max_throughput), so a caller that needs both pays
/// for the MCM once. The result equals the overload above.
[[nodiscard]] DesignSpaceBounds design_space_bounds(
    const sdf::Graph& graph, sdf::ActorId target,
    const analysis::MaxThroughput& mt, u64 max_steps = 100'000'000,
    state::ThroughputSolver* solver = nullptr);

}  // namespace buffy::buffer
