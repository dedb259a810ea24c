// quality=fast exploration: an LP-derived storage/throughput front
// (DESIGN.md §13).
//
// Where the exact engines simulate every candidate distribution, the fast
// tier answers from the LP layer alone: the periodic-schedule sufficiency
// LP (lp::min_buffers_for_throughput) is solved on a grid of throughput
// targets between zero and the graph's maximal throughput, and each
// feasible point contributes a (distribution, guaranteed throughput)
// pair. Every reported point is sound — the distribution provably reaches
// at least the reported throughput, because a strictly periodic schedule
// witnesses it and self-timed execution only does better — but the front
// is approximate: a point's true throughput may be higher, and smaller
// distributions reaching the same throughput may exist. The exact front
// dominates-or-equals the fast front pointwise (pinned by the property
// suite).
//
// The only simulations spent are the handful inside design_space_bounds
// (the Fig. 7 anchor), whose max-throughput distribution also caps the
// front with one exact point.
#pragma once

#include "base/rational.hpp"
#include "buffer/bounds.hpp"
#include "buffer/pareto.hpp"
#include "sdf/graph.hpp"

namespace buffy::buffer {

/// Result of a fast (LP-only) front computation.
struct FastFrontResult {
  /// Sound approximate front: every point's distribution reaches at least
  /// the point's throughput. Empty when the graph deadlocks everywhere.
  ParetoSet pareto;
  /// The Fig. 7 bounds that framed the grid (deadlock flag included).
  DesignSpaceBounds bounds;
  /// Periodic LPs solved (one per grid level that stayed feasible).
  u64 lp_solves = 0;
  /// Solves answered numeric_overflow by the simplex's coefficient
  /// pre-size gate (DESIGN.md §16). When every solve overflows the front
  /// degenerates to the bare max-throughput anchor — still sound, but
  /// callers offering an exact tier should downgrade to it instead.
  u64 lp_overflows = 0;
  /// Simplex pivots spent across all solves.
  u64 lp_pivots = 0;
  /// Cycle cuts derived for the necessary floors.
  u64 lp_cuts = 0;
  /// Wall-clock seconds spent.
  double seconds = 0.0;
};

/// Computes the fast front for `target` with `levels` grid points between
/// zero and the maximal throughput (the top level is the exact Fig. 7
/// anchor). `max_steps` bounds each of the few bootstrap simulations.
/// Requires a consistent graph and levels >= 1; throws ConsistencyError
/// otherwise.
[[nodiscard]] FastFrontResult fast_front(const sdf::Graph& graph,
                                         sdf::ActorId target, i64 levels = 8,
                                         u64 max_steps = 100'000'000);

/// The same front framed by already computed `bounds`, which must be
/// design_space_bounds(graph, target) — a caller holding them (buffyd's
/// cache registry) skips the MCM and the bootstrap simulations. The
/// overload above computes the bounds and forwards here.
[[nodiscard]] FastFrontResult fast_front(const sdf::Graph& graph,
                                         sdf::ActorId target, i64 levels,
                                         const DesignSpaceBounds& bounds);

}  // namespace buffy::buffer
