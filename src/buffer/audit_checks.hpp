// BUFFY_AUDIT cross-checks of the exploration layer (DESIGN.md §9).
//
// Shared by both DSE engines and by the tamper tests, so a test corrupting
// a cache entry exercises the exact code path that guards a production
// exploration:
//
//  * audit_check_cached_throughput — a cached or dominance-derived
//    throughput answer must equal a fresh simulation of the same
//    distribution. The engines call it on a deterministic sample of cache
//    hits (audit::sample over the capacity-vector hash): box hits
//    re-verify the replay argument, dominance hits the Sec. 8
//    monotonicity argument, both end-to-end.
//  * audit_verify_monotone_front — a finished Pareto front must be
//    strictly increasing in both size and throughput; called on every
//    explore() result while audit mode is on.
//  * audit_check_lp_bound — the LP cycle-cut upper bound (DESIGN.md §13)
//    must sit at or above what the simulation actually achieved at the
//    same capacities: a bound below reality would let the pruning layer
//    discard reachable Pareto points. The engines call it on the same
//    deterministic sample of fresh simulations that the cache check
//    uses, whenever cuts were derived for the exploration.
//
// All fail via audit::fail (throwing audit::AuditError) with the
// offending distribution spelled out.
#pragma once

#include <vector>

#include "base/checked_math.hpp"
#include "base/rational.hpp"
#include "buffer/pareto.hpp"
#include "buffer/throughput_cache.hpp"
#include "lp/sdf_model.hpp"
#include "sdf/graph.hpp"

namespace buffy::buffer {

void audit_check_cached_throughput(const sdf::Graph& graph,
                                   sdf::ActorId target, u64 max_steps,
                                   const std::vector<std::size_t>& binding,
                                   const std::vector<i64>& caps,
                                   const CachedThroughput& cached);

void audit_verify_monotone_front(const ParetoSet& front);

void audit_check_lp_bound(const sdf::Graph& graph,
                          const lp::ThroughputCuts& cuts,
                          const std::vector<i64>& caps,
                          const Rational& simulated, bool deadlocked);

}  // namespace buffy::buffer
