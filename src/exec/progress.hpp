// Counter metrics for long-running explorations (DESIGN.md, exec/).
//
// A Progress is a thread-safe sink of monotonic counters that the engines
// bump as they work: storage distributions whose throughput was computed,
// reduced states stored across all runs, candidates pruned by a bound
// (constraint ceilings, size limits, divide-and-conquer interval
// collapses), Pareto points emitted and evaluation waves completed. A
// consistent point-in-time copy is taken with snapshot(); the snapshot
// renders itself as a single JSON object for machine consumption
// (explore_cli --stats).
//
// Counters use relaxed atomics: they steer no control flow, so the only
// requirement is that concurrent bumps are not lost.
#pragma once

#include <atomic>
#include <chrono>
#include <string>

#include "base/checked_math.hpp"

namespace buffy::exec {

/// Point-in-time copy of a Progress sink's counters.
struct ProgressSnapshot {
  /// Storage distributions whose throughput was computed.
  u64 points_explored = 0;
  /// Reduced states stored, summed over every state-space run.
  u64 states_visited = 0;
  /// Candidates discarded by a bound before evaluation (constraint
  /// ceilings, max_distribution_size, collapsed size intervals).
  u64 pruned_by_bound = 0;
  /// Pareto points emitted so far.
  u64 pareto_points = 0;
  /// Evaluation waves (batches) completed by the incremental engine.
  u64 waves = 0;
  /// Full state-space simulations executed (one per throughput run).
  u64 simulations = 0;
  /// Former exact-repeat count: no engine answers exact repeats any more,
  /// so it reads 0 (kept for the output's shape).
  u64 cache_hits = 0;
  /// Candidates answered from an earlier run's equivalence box.
  u64 box_hits = 0;
  /// Candidates answered by Sec. 8 monotone dominance without simulation.
  u64 dominance_skips = 0;
  /// Candidates or subtree envelopes answered by an LP cycle-cut bound
  /// without simulation (DESIGN.md §13).
  u64 lp_prunes = 0;
  /// Simulations the hot-path machinery avoided relative to the one-run-
  /// per-candidate baseline: cache hits, dominance skips, LP cut answers,
  /// box hits and storage-dependency collections fused into the
  /// throughput run.
  u64 sims_avoided = 0;
  /// Peak footprint of any visited-state arena, in bytes.
  u64 arena_bytes = 0;
  /// Trace events recorded by an attached trace::Collector (0 when the
  /// run was not traced; wired up by the caller that owns the collector).
  u64 trace_events = 0;
  /// Wall-clock seconds since the sink was created (or last reset).
  double seconds = 0.0;
  /// True when the exploration stopped on a deadline or explicit cancel.
  bool cancelled = false;

  /// One JSON object, keys as named above; suitable for log scraping.
  [[nodiscard]] std::string json() const;
};

/// Thread-safe sink of the counters above; see file comment.
class Progress {
 public:
  Progress();

  void add_points(u64 n) { add(points_explored_, n); }
  void add_states(u64 n) { add(states_visited_, n); }
  void add_pruned(u64 n) { add(pruned_by_bound_, n); }
  void add_pareto_points(u64 n) { add(pareto_points_, n); }
  void add_wave() { add(waves_, 1); }
  void add_simulations(u64 n) { add(simulations_, n); }
  void add_box_hits(u64 n) { add(box_hits_, n); }
  void add_dominance_skips(u64 n) { add(dominance_skips_, n); }
  void add_lp_prunes(u64 n) { add(lp_prunes_, n); }
  void add_sims_avoided(u64 n) { add(sims_avoided_, n); }
  void add_trace_events(u64 n) { add(trace_events_, n); }
  /// Raises the peak-arena-bytes gauge to at least `bytes`.
  void note_arena_bytes(u64 bytes) {
    u64 seen = arena_bytes_.v.load(std::memory_order_relaxed);
    while (bytes > seen && !arena_bytes_.v.compare_exchange_weak(
                               seen, bytes, std::memory_order_relaxed)) {
    }
  }
  void mark_cancelled() { cancelled_.v.store(1, std::memory_order_relaxed); }

  /// Consistent-enough copy for reporting (individual counters are exact;
  /// cross-counter skew is bounded by whatever is in flight).
  [[nodiscard]] ProgressSnapshot snapshot() const;

 private:
  /// One counter per cache line. Every worker of a parallel wave bumps
  /// several of these on every candidate; packed adjacently (the previous
  /// layout) they false-share, and the resulting coherence traffic is paid
  /// on the DSE hot path. The alignas(64) keeps each atomic alone on its
  /// line — do not repack these into an array or struct without preserving
  /// per-counter line isolation.
  struct alignas(64) Counter {
    std::atomic<u64> v{0};
  };

  static void add(Counter& counter, u64 n) {
    counter.v.fetch_add(n, std::memory_order_relaxed);
  }

  Counter points_explored_;
  Counter states_visited_;
  Counter pruned_by_bound_;
  Counter pareto_points_;
  Counter waves_;
  Counter simulations_;
  Counter cache_hits_;
  Counter box_hits_;
  Counter dominance_skips_;
  Counter lp_prunes_;
  Counter sims_avoided_;
  Counter arena_bytes_;
  Counter trace_events_;
  Counter cancelled_;  // 0 or 1; same padding discipline as the counters
  std::chrono::steady_clock::time_point start_;
};

}  // namespace buffy::exec
