// Lane-parallel throughput solver (DESIGN.md §15): computes the reduced
// state-space throughput of up to 64 candidate storage distributions at
// once by stepping them in lockstep lanes of the SIMD kernel
// (simd_kernel.hpp) and retiring each lane the moment its own execution
// closes its cycle or proves deadlock — retired lanes are refilled from
// the remaining candidate queue without restarting the batch, so lane
// divergence costs idle mask slots, never recomputation.
//
// Results are field-for-field identical to running the scalar
// ThroughputSolver once per candidate (same throughput, states_stored,
// cycle/period/time fields, storage_deps) — the property the DSE engines'
// byte-identical-front guarantee rests on, pinned by test_lane_kernel and
// the 200-seed property sweep.
#pragma once

#include <span>
#include <vector>

#include "analysis/bounds.hpp"
#include "sdf/graph.hpp"
#include "state/simd_backend.hpp"
#include "state/simd_kernel.hpp"
#include "state/throughput.hpp"

namespace buffy::state {

/// Options of one lane batch; the subset of ThroughputOptions that the
/// lane kernel supports (no bindings, recorders or reduced-state
/// collection — the DSE hot path uses none of them; callers needing those
/// use the scalar solver).
struct LaneBatchOptions {
  /// Actor whose firing rate is measured; must be a valid id of the graph.
  sdf::ActorId target;
  /// Per-candidate safety bound on simulated time steps, as in
  /// ThroughputOptions::max_steps; a lane exceeding it fails the batch
  /// with the scalar kernel's Error.
  u64 max_steps = 100'000'000;
  /// Collect each candidate's storage dependencies (see
  /// ThroughputOptions::collect_storage_deps), fused into the batch.
  bool collect_storage_deps = false;
  /// Collect each candidate's equivalence box (see
  /// ThroughputOptions::collect_box), fused into the batch.
  bool collect_box = false;
  /// Polled between lockstep steps; once cancelled the batch fails with
  /// exec::Cancelled (no per-candidate partial results).
  exec::CancellationToken cancel;
  /// Optional metrics sink, reported per retired candidate.
  exec::Progress* progress = nullptr;
  /// The caller asserts every candidate of this batch lies inside the
  /// storage budget of the certificate the solver was built with (the DSE
  /// engines enforce this by construction — box bounds, channel ceilings
  /// or the wave-size envelope). With a narrow-certified solver this
  /// skips the per-batch capacity scan entirely; under BUFFY_AUDIT the
  /// scan still runs as a cross-check and any divergence fails the
  /// `static-narrow-certificate` audit.
  bool within_certificate = false;
};

/// Reusable lane-batch kernel over one graph: SoA state rows for `lanes`
/// simultaneous executions plus one visited-state table per lane, all
/// recycled across batches (the lane twin of ThroughputSolver's reuse
/// contract). Not thread-safe; concurrent explorations each own their
/// solver.
class LaneThroughputSolver {
 public:
  /// `lanes` in [kMinLanes, kMaxLanes]; `backend` must be Swar or Avx2
  /// and available on this host (resolve_backend first). The graph must
  /// outlive the solver. An optional magnitude certificate
  /// (analysis::derive_bounds) selects the narrow kernel statically: when
  /// it matches the graph, fits i64 and its magnitude_bound is within
  /// kNarrowLimit, batches flagged within_certificate run the i32 kernel
  /// without re-scanning candidate capacities. The certificate (if any)
  /// must outlive the solver.
  LaneThroughputSolver(const sdf::Graph& graph, std::size_t lanes,
                       SimdBackend backend,
                       const analysis::BoundsCertificate* certificate =
                           nullptr);

  /// Simulates every candidate (a bounded capacity vector, one entry per
  /// channel in channel-index order) and writes its result to the same
  /// index of `results`. Candidates beyond the lane width queue up and
  /// enter lanes as earlier candidates retire, in index order.
  ///
  /// Preconditions: results.size() == candidates.size(); every candidate
  /// covers every channel with capacity >= the channel's initial tokens.
  /// On Error (max_steps) or exec::Cancelled the whole batch is void; the
  /// solver remains reusable.
  void compute_batch(std::span<const std::vector<i64>> candidates,
                     const LaneBatchOptions& opts,
                     std::span<ThroughputResult> results);

  /// Convenience form returning freshly allocated results.
  [[nodiscard]] std::vector<ThroughputResult> compute_batch(
      std::span<const std::vector<i64>> candidates,
      const LaneBatchOptions& opts);

  [[nodiscard]] const sdf::Graph& graph() const { return graph_; }
  [[nodiscard]] std::size_t lanes() const { return lanes_; }
  [[nodiscard]] SimdBackend backend() const { return backend_; }
  /// True when the certificate proves the narrow kernel per graph (so
  /// within_certificate batches skip the dynamic capacity gate).
  [[nodiscard]] bool static_narrow() const { return static_narrow_; }

  /// Peak visited-table footprint across all lanes and batches.
  [[nodiscard]] std::size_t table_bytes() const;

 private:
  /// SoA lane state at one lane width (rows of stride_ words of T; see
  /// LaneKernelViewT). The solver keeps two sets: the full-range i64
  /// tables and — when the graph's magnitudes fit — the narrow i32 twin,
  /// which packs twice the lanes per vector. Which set a batch runs on is
  /// decided per batch (kNarrowLimit gate over the candidate capacities);
  /// both produce bit-identical results, so the choice is invisible.
  template <typename T>
  struct LaneTables {
    std::vector<T> clocks;
    std::vector<T> tokens;
    std::vector<T> occupied;
    std::vector<T> caps;
    std::vector<T> live;
    std::vector<T> delta;
    std::vector<T> scratch;
    std::vector<T> demand;
  };

  template <typename T>
  void init_lane(LaneTables<T>& t, std::size_t l, std::span<const i64> caps,
                 bool track_deps, bool track_box);
  template <typename T>
  void run_batch(LaneTables<T>& t,
                 LaneStepResult (*step)(const LaneKernelViewT<T>&),
                 std::span<const std::vector<i64>> candidates,
                 const LaneBatchOptions& opts,
                 std::span<ThroughputResult> results);

  const sdf::Graph& graph_;
  std::size_t lanes_ = 0;
  std::size_t stride_ = 0;
  SimdBackend backend_ = SimdBackend::Swar;
  bool narrow_ok_ = false;  ///< graph magnitudes fit the i32 kernel
  /// Certificate-backed per-graph narrow selection (see the constructor).
  const analysis::BoundsCertificate* certificate_ = nullptr;
  bool static_narrow_ = false;
  LaneStepResult (*step64_)(const LaneKernelView&) = nullptr;
  LaneStepResult (*step32_)(const LaneKernelView32&) = nullptr;

  // Graph structure (capacity-independent, built once).
  std::vector<i64> exec_time_;
  std::vector<i64> initial_tokens_;
  std::vector<LanePort> in_ports_;
  std::vector<std::size_t> in_begin_;
  std::vector<LanePort> out_ports_;
  std::vector<std::size_t> out_begin_;

  LaneTables<i64> wide_;
  LaneTables<i32> narrow_;  // allocated only when narrow_ok_

  // Width-independent rows: absolute instants grow with the run length,
  // not with graph magnitudes, so they stay i64 under either kernel.
  std::vector<i64> last_block_;
  std::vector<i64> now_;

  // Per-lane run bookkeeping.
  std::vector<i64> firings_;
  std::vector<i64> last_completion_;
  std::vector<u64> steps_;
  std::vector<std::size_t> candidate_;
  std::vector<VisitedTable> tables_;
  std::size_t max_table_bytes_ = 0;
};

}  // namespace buffy::state
