// The lane-parallel kernel ABI (DESIGN.md §15): one lockstep time step of N
// self-timed SDF executions over structure-of-arrays state.
//
// The kernel is the data-parallel twin of Engine::advance. Where the
// scalar engine holds one clock per actor and one token count per channel,
// the lane kernel holds a *row* of `stride` values per actor/channel —
// lane l of every row belongs to candidate distribution l — and one time
// step updates all lanes of a row with straight-line, branch-free mask
// arithmetic. Divergence between lanes (different completion times,
// deadlocks, closed cycles) is handled entirely by masks: a lane that has
// finished is parked with delta == 0 and live == 0, which freezes every
// row update for that lane while the others keep stepping.
//
// The kernel's semantics are written once, in simd_lanes_inl.hpp, and
// compiled twice: lane_step_swar at the baseline ISA
// (src/state/simd_swar.cpp) and lane_step_avx2 at -mavx2
// (src/state/simd_avx2.cpp, the only translation unit built with that
// flag). Both compute bit-identical results; the AVX2 entry points must
// only be called after lane_avx2_available() returns true.
//
// The driver that owns the arrays, retires lanes and refills them from the
// candidate queue is state::LaneThroughputSolver (lane_throughput.hpp).
#pragma once

#include <cstddef>

#include "base/checked_math.hpp"

namespace buffy::state {

/// One flattened port of the kernel's per-actor port tables: the channel's
/// row index and the port rate (consumption or production, in tokens per
/// firing).
struct LanePort {
  std::size_t channel = 0;
  i64 rate = 0;
};

/// Sentinel "no firing in flight" value of the per-lane next-completion
/// fold; also the capacity sentinel for unbounded channels (no occupancy
/// can ever exceed it). Large enough that min-folds and `occupied + rate`
/// comparisons never overflow.
inline constexpr i64 kLaneNever = i64{1} << 62;

/// The narrow kernel's sentinel: same role at half width. The driver only
/// enters the i32 kernel when every magnitude of the batch (execution
/// times, rates, capacities) is at most kNarrowLimit, so sums like
/// `occupied + rate` stay below the sentinel and nothing wraps.
inline constexpr i32 kLaneNever32 = i32{1} << 30;

/// Largest magnitude the narrow (i32) kernel accepts; 2 * kNarrowLimit <
/// kLaneNever32, which keeps every kernel sum exact.
inline constexpr i64 kNarrowLimit = i64{1} << 28;

/// Structure-of-arrays view of a lane batch, over lane words of type T
/// (i64 for the full-range kernel, i32 for the narrow twin). All T-typed
/// row pointers address arrays of `stride` values per row, rows back to
/// back:
///
///   clocks     num_actors rows    remaining firing time, 0 = idle
///   tokens     num_channels rows  tokens stored in the channel
///   occupied   num_channels rows  tokens + space claimed by firings
///   caps       num_channels rows  capacity (kLaneNever = unbounded)
///   live       one row            lane mask: -1 = stepping, 0 = parked
///   delta      one row            this step's time advance per lane; must
///                                 be the lane's minimum positive clock
///                                 (> 0 for live lanes, 0 for parked ones)
///   scratch    four rows          kernel-owned mask/fold temporaries
///   demand     num_channels rows  largest occupancy + rate of any
///                                 evaluated space check (the equivalence
///                                 box, DESIGN.md §7); nullptr when box
///                                 tracking is off
///
/// Two rows stay i64 at either lane width, because they hold absolute
/// instants that grow with the run length rather than graph magnitudes:
///
///   now        one row            lane-local current time
///   last_block num_channels rows  latest space-blocked instant, -1 never
///                                 (nullptr when dependency tracking is off)
///
/// Lane masks are whole-word booleans (0 or -1) so they compose with data
/// by plain AND; the per-step result masks are packed one bit per lane.
/// `stride` must be a multiple of 8 (the widest vector path processes 8
/// narrow lanes per vector; the padding lanes beyond the real batch width
/// simply stay parked).
///
/// The port tables are capacity- and lane-independent graph structure:
/// actor a's inputs are in_ports[in_begin[a] .. in_begin[a + 1]) and its
/// outputs out_ports[out_begin[a] .. out_begin[a + 1)). Rates and
/// execution times are stored as i64 and narrowed by the kernel; the
/// driver guarantees they fit T (kNarrowLimit gate for i32).
template <typename T>
struct LaneKernelViewT {
  std::size_t num_actors = 0;
  std::size_t num_channels = 0;
  std::size_t stride = 0;
  std::size_t target = 0;  ///< actor whose completions are reported

  T* clocks = nullptr;
  T* tokens = nullptr;
  T* occupied = nullptr;
  const T* caps = nullptr;
  i64* last_block = nullptr;
  T* demand = nullptr;

  T* live = nullptr;
  T* delta = nullptr;
  i64* now = nullptr;
  T* scratch = nullptr;

  const i64* exec_time = nullptr;  ///< per actor, > 0
  const LanePort* in_ports = nullptr;
  const std::size_t* in_begin = nullptr;  ///< num_actors + 1 offsets
  const LanePort* out_ports = nullptr;
  const std::size_t* out_begin = nullptr;
};

/// The full-range view every backend must support.
using LaneKernelView = LaneKernelViewT<i64>;
/// The narrow view (batch magnitudes gated by kNarrowLimit).
using LaneKernelView32 = LaneKernelViewT<i32>;

/// The sentinel matching a view's lane word.
template <typename T>
inline constexpr T lane_never_of = T(kLaneNever);
template <>
inline constexpr i32 lane_never_of<i32> = kLaneNever32;

/// Per-step outcome, one bit per lane (bit l = lane l).
struct LaneStepResult {
  /// Lanes in which the target actor completed a firing this step.
  u64 target_completed = 0;
  /// Live lanes that are deadlocked after this step's start phase (no
  /// firing in flight and none could start). A lane can have both bits
  /// set; the driver gives cycle detection first claim, exactly like the
  /// scalar kernel.
  u64 deadlocked = 0;
};

/// Advances every live lane by its `delta` (the lane's next completion
/// time): completion phase (consume + produce for firings reaching zero),
/// then start phase in actor order (claim output space, set clocks), then
/// the next-completion fold. On return `now` has advanced, `delta` holds
/// each live lane's *next* step size (0 for lanes reported deadlocked) and
/// the result masks say which lanes need driver attention. Parked lanes
/// (live == 0, delta == 0) are untouched.
///
/// Preconditions: the view invariants above; every live lane's delta is
/// its minimum positive clock (the driver seeds this at refill and the
/// kernel maintains it afterwards).
[[nodiscard]] LaneStepResult lane_step_swar(const LaneKernelView& v);

/// The narrow SWAR step: i32 lanes, twice the lanes per vector. The
/// arithmetic is exact under the kNarrowLimit gate, so results are bit
/// identical to the i64 kernels on the same batch.
[[nodiscard]] LaneStepResult lane_step_swar32(const LaneKernelView32& v);

/// lane_step_swar compiled at -mavx2: identical contract, identical
/// results bit for bit. Must only be called when lane_avx2_available() is
/// true (never on non-x86 hosts, where it compiles at the baseline ISA).
[[nodiscard]] LaneStepResult lane_step_avx2(const LaneKernelView& v);

/// The AVX2 twin of lane_step_swar32 (8 lanes per vector); same contract
/// and availability gate as lane_step_avx2.
[[nodiscard]] LaneStepResult lane_step_avx2_32(const LaneKernelView32& v);

/// Runtime CPU dispatch gate for lane_step_avx2 (cached cpuid probe).
[[nodiscard]] bool lane_avx2_available();

}  // namespace buffy::state
