// Self-timed execution of a timed SDF graph under a storage distribution
// (paper Sec. 2 and 6).
//
// Semantics, validated against the paper's Fig. 3 state trace:
//  * A firing may start when (i) the actor is idle (no auto-concurrency),
//    (ii) every input channel holds at least the consumption rate, and
//    (iii) every bounded output channel has free space for the production
//    rate, where occupied space counts stored tokens PLUS space already
//    claimed by firings in progress (space is claimed at firing start).
//  * At the end of a firing the actor consumes its input tokens (releasing
//    their space only then) and writes its output tokens into the space
//    claimed at the start.
//  * Every enabled actor fires immediately (maximal throughput, Sec. 5), so
//    execution is deterministic.
//
// The Engine exposes a single-step interface; higher-level throughput and
// schedule computations are built on top of it (state/throughput.hpp).
#pragma once

#include <span>
#include <vector>

#include "sdf/graph.hpp"
#include "state/state.hpp"
#include "state/trace.hpp"

namespace buffy::state {

/// Deterministic self-timed executor for one (graph, capacities) pair.
class Engine {
 public:
  /// The graph must outlive the engine. Capacities must cover every channel.
  Engine(const sdf::Graph& graph, Capacities capacities);

  /// Returns to time 0: initial tokens on the channels, then the start phase
  /// of time step 0 (enabled actors begin firing immediately).
  void reset();

  /// Swaps in new capacities without re-walking the graph (the flattened
  /// per-actor port tables are capacity-independent), then reset()s. This
  /// is what lets one engine serve every distribution of a design-space
  /// exploration instead of being rebuilt per run.
  void reconfigure(Capacities capacities);

  /// Advances one time step: completes due firings (consume + produce), then
  /// starts every enabled actor. Returns false when the graph is deadlocked
  /// after this step (no actor firing); calling step() again is then a no-op
  /// returning false.
  bool step();

  /// Advances directly to the next completion time (the minimum remaining
  /// clock). Between completions no start can become enabled, so this is
  /// observationally identical to repeated step() but skips idle time —
  /// essential for graphs with large execution times (e.g. H.263).
  /// Returns false when deadlocked after the advance.
  bool advance();

  /// Current time (0 after reset; incremented by each step).
  [[nodiscard]] i64 now() const { return now_; }

  /// True when no actor is firing and none can start.
  [[nodiscard]] bool deadlocked() const { return deadlocked_; }

  /// Actors whose firing completed during the most recent step, in actor
  /// index order. Empty directly after reset().
  [[nodiscard]] const std::vector<sdf::ActorId>& completed() const {
    return completed_;
  }

  /// Actors whose firing started during the most recent step (or during
  /// reset() for the start phase of time 0).
  [[nodiscard]] const std::vector<sdf::ActorId>& started() const {
    return started_;
  }

  /// Snapshot of the timed state (clocks, tokens).
  [[nodiscard]] TimedState snapshot() const;

  /// Writes the timed state into a caller-provided buffer of exactly
  /// num_actors + num_channels words (clocks first, then tokens) — the
  /// allocation-free sibling of snapshot() used by the throughput kernel's
  /// arena-backed visited-state table.
  void snapshot_into(std::span<i64> out) const;

  /// Remaining firing time of an actor (0 = idle).
  [[nodiscard]] i64 clock(sdf::ActorId a) const { return clocks_[a.index()]; }

  /// Tokens currently stored in a channel.
  [[nodiscard]] i64 tokens(sdf::ChannelId c) const {
    return tokens_[c.index()];
  }

  /// Tokens plus space claimed by firings in progress.
  [[nodiscard]] i64 occupancy(sdf::ChannelId c) const {
    return occupied_[c.index()];
  }

  /// Per-channel maximum of occupancy() observed since reset().
  [[nodiscard]] const std::vector<i64>& max_occupancy() const {
    return max_occupancy_;
  }

  /// Channels whose space check currently fails for an idle actor whose
  /// token checks all pass — the "storage dependencies" that delay firings
  /// and guide the incremental design-space exploration. Evaluated on the
  /// current state (i.e. after the most recent start phase).
  [[nodiscard]] std::vector<sdf::ChannelId> space_blocked_channels() const;

  /// Allocation-free variant: clears `out` and fills it with the blocked
  /// channels, reusing an internal scratch bitmap. `out` keeps its capacity
  /// across calls, so steady-state use never touches the heap.
  void space_blocked_channels(std::vector<sdf::ChannelId>& out) const;

  /// When on, every start phase records the current time against each
  /// space-blocked channel (same per-instant semantics as
  /// space_blocked_channels, which samples after the start phase: space
  /// never frees and tokens never change within an instant, and a channel's
  /// occupancy is only claimed by its single producer, so the in-phase view
  /// equals the post-phase one). The cost is one extra check per actor that
  /// failed to start — there is no separate scan per advance. Takes effect
  /// at the next reset()/reconfigure().
  void set_space_block_tracking(bool on) { track_space_block_ = on; }

  /// Per-channel time of the most recent space-blocked instant since
  /// reset(), -1 when never blocked. Only maintained while tracking is on.
  [[nodiscard]] const std::vector<i64>& last_space_block() const {
    return last_space_block_;
  }

  /// When on, every space check the start phase evaluates — one per
  /// bounded output of an idle actor whose token checks pass, exactly
  /// where space-block tracking looks — raises the channel's demand to
  /// the occupancy + rate it asked for. The demand is the run's
  /// equivalence box (DESIGN.md §7). Takes effect at the next
  /// reset()/reconfigure().
  void set_demand_tracking(bool on) { track_demand_ = on; }

  /// Per-channel demand floor since reset(): the largest occupancy + rate
  /// of any evaluated space check, at least the initial tokens. A
  /// channel's space check failed at some point exactly when its demand
  /// exceeds its capacity. Only maintained while demand tracking is on.
  [[nodiscard]] const std::vector<i64>& demand() const { return demand_; }

  /// Optional recorder notified of every firing start. Not owned; may be
  /// null. Set before reset() to capture the time-0 start phase.
  void set_recorder(FiringRecorder* recorder) { recorder_ = recorder; }

  /// Optional processor binding: processor_of[i] is the processor of actor
  /// i; actors sharing a processor execute mutually exclusively (the
  /// paper's multiprocessor context). Ties among ready actors go to the
  /// lower actor index (fixed-priority list scheduling) — execution stays
  /// deterministic. An empty vector removes the binding. Call before
  /// reset(); the binding does not enlarge the timed state (processor
  /// occupancy is derivable from the clocks).
  void set_binding(std::vector<std::size_t> processor_of);

  /// The current processor binding (empty = unbound).
  [[nodiscard]] const std::vector<std::size_t>& binding() const {
    return processor_of_;
  }

  [[nodiscard]] const sdf::Graph& graph() const { return graph_; }
  [[nodiscard]] const Capacities& capacities() const { return capacities_; }

  /// BUFFY_AUDIT hook (DESIGN.md §9): re-derives the channel-storage
  /// invariants from the current state — tokens >= 0, stored tokens never
  /// exceed the claimed occupancy, and occupancy never exceeds a bounded
  /// channel's capacity — failing via audit::fail on any violation. The
  /// throughput kernel calls this after every advance while audit mode is
  /// on; it is valid at any point between steps.
  void audit_verify_invariants() const;

  /// Audit tamper hook: forges the claimed occupancy of one channel by
  /// `delta` tokens, so tests can prove audit_verify_invariants reports a
  /// capacity breach with a precise diagnostic. Never called outside
  /// tests.
  void corrupt_occupancy_for_test(sdf::ChannelId c, i64 delta);

 private:
  struct PortRef {
    std::size_t channel;
    i64 rate;
  };

  [[nodiscard]] bool can_start(std::size_t actor) const;
  bool can_start_tracked(std::size_t actor);
  void start_phase();
  bool advance_by(i64 delta);

  const sdf::Graph& graph_;
  Capacities capacities_;

  // Flattened per-actor structure for the hot loop.
  std::vector<i64> exec_time_;
  std::vector<std::vector<PortRef>> inputs_;
  std::vector<std::vector<PortRef>> outputs_;
  std::vector<i64> initial_tokens_;

  std::vector<i64> clocks_;
  std::vector<i64> tokens_;
  std::vector<i64> occupied_;
  std::vector<i64> max_occupancy_;
  std::vector<sdf::ActorId> completed_;
  std::vector<sdf::ActorId> started_;
  i64 now_ = 0;
  // Minimum positive clock (the next completion time minus now_); 0 when no
  // firing is in flight. Maintained by the completion loop and start_phase
  // so advance() never rescans all clocks to find its delta.
  i64 next_completion_ = 0;
  bool deadlocked_ = false;
  FiringRecorder* recorder_ = nullptr;
  std::vector<std::size_t> processor_of_;  // empty = no binding
  std::vector<i64> proc_running_;          // firings in flight per processor
  mutable std::vector<char> blocked_scratch_;  // space_blocked_channels
  bool track_space_block_ = false;
  std::vector<i64> last_space_block_;  // per channel; -1 = never
  bool track_demand_ = false;
  std::vector<i64> demand_;  // per channel; see demand()
};

}  // namespace buffy::state
