// Structured exploration tracing (DESIGN.md §8).
//
// The hot layers (state::Engine, state::ThroughputSolver, both DSE
// engines) emit span and instant events describing what the exploration
// did: one span per candidate simulation, one per incremental wave and per
// exhaustive size scan, instants for cache hits, dominance skips, engine
// reconfigurations and Pareto points. Events carry a monotonic timestamp,
// a dense tracer-assigned thread index and a per-thread sequence number;
// they are buffered per thread (no cross-thread synchronisation on the
// emission path) and merged deterministically on demand.
//
// Tracing is compiled in unconditionally but costs one relaxed atomic
// load per emission site when no collector is attached (enabled() below);
// bench_micro pins the overhead of that guard at < 2% of a throughput
// run. Attach a Collector to turn events on:
//
//     trace::Collector collector;
//     trace::attach(&collector);
//     ... run the exploration ...
//     trace::attach(nullptr);
//     trace::write_chrome_trace(collector.merged(), out);  // trace/chrome.hpp
//
// Thread-safety: emission is safe from any number of threads while a
// collector is attached. attach()/merged() are control-plane calls: the
// caller must not detach or destroy a collector while worker threads may
// still emit (in this codebase explorations join their workers before
// returning, so attaching around a buffer::explore call is safe).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/checked_math.hpp"

namespace buffy::trace {

/// What an event describes. The arg0/arg1 meanings per kind are part of
/// the trace schema (DESIGN.md §8) and are rendered with these names by
/// the Chrome sink.
enum class EventKind : std::uint8_t {
  /// Span: one whole design-space exploration. arg0 = engine (0 =
  /// exhaustive, 1 = incremental), arg1 = number of channels.
  Exploration = 0,
  /// Span: one candidate throughput simulation (a full state-space run).
  /// arg0 = distribution size (sum of capacities; -1 when some channel is
  /// unbounded), arg1 = reduced states stored.
  Simulation,
  /// Span: one same-size evaluation wave of the incremental engine.
  /// arg0 = candidates in the wave, arg1 = distribution size of the wave.
  Wave,
  /// Span: one per-size max-throughput scan of the exhaustive engine.
  /// arg0 = distribution size, arg1 = 0.
  SizeEval,
  /// Instant: a candidate answered from the exact-repeat cache.
  /// arg0 = distribution size, arg1 = 0.
  CacheHit,
  /// Instant: a candidate answered by Sec. 8 monotone dominance.
  /// arg0 = distribution size, arg1 = 0.
  DominanceSkip,
  /// Instant: an Engine reset/reconfigure (a new storage distribution
  /// swapped into a warm engine). arg0 = distribution size (-1 when
  /// unbounded), arg1 = 0.
  EngineReset,
  /// Instant: a Pareto point emitted. arg0 = distribution size,
  /// arg1 = throughput as IEEE-754 double bits (see arg1_bits_as_double).
  ParetoPoint,
  /// Instant: a candidate (or subtree envelope) answered by an LP cycle
  /// cut without simulation. arg0 = distribution size, arg1 = 0.
  LpPrune,
  /// Instant: a candidate answered from an earlier run's equivalence box.
  /// arg0 = distribution size, arg1 = 0.
  BoxHit,
};

/// Number of distinct EventKind values (table sizes in the sinks).
inline constexpr std::size_t kNumEventKinds = 10;

/// Stable lower-case name of an event kind ("simulation", "cache_hit"...).
[[nodiscard]] const char* kind_name(EventKind kind);

/// One trace event. Spans have dur_ns >= 0; instants use dur_ns == -1.
struct Event {
  EventKind kind = EventKind::Simulation;
  /// Dense tracer-assigned thread index (0, 1, ...), stable for the
  /// lifetime of one Collector; not an OS thread id.
  std::uint32_t thread = 0;
  /// Per-thread emission sequence number, starting at 0.
  std::uint64_t seq = 0;
  /// Nanoseconds since the collector's epoch (its construction), taken
  /// from a monotonic clock. For spans this is the span's start.
  std::int64_t ts_ns = 0;
  /// Span duration in nanoseconds; -1 marks an instant event.
  std::int64_t dur_ns = -1;
  /// Kind-specific payload; see EventKind.
  std::int64_t arg0 = 0;
  std::int64_t arg1 = 0;

  /// ParetoPoint stores a throughput in arg1 as double bits.
  [[nodiscard]] double arg1_bits_as_double() const;

  friend bool operator==(const Event&, const Event&) = default;
};

/// Collects events from any number of threads into per-thread buffers.
/// One collector per traced operation; reuse requires clear().
class Collector {
 public:
  Collector();
  ~Collector();
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// All events, merged deterministically: sorted by (ts_ns, thread, seq).
  /// The merge is a pure function of the buffered events — merging the
  /// same collector twice yields identical vectors, and each thread's
  /// events keep their emission order (seq is strictly increasing per
  /// thread). Call only while no thread is emitting.
  [[nodiscard]] std::vector<Event> merged() const;

  /// Total events buffered so far (cheap; safe while emitting).
  [[nodiscard]] std::uint64_t event_count() const;

  /// Nanoseconds since the collector's construction on the monotonic
  /// clock used for every timestamp.
  [[nodiscard]] std::int64_t now_ns() const;

  /// Drops all buffered events and thread registrations. Call only while
  /// detached and no thread is emitting.
  void clear();

 private:
  friend struct CollectorAccess;  // emission path (trace.cpp)
  struct ThreadBuffer {
    std::uint32_t index = 0;
    std::uint64_t next_seq = 0;
    std::vector<Event> events;
    std::atomic<std::uint64_t> count{0};  // events.size(), readable racily
  };

  /// Registers the calling thread (or returns its existing buffer).
  ThreadBuffer* buffer_for_this_thread();

  std::int64_t epoch_ns_ = 0;  // steady_clock at construction
  mutable std::mutex mu_;      // guards buffers_ registration
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  // Process-unique incarnation id, refreshed by clear(): keys the
  // per-thread buffer cache so neither clear() nor a new collector
  // reusing this address can alias a stale cached buffer.
  std::uint64_t incarnation_ = 0;
};

namespace detail {
// The globally attached collector. Emission sites load this with relaxed
// ordering; attach() stores with seq_cst so emissions after an attach see
// the collector (the caller orders attach before the traced work).
extern std::atomic<Collector*> g_collector;
}  // namespace detail

/// Attaches a collector globally (nullptr detaches). The previous
/// collector, if any, is returned so scoped attachments can restore it.
Collector* attach(Collector* collector);

/// True when a collector is attached. This is the whole cost of tracing
/// at a quiet emission site: one relaxed atomic load and a branch.
[[nodiscard]] inline bool enabled() {
  return detail::g_collector.load(std::memory_order_relaxed) != nullptr;
}

/// Emits an instant event (no-op when no collector is attached).
void emit_instant(EventKind kind, std::int64_t arg0 = 0,
                  std::int64_t arg1 = 0);

/// Emits a ParetoPoint instant carrying a throughput (stored as double
/// bits in arg1; the Chrome sink renders it as a number again).
void emit_pareto_point(std::int64_t size, double throughput);

/// RAII span: captures the start time at construction (when tracing is
/// enabled) and emits one span event at destruction — including during
/// exception unwind, so cancelled simulations still appear in the trace.
/// If tracing was disabled at construction the span stays disarmed even
/// if a collector is attached later (a half-timed span would lie).
class Span {
 public:
  explicit Span(EventKind kind, std::int64_t arg0 = 0, std::int64_t arg1 = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Updates the args recorded at destruction (e.g. states stored, known
  /// only when the simulation ends). No-op when disarmed.
  void set_args(std::int64_t arg0, std::int64_t arg1);

 private:
  Collector* collector_;  // null = disarmed
  EventKind kind_;
  std::int64_t start_ns_ = 0;
  std::int64_t arg0_;
  std::int64_t arg1_;
};

}  // namespace buffy::trace
