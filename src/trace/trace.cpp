#include "trace/trace.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

namespace buffy::trace {

namespace detail {
std::atomic<Collector*> g_collector{nullptr};
}  // namespace detail

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-thread cache of the buffer registered with a specific collector
// incarnation (a process-unique id, so neither clear() nor a new
// collector at a recycled address can alias it). Looked up once per
// emission; registration itself takes the collector mutex.
struct ThreadCache {
  std::uint64_t incarnation = 0;  // 0 = empty
  void* buffer = nullptr;
};
thread_local ThreadCache t_cache;

std::uint64_t next_incarnation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

const char* kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::Exploration: return "exploration";
    case EventKind::Simulation: return "simulation";
    case EventKind::Wave: return "wave";
    case EventKind::SizeEval: return "size_eval";
    case EventKind::CacheHit: return "cache_hit";
    case EventKind::DominanceSkip: return "dominance_skip";
    case EventKind::EngineReset: return "engine_reset";
    case EventKind::ParetoPoint: return "pareto_point";
    case EventKind::LpPrune: return "lp_prune";
    case EventKind::BoxHit: return "box_hit";
  }
  return "unknown";
}

double Event::arg1_bits_as_double() const {
  return std::bit_cast<double>(static_cast<std::uint64_t>(arg1));
}

Collector::Collector()
    : epoch_ns_(steady_now_ns()), incarnation_(next_incarnation()) {}

Collector::~Collector() {
  // Detach defensively if the owner forgot: a dangling global collector
  // pointer would turn the next emission into a use-after-free.
  Collector* self = this;
  detail::g_collector.compare_exchange_strong(self, nullptr,
                                              std::memory_order_seq_cst);
}

std::int64_t Collector::now_ns() const { return steady_now_ns() - epoch_ns_; }

Collector::ThreadBuffer* Collector::buffer_for_this_thread() {
  if (t_cache.incarnation == incarnation_) {
    return static_cast<ThreadBuffer*>(t_cache.buffer);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->index = static_cast<std::uint32_t>(buffers_.size());
  ThreadBuffer* raw = buffer.get();
  buffers_.push_back(std::move(buffer));
  t_cache = ThreadCache{incarnation_, raw};
  return raw;
}

std::vector<Event> Collector::merged() const {
  std::vector<Event> all;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    std::size_t total = 0;
    for (const auto& b : buffers_) total += b->events.size();
    all.reserve(total);
    for (const auto& b : buffers_) {
      all.insert(all.end(), b->events.begin(), b->events.end());
    }
  }
  // Deterministic order: time, then thread index, then per-thread
  // sequence. The key is unique per event (thread, seq), so the sort has
  // exactly one fixed point regardless of buffer registration order.
  std::sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
    if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
    if (a.thread != b.thread) return a.thread < b.thread;
    return a.seq < b.seq;
  });
  return all;
}

std::uint64_t Collector::event_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& b : buffers_) {
    total += b->count.load(std::memory_order_relaxed);
  }
  return total;
}

void Collector::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  incarnation_ = next_incarnation();
  epoch_ns_ = steady_now_ns();
}

Collector* attach(Collector* collector) {
  return detail::g_collector.exchange(collector, std::memory_order_seq_cst);
}

// Friend of Collector: the only path that appends events.
struct CollectorAccess {
  static void record(Collector* c, EventKind kind, std::int64_t ts_ns,
                     std::int64_t dur_ns, std::int64_t arg0,
                     std::int64_t arg1) {
    Collector::ThreadBuffer* buffer = c->buffer_for_this_thread();
    Event e;
    e.kind = kind;
    e.thread = buffer->index;
    e.seq = buffer->next_seq++;
    e.ts_ns = ts_ns;
    e.dur_ns = dur_ns;
    e.arg0 = arg0;
    e.arg1 = arg1;
    buffer->events.push_back(e);
    buffer->count.store(buffer->events.size(), std::memory_order_relaxed);
  }
};

namespace {
void record(Collector* c, EventKind kind, std::int64_t ts_ns,
            std::int64_t dur_ns, std::int64_t arg0, std::int64_t arg1) {
  CollectorAccess::record(c, kind, ts_ns, dur_ns, arg0, arg1);
}
}  // namespace

void emit_instant(EventKind kind, std::int64_t arg0, std::int64_t arg1) {
  Collector* c = detail::g_collector.load(std::memory_order_relaxed);
  if (c == nullptr) return;
  record(c, kind, c->now_ns(), /*dur_ns=*/-1, arg0, arg1);
}

void emit_pareto_point(std::int64_t size, double throughput) {
  emit_instant(EventKind::ParetoPoint, size,
               static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(
                   throughput)));
}

Span::Span(EventKind kind, std::int64_t arg0, std::int64_t arg1)
    : collector_(detail::g_collector.load(std::memory_order_relaxed)),
      kind_(kind),
      arg0_(arg0),
      arg1_(arg1) {
  if (collector_ != nullptr) start_ns_ = collector_->now_ns();
}

Span::~Span() {
  // Re-check against the live global: if the collector was detached (or
  // replaced) mid-span, dropping the event is safer than writing into a
  // possibly-destroyed buffer.
  if (collector_ == nullptr ||
      detail::g_collector.load(std::memory_order_relaxed) != collector_) {
    return;
  }
  const std::int64_t end_ns = collector_->now_ns();
  record(collector_, kind_, start_ns_, end_ns - start_ns_, arg0_, arg1_);
}

void Span::set_args(std::int64_t arg0, std::int64_t arg1) {
  if (collector_ == nullptr) return;
  arg0_ = arg0;
  arg1_ = arg1;
}

}  // namespace buffy::trace
