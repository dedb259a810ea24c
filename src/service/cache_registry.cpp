#include "service/cache_registry.hpp"

#include <algorithm>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <tuple>

#include "base/audit.hpp"
#include "base/diagnostics.hpp"
#include "base/hash.hpp"
#include "buffer/dse.hpp"
#include "buffer/fast_front.hpp"
#include "io/dsl.hpp"
#include "service/requests.hpp"
#include "state/throughput.hpp"

namespace buffy::service {

GraphKey graph_key(const sdf::Graph& graph, const std::string& target_name) {
  GraphKey key;
  key.canonical = io::write_dsl(graph);
  // The canonical text, a separator no DSL byte can be (it is hashed as
  // a whole word), then the target: the same graph explored for two
  // actors must not share warm state — their throughputs differ.
  u64 h = hash_bytes(kFnvOffset, key.canonical);
  h = hash_step(h, 0x1F1F1F1F1F1F1F1FULL);
  key.fingerprint = mix64(hash_bytes(h, target_name));
  key.canonical.push_back('\0');
  key.canonical += target_name;
  return key;
}

u64 graph_fingerprint(const sdf::Graph& graph,
                      const std::string& target_name) {
  return graph_key(graph, target_name).fingerprint;
}

GraphAnalysis analyze_graph(const sdf::Graph& graph, sdf::ActorId target) {
  analysis::MaxThroughput mt = analysis::max_throughput(graph);
  // As explore() does: one reusable solver for the capacity doubling.
  std::optional<state::ThroughputSolver> solver;
  if (!mt.deadlock) solver.emplace(graph);
  buffer::DesignSpaceBounds bounds = buffer::design_space_bounds(
      graph, target, mt, buffer::DseOptions{}.max_steps_per_run,
      solver.has_value() ? &*solver : nullptr);
  return {std::move(mt), std::move(bounds)};
}

namespace {

// Every field of an analysis, for comparison and diagnostics.
std::string describe(const GraphAnalysis& a) {
  const analysis::MaxThroughput& mt = a.max_throughput;
  const buffer::DesignSpaceBounds& b = a.bounds;
  std::ostringstream out;
  out << "mcm deadlock " << mt.deadlock << " period "
      << mt.iteration_period.str() << " repetitions [";
  for (const i64 q : mt.repetitions.counts()) out << ' ' << q;
  out << " ]; bounds deadlock " << b.deadlock << " lb " << b.lb_size << ' '
      << b.per_channel_lb.str() << " ub " << b.ub_size << ' '
      << b.max_throughput_distribution.str() << " max "
      << b.max_throughput.str();
  return out.str();
}

// BUFFY_AUDIT `memoized-analysis`: a memoized analysis must equal one
// re-derived through the uncached entry points (the MCM and the bounds
// overload that computes its own MCM without a reusable solver).
void audit_check_memoized_analysis(const sdf::Graph& graph,
                                   sdf::ActorId target,
                                   const GraphAnalysis& memo) {
  audit::note_check();
  const std::string memoized = describe(memo);
  const std::string fresh =
      describe({analysis::max_throughput(graph),
                buffer::design_space_bounds(graph, target)});
  if (memoized != fresh) {
    audit::fail("memoized-analysis",
                "graph '" + graph.name() + "', target '" +
                    graph.actor(target).name + "': memoized {" + memoized +
                    "} != re-derived {" + fresh + "}");
  }
}

}  // namespace

std::optional<JsonValue> FrontMemo::find(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = answers_.find(key);
  if (it == answers_.end()) return std::nullopt;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void FrontMemo::store(const std::string& key, JsonValue answer) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (answers_.size() < kCapacity) answers_.try_emplace(key, std::move(answer));
}

std::size_t FrontMemo::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return answers_.size();
}

bool FrontMemo::corrupt_for_test(const std::string& key, i64 delta) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = answers_.find(key);
  if (it == answers_.end()) return false;
  JsonValue& answer = it->second;
  if (const JsonValue* explored = answer.find("distributions_explored")) {
    answer.set("distributions_explored",
               JsonValue::integer(explored->as_int() + delta));
    return true;
  }
  const JsonValue* found = answer.find("bounds");
  if (found == nullptr) return false;
  JsonValue bounds = *found;
  bounds.set("ub_size",
             JsonValue::integer(bounds.find("ub_size")->as_int() + delta));
  answer.set("bounds", std::move(bounds));
  return true;
}

namespace {

// The `memoized-front` comparison: each named member of a memoized answer
// must dump to the bytes of the same member re-derived into `want`.
void compare_memoized(const sdf::Graph& graph, const JsonValue& answer,
                      const JsonValue& want,
                      std::initializer_list<const char*> names) {
  for (const char* name : names) {
    const JsonValue* memo = answer.find(name);
    const JsonValue* again = want.find(name);
    const std::string memoized = memo != nullptr ? memo->dump() : "absent";
    const std::string derived = again != nullptr ? again->dump() : "absent";
    if (memoized != derived) {
      audit::fail("memoized-front",
                  "graph '" + graph.name() + "': memoized " + name + " " +
                      memoized + " != re-explored " + derived);
    }
  }
}

}  // namespace

void audit_check_memoized_front(const sdf::Graph& graph,
                                const buffer::DseOptions& options,
                                const JsonValue& answer) {
  audit::note_check();
  buffer::DseOptions uncached = options;
  uncached.use_throughput_cache = false;
  uncached.shared_cache = nullptr;
  uncached.progress = nullptr;
  const buffer::DseResult fresh = buffer::explore(graph, uncached);
  if (fresh.cancelled) return;
  JsonValue want = JsonValue::object();
  set_front(want, fresh.bounds, fresh.pareto);
  want.set("distributions_explored",
           JsonValue::integer(static_cast<i64>(fresh.distributions_explored)));
  compare_memoized(graph, answer, want,
                   {"deadlock", "bounds", "front", "points",
                    "distributions_explored"});
}

void audit_check_memoized_fast_front(const sdf::Graph& graph,
                                     sdf::ActorId target, i64 levels,
                                     const JsonValue& answer) {
  audit::note_check();
  const buffer::FastFrontResult fresh =
      buffer::fast_front(graph, target, levels);
  JsonValue want = JsonValue::object();
  set_front(want, fresh.bounds, fresh.pareto);
  compare_memoized(graph, answer, want, {"bounds", "front", "points"});
}

struct CacheRegistry::Entry {
  explicit Entry(std::string key) : canonical(std::move(key)) {}

  const std::string canonical;
  std::mutex compute_mu;  // serialises the one computation of `analysis`
  std::atomic<bool> ready{false};
  // Written once before `ready` is released, read-only afterwards (but
  // for corrupt_analysis_for_test).
  std::shared_ptr<GraphAnalysis> analysis;
  std::shared_ptr<buffer::ThroughputCache> cache;
  std::shared_ptr<FrontMemo> memo;
};

CacheRegistry::CacheRegistry(std::size_t max_graphs, u64 entries_per_graph)
    : max_graphs_(std::max<std::size_t>(1, max_graphs)),
      entries_per_graph_(entries_per_graph) {}

std::pair<std::shared_ptr<CacheRegistry::Entry>, bool>
CacheRegistry::find_or_insert_locked(u64 fingerprint,
                                     const std::string& canonical) {
  const auto it = slots_.find(fingerprint);
  if (it != slots_.end()) {
    if (it->second.entry->canonical == canonical) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return {it->second.entry, true};
    }
    // Fingerprint collision between distinct keys: replace rather than
    // serve state that belongs to another graph.
    lru_.erase(it->second.lru_it);
    slots_.erase(it);
  }
  lru_.push_front(fingerprint);
  auto entry = std::make_shared<Entry>(canonical);
  slots_.emplace(fingerprint, Slot{entry, lru_.begin()});
  return {std::move(entry), false};
}

void CacheRegistry::evict_over_capacity_locked() {
  while (slots_.size() > max_graphs_) {
    const u64 victim = lru_.back();
    lru_.pop_back();
    slots_.erase(victim);
    ++evictions_;
  }
}

void CacheRegistry::erase_if_current(u64 fingerprint,
                                     const std::shared_ptr<Entry>& entry) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = slots_.find(fingerprint);
  if (it != slots_.end() && it->second.entry == entry) {
    lru_.erase(it->second.lru_it);
    slots_.erase(it);
  }
}

bool CacheRegistry::resolve(Entry& entry, const sdf::Graph& graph,
                            sdf::ActorId target) {
  if (entry.ready.load(std::memory_order_acquire)) return false;
  const std::lock_guard<std::mutex> lock(entry.compute_mu);
  if (entry.ready.load(std::memory_order_relaxed)) return false;
  // A throw leaves `ready` false: nothing is memoized and the next caller
  // computes afresh.
  entry.analysis =
      std::make_shared<GraphAnalysis>(analyze_graph(graph, target));
  if (!entry.analysis->bounds.deadlock) {
    entry.cache = std::make_shared<buffer::ThroughputCache>(
        entry.analysis->bounds.max_throughput, entries_per_graph_);
    entry.memo = std::make_shared<FrontMemo>();
  }
  entry.ready.store(true, std::memory_order_release);
  analyses_computed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void CacheRegistry::note_analysis_hit(const Entry& entry, const GraphKey& key,
                                      const sdf::Graph& graph,
                                      sdf::ActorId target) {
  const u64 ordinal = analysis_hits_.fetch_add(1, std::memory_order_relaxed);
  if (audit::enabled() &&
      audit::sample(hash_step(key.fingerprint, ordinal))) {
    audit_check_memoized_analysis(graph, target, *entry.analysis);
  }
}

CacheRegistry::Lease CacheRegistry::acquire(const GraphKey& key,
                                            const sdf::Graph& graph,
                                            sdf::ActorId target) {
  std::shared_ptr<Entry> entry;
  bool hit = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    std::tie(entry, hit) = find_or_insert_locked(key.fingerprint, key.canonical);
  }
  bool computed = false;
  try {
    computed = resolve(*entry, graph, target);
  } catch (...) {
    erase_if_current(key.fingerprint, entry);
    throw;
  }
  if (!computed) note_analysis_hit(*entry, key, graph, target);
  if (entry->analysis->bounds.deadlock) {
    erase_if_current(key.fingerprint, entry);
    return {nullptr, /*warm=*/false, entry->analysis};
  }
  if (hit) {
    warm_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Only now, with the graph known not to deadlock, may the new entry
    // displace the least recently used one.
    const std::lock_guard<std::mutex> lock(mu_);
    evict_over_capacity_locked();
  }
  return {entry->cache, hit, entry->analysis, entry->memo};
}

CacheRegistry::Lease CacheRegistry::peek(const GraphKey& key,
                                         const sdf::Graph& graph,
                                         sdf::ActorId target) {
  std::shared_ptr<Entry> entry;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = slots_.find(key.fingerprint);
    if (it == slots_.end() || it->second.entry->canonical != key.canonical ||
        !it->second.entry->ready.load(std::memory_order_acquire)) {
      return {};
    }
    entry = it->second.entry;
  }
  note_analysis_hit(*entry, key, graph, target);
  return {nullptr, /*warm=*/false, entry->analysis, entry->memo};
}

CacheRegistry::Lease CacheRegistry::get_or_create(
    u64 fingerprint, const Rational& max_throughput) {
  // A NUL-led tag: never equal to a GraphKey's canonical DSL text.
  std::string tag(1, '\0');
  tag += "max_throughput " + max_throughput.str();
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [entry, hit] = find_or_insert_locked(fingerprint, tag);
  if (hit) {
    warm_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    entry->cache = std::make_shared<buffer::ThroughputCache>(
        max_throughput, entries_per_graph_);
    entry->ready.store(true, std::memory_order_release);
    evict_over_capacity_locked();
  }
  return {entry->cache, hit, nullptr, nullptr};
}

bool CacheRegistry::contains(u64 fingerprint) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return slots_.count(fingerprint) > 0;
}

std::size_t CacheRegistry::resident() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

u64 CacheRegistry::warm_hits() const {
  return warm_hits_.load(std::memory_order_relaxed);
}

u64 CacheRegistry::evictions() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

u64 CacheRegistry::analyses_computed() const {
  return analyses_computed_.load(std::memory_order_relaxed);
}

u64 CacheRegistry::analysis_hits() const {
  return analysis_hits_.load(std::memory_order_relaxed);
}

CacheRegistry::Totals CacheRegistry::totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Totals t;
  for (const auto& [fp, slot] : slots_) {
    const Entry& e = *slot.entry;
    // An entry whose analysis is still being computed has no cache yet.
    if (!e.ready.load(std::memory_order_acquire) || e.cache == nullptr) {
      continue;
    }
    t.dominance_hits += e.cache->dominance_hits();
    t.entries_dropped += e.cache->entries_dropped();
    t.box_hits += e.cache->box_hits();
    t.boxes_stored += e.cache->boxes_stored();
    if (e.memo != nullptr) {
      t.memo_hits += e.memo->hits();
      t.memo_entries += e.memo->size();
    }
  }
  return t;
}

bool CacheRegistry::corrupt_analysis_for_test(const GraphKey& key,
                                              i64 delta) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = slots_.find(key.fingerprint);
  if (it == slots_.end() || it->second.entry->canonical != key.canonical ||
      !it->second.entry->ready.load(std::memory_order_acquire) ||
      it->second.entry->analysis == nullptr) {
    return false;
  }
  it->second.entry->analysis->bounds.ub_size += delta;
  return true;
}

}  // namespace buffy::service
