// Process-wide registry of warm per-graph state for the buffyd daemon.
//
// The throughput of a storage distribution is a pure function of (graph,
// target actor, capacity vector), so a resident service can answer
// repeated queries on the same graph from warm state: the registry maps
// the canonical identity of (graph, target) to an entry holding
//
//  * a shared ThroughputCache that every exact request on the graph feeds
//    and consults (DseOptions::shared_cache),
//  * the graph's analysis — the maximal throughput (the MCM over the HSDF
//    expansion) and the Fig. 7 design-space bounds — computed once per
//    entry instead of once or twice per request, and
//  * a FrontMemo of the finished exact and fast answers, so an identical
//    repeat runs no engine and solves no LP at all.
//
// Each cache is capped (ThroughputCache capacity: once full it admits no
// new boxes, evicts nothing, and counts what it refuses), each memo holds
// a constant number of answers, and the registry itself is LRU-bounded by
// graph, so a daemon serving an unbounded stream of distinct graphs cannot
// grow without limit — the least-recently-queried graph's entry is dropped
// first, memo included.
//
// Entries are handed out as shared_ptr: an eviction never invalidates a
// cache or an analysis an in-flight request still holds, it only stops
// future requests from finding it.
#pragma once

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "analysis/max_throughput.hpp"
#include "base/checked_math.hpp"
#include "base/rational.hpp"
#include "buffer/bounds.hpp"
#include "buffer/dse.hpp"
#include "buffer/throughput_cache.hpp"
#include "sdf/graph.hpp"
#include "service/json.hpp"

namespace buffy::service {

/// Canonical identity of (graph, target actor): the canonical DSL
/// serialisation (io::write_dsl round-trips every semantic field: actor
/// names, execution times, rates, initial tokens) and the target's name,
/// plus their 64-bit FNV-1a fingerprint. The fingerprint indexes the
/// registry (and routes a graph to its fleet shard); `canonical` decides
/// identity, so a fingerprint collision can never share state.
struct GraphKey {
  u64 fingerprint = 0;
  /// write_dsl(graph), a NUL byte (which no DSL text contains), the target.
  std::string canonical;
};

[[nodiscard]] GraphKey graph_key(const sdf::Graph& graph,
                                 const std::string& target_name);

/// graph_key(graph, target_name).fingerprint.
[[nodiscard]] u64 graph_fingerprint(const sdf::Graph& graph,
                                    const std::string& target_name);

/// The per-(graph, target) constants every request on the graph needs.
struct GraphAnalysis {
  analysis::MaxThroughput max_throughput;
  /// design_space_bounds(graph, target) with the default step bound.
  buffer::DesignSpaceBounds bounds;
};

/// Computes a GraphAnalysis: one MCM, and the bounds from it.
[[nodiscard]] GraphAnalysis analyze_graph(const sdf::Graph& graph,
                                          sdf::ActorId target);

/// The finished exact and fast explore answers of one registry entry
/// (DESIGN.md §10). The exact exploration and the fast LP grid are both
/// deterministic, so an answer depends only on the graph, the target and
/// the request's engine-effective options — the key — and an identical
/// repeat is answered without running an engine or solving an LP. Holds
/// at most kCapacity answers of either tier: a full memo refuses new ones
/// and never evicts. Thread-safe.
class FrontMemo {
 public:
  static constexpr std::size_t kCapacity = 16;

  /// The answer stored under `key`, counted as a hit; nullopt when none.
  [[nodiscard]] std::optional<JsonValue> find(const std::string& key) const;
  /// Stores `answer` under `key` unless an answer is stored there already
  /// or the memo is full.
  void store(const std::string& key, JsonValue answer);

  [[nodiscard]] u64 hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t size() const;

  /// Audit tamper hook: adds `delta` to the distributions_explored of the
  /// answer stored under `key`, or to the bounds' ub_size of a fast answer
  /// (which counts no distributions); false when there is neither. Never
  /// called outside tests.
  bool corrupt_for_test(const std::string& key, i64 delta);

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, JsonValue> answers_;
  mutable std::atomic<u64> hits_{0};
};

/// BUFFY_AUDIT `memoized-front`: the front members of a memoized answer
/// (deadlock, bounds, front, points, distributions_explored) must equal
/// those of an uncached exploration under `options`. A re-exploration cut
/// by `options.cancel` proves nothing and is not compared.
void audit_check_memoized_front(const sdf::Graph& graph,
                                const buffer::DseOptions& options,
                                const JsonValue& answer);

/// BUFFY_AUDIT `memoized-front` for a fast answer: its bounds, front and
/// points must equal those of buffer::fast_front(graph, target, levels)
/// run outside the registry (computing its own bounds).
void audit_check_memoized_fast_front(const sdf::Graph& graph,
                                     sdf::ActorId target, i64 levels,
                                     const JsonValue& answer);

/// LRU registry of per-graph entries; see file comment.
/// Thread-safe: all members may be called concurrently.
class CacheRegistry {
 public:
  /// At most `max_graphs` resident entries (>= 1), each cache capped at
  /// `entries_per_graph` boxes (0 = unbounded).
  /// A new entry evicts the least recently used one only once its
  /// analysis shows the graph does not deadlock, so entries still
  /// computing their analysis may briefly exceed the bound (by at most one
  /// per caller).
  CacheRegistry(std::size_t max_graphs, u64 entries_per_graph);

  struct Lease {
    /// Null when the graph deadlocks for every distribution, and in every
    /// lease peek() hands out.
    std::shared_ptr<buffer::ThroughputCache> cache;
    /// True when acquire() found the entry already there — the request is
    /// served from warm state (the status endpoint's cache_warm_hits
    /// counter). Never set by peek().
    bool warm = false;
    /// The entry's analysis (null from get_or_create).
    std::shared_ptr<const GraphAnalysis> analysis;
    /// The entry's answer memo (null whenever `analysis` is, and when the
    /// graph deadlocks for every distribution).
    std::shared_ptr<FrontMemo> memo;
  };

  /// Returns the entry of `key`, creating it (cold) when absent; a hit
  /// refreshes LRU recency. The entry's analysis of (graph, target) —
  /// which `key` must identify — is computed once per entry: concurrent
  /// callers on a cold entry wait for one computation. A computation that
  /// throws is not memoized (the entry is dropped and the exception
  /// propagates; the next request retries), and a graph that deadlocks
  /// for every distribution keeps no entry: its lease has the analysis but
  /// no cache and is never warm.
  [[nodiscard]] Lease acquire(const GraphKey& key, const sdf::Graph& graph,
                              sdf::ActorId target);

  /// The analysis and the front memo of a resident entry of `key` whose
  /// computation finished, in a lease without a cache; an empty lease
  /// when there is none. Never creates an entry, refreshes its recency or
  /// evicts one, so a caller that only peeks (quality=fast, maximal
  /// analyze_throughput) cannot displace exact warm state; a fast request
  /// may still store its finished answer in the memo of a resident entry.
  /// `graph` and `target` are only read by the BUFFY_AUDIT cross-check.
  [[nodiscard]] Lease peek(const GraphKey& key, const sdf::Graph& graph,
                           sdf::ActorId target);

  /// Returns the cache for `fingerprint`, creating it (cold) with the
  /// given maximal throughput when absent — for in-process callers that
  /// hold no GraphKey. Identity is (fingerprint, max_throughput): a
  /// resident entry with another maximal throughput is replaced, but two
  /// graphs colliding on the fingerprint with equal maximal throughputs
  /// would share one cache; acquire() compares the full key instead.
  /// These entries carry no analysis and never match an acquire() key.
  [[nodiscard]] Lease get_or_create(u64 fingerprint,
                                    const Rational& max_throughput);

  /// True when the fingerprint currently has a resident entry (test and
  /// metrics hook; does not refresh recency).
  [[nodiscard]] bool contains(u64 fingerprint) const;

  [[nodiscard]] std::size_t resident() const;
  [[nodiscard]] std::size_t max_graphs() const { return max_graphs_; }
  [[nodiscard]] u64 warm_hits() const;
  [[nodiscard]] u64 evictions() const;
  /// Analyses acquire() computed (deadlocking graphs included).
  [[nodiscard]] u64 analyses_computed() const;
  /// acquire() and peek() calls answered from an analysis computed before.
  [[nodiscard]] u64 analysis_hits() const;

  /// Aggregated counters over the resident caches (status endpoint).
  struct Totals {
    u64 dominance_hits = 0;
    u64 entries_dropped = 0;
    u64 box_hits = 0;
    u64 boxes_stored = 0;
    u64 memo_hits = 0;
    u64 memo_entries = 0;
  };
  [[nodiscard]] Totals totals() const;

  /// Audit tamper hook: adds `delta` to the memoized upper bound (ub_size)
  /// of the resident entry of `key`; returns false when there is no
  /// finished analysis to corrupt. Exists only so test_audit can prove the
  /// memoized-analysis cross-check catches a corrupted bound. Never
  /// called outside tests, never concurrently with other members.
  bool corrupt_analysis_for_test(const GraphKey& key, i64 delta);

 private:
  struct Entry;
  struct Slot {
    std::shared_ptr<Entry> entry;
    std::list<u64>::iterator lru_it;
  };

  /// The resident entry of (fingerprint, canonical), refreshed; else a
  /// fresh entry put in its place. Second: whether it was a hit. Caller
  /// holds mu_.
  std::pair<std::shared_ptr<Entry>, bool> find_or_insert_locked(
      u64 fingerprint, const std::string& canonical);
  /// Drops LRU-tail entries while more than max_graphs_ are resident.
  /// Caller holds mu_.
  void evict_over_capacity_locked();
  /// Drops the slot of `fingerprint` if it still holds `entry`.
  void erase_if_current(u64 fingerprint, const std::shared_ptr<Entry>& entry);
  /// Computes the entry's analysis unless done; true when this call did.
  bool resolve(Entry& entry, const sdf::Graph& graph, sdf::ActorId target);
  /// Counts an analysis hit and runs the sampled BUFFY_AUDIT cross-check.
  void note_analysis_hit(const Entry& entry, const GraphKey& key,
                         const sdf::Graph& graph, sdf::ActorId target);

  const std::size_t max_graphs_;
  const u64 entries_per_graph_;
  mutable std::mutex mu_;
  std::list<u64> lru_;  // front = most recently used fingerprint
  std::unordered_map<u64, Slot> slots_;
  u64 evictions_ = 0;  // guarded by mu_
  std::atomic<u64> warm_hits_{0};
  std::atomic<u64> analyses_computed_{0};
  std::atomic<u64> analysis_hits_{0};
};

}  // namespace buffy::service
