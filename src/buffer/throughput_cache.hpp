// Cross-distribution throughput cache with Sec. 8 dominance pruning.
//
// Within one design-space exploration, many candidate storage
// distributions have outcomes that are already implied by distributions
// evaluated earlier:
//
//  * an exact repeat (the exhaustive engine's tie enumeration and repeated
//    per-size boxes re-visit capacity vectors) — answered from a striped
//    concurrent map;
//  * a candidate pointwise >= a distribution already known to attain the
//    graph's maximal throughput — by monotonicity of throughput in the
//    storage distribution (paper Sec. 8), its throughput IS the maximum,
//    no simulation needed;
//  * a candidate pointwise <= a distribution that deadlocked — again by
//    monotonicity, it deadlocks too (throughput 0).
//
// Dominance answers are exact, not approximate: monotonicity pins the
// simulated value, so substituting them can never change a fold result —
// which is why the engines stay byte-identical to the uncached scan (see
// DESIGN.md). Monotonicity does NOT hold under a
// processor binding (fixed-priority scheduling anomalies), so the engines
// only consult the dominance rules for unbound explorations.
//
// Every exact map is keyed by the capacity vector together with its
// hash_words value (CapsKey / StoredKey): an engine hashes a candidate once
// and that one hash selects the stripe, probes the snapshot, the delta and
// the merge check, and is kept in each stored key so a rehash or a
// frozen-index copy never re-reads a key's words.
//
// Locking structure (DESIGN.md §14). The authoritative store is striped:
// kStripes independent mutex+unordered_map shards selected by
// capacity-vector hash. The witness sets are small antichains (minimal
// max-throughput witnesses, maximal deadlock witnesses) stored as
// contiguous rows and kept SORTED by total size so a dominance scan ends
// at the first witness whose total already rules the rest out; they live
// under their own lock. Neither lock is on the per-candidate path:
// concurrent explorations sharing the cache (buffyd's requests) each read
// through a point-in-time Snapshot (lock-free for unbounded caches) and
// record fresh outcomes into their own Delta, merged back with merge()
// once per wave. A stale Snapshot read is always safe — a missed entry
// merely costs a re-simulation whose outcome is identical to the cached
// one — and merge() verifies exactly that: duplicate keys across deltas
// (or against resident entries) must carry the same simulated value,
// otherwise determinism is broken somewhere and merge() throws.
//
// A cache may be bounded (a resident daemon must not grow without limit):
// with a non-zero entry capacity, every stripe keeps an LRU list of its
// exact entries and evicts its least-recently-used one when it exceeds its
// share of the capacity. Eviction only ever forgets — an evicted candidate
// is simply re-simulated on its next appearance — so a bounded cache keeps
// every byte-identity guarantee of an unbounded one. The witness
// antichains are already capped and are never evicted: Sec. 8 dominance
// keeps answering even for distributions whose exact entries are gone.
// Bounded caches have no frozen exact index (lock-free reads cannot
// refresh LRU recency); their Snapshots fall back to the locked map for
// exact lookups and stay lock-free for the witness scans.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/checked_math.hpp"
#include "base/diagnostics.hpp"
#include "base/hash.hpp"
#include "base/rational.hpp"
#include "sdf/ids.hpp"

namespace buffy::buffer {

/// Everything the DSE engines consume from one throughput evaluation, so a
/// cache hit substitutes for the simulation entirely.
struct CachedThroughput {
  Rational throughput;
  bool deadlocked = false;
  u64 states_stored = 0;
  i64 cycle_start_time = 0;
  i64 period = 0;
  /// True when storage_deps was recorded (the incremental engine needs the
  /// dependencies to expand children; the exhaustive engine does not).
  bool has_deps = false;
  std::vector<sdf::ChannelId> storage_deps;
};

/// A capacity vector with its hash_words value and its total size,
/// computed once. An engine builds one per candidate and hands it to every
/// lookup and record of that candidate; one-shot callers pass the vector
/// and convert implicitly. Holds a reference: the vector must outlive the
/// key.
class CapsKey {
 public:
  CapsKey(const std::vector<i64>& caps)  // NOLINT: implicit by design
      : CapsKey(caps, hash_words(caps)) {}
  /// Re-attaches a hash computed earlier; `hash` must be hash_words(caps).
  CapsKey(const std::vector<i64>& caps, u64 hash)
      : caps_(&caps), hash_(hash) {
    for (const i64 c : caps) {
      // The witness scans rely on it (see row_le).
      BUFFY_REQUIRE(c >= 0, "channel capacities must be >= 0");
      total_ = checked_add(total_, c);
    }
  }

  [[nodiscard]] const std::vector<i64>& caps() const { return *caps_; }
  [[nodiscard]] u64 hash() const { return hash_; }
  [[nodiscard]] i64 total() const { return total_; }

 private:
  const std::vector<i64>* caps_;
  u64 hash_;
  i64 total_ = 0;
};

class ThroughputCache {
 public:
  class Snapshot;
  class Delta;

  /// `max_throughput` is the graph's maximal throughput for the explored
  /// target — the value a max-witness dominance hit reports.
  /// `capacity` bounds the number of resident exact entries (0 =
  /// unbounded): each of the kStripes shards holds at most
  /// max(1, capacity / kStripes) entries and evicts its least-recently-
  /// used one on overflow, so the resident total is capacity rounded to
  /// stripe granularity.
  explicit ThroughputCache(Rational max_throughput, u64 capacity = 0);

  /// Exact lookup. With `require_deps`, only entries whose storage
  /// dependencies were recorded count as hits.
  [[nodiscard]] std::optional<CachedThroughput> find(
      const CapsKey& key, bool require_deps) const;

  /// Sec. 8 dominance, max rule: caps pointwise >= a recorded
  /// max-throughput witness. The answer carries the maximal throughput and
  /// no dependencies (callers only use it where dependencies are moot).
  [[nodiscard]] std::optional<CachedThroughput> find_max_dominated(
      const CapsKey& key) const;

  /// Sec. 8 dominance, deadlock rule: caps pointwise <= a recorded
  /// deadlocked distribution. The answer is a deadlock (throughput 0).
  [[nodiscard]] std::optional<CachedThroughput> find_deadlock_dominated(
      const CapsKey& key) const;

  /// Records a simulated outcome; feeds the witness antichains when the
  /// outcome is the maximal throughput or a deadlock. Note: the frozen
  /// index is built from merged deltas only, so an entry stored directly
  /// (outside merge()) stays invisible to Snapshots of an unbounded cache
  /// once a first merge() has published that index — a safe stale miss;
  /// find() always sees it. The engines route everything through deltas;
  /// store() remains for one-shot callers and tests.
  void store(const CapsKey& key, const CachedThroughput& value);

  /// Seeds a max-throughput witness without a full map entry (e.g. the
  /// Fig. 7 bound's max-throughput distribution, known before the
  /// exploration starts).
  void add_max_witness(const CapsKey& key);

  /// Point-in-time read view for one exploration's wave. Witness scans
  /// are always lock-free (the antichains are copied out). Exact lookups
  /// are lock-free against the frozen two-level index when the cache is
  /// unbounded; a bounded cache's Snapshot delegates exact lookups to the
  /// locked striped map so LRU recency stays exact. Snapshots are
  /// intentionally allowed to lag concurrent writers: a stale miss is
  /// re-simulated to the identical value, never answered wrongly.
  [[nodiscard]] Snapshot snapshot() const;

  /// A fresh write buffer for one exploration's waves.
  [[nodiscard]] Delta make_delta() const;

  /// Folds deltas back into the cache: applied in the given order, each
  /// delta in its insertion order, so a wave merges in exactly the order
  /// it simulated. Feeds the witness
  /// antichains, maintains the bounded-cache LRU, and republishes the
  /// frozen index (unbounded caches) in one copy-on-write batch. The
  /// deltas' entries move into the cache (no key is copied), so each delta
  /// is left without entries; its local witnesses stay until clear().
  ///
  /// Determinism check: a capacity vector recorded by two deltas — or
  /// recorded by a delta and already resident — must carry the same
  /// simulated outcome (simulation is deterministic; dominance answers are
  /// exact). A mismatch means an exploration produced a divergent value,
  /// and merge() throws Error instead of silently picking one.
  void merge(std::span<Delta* const> deltas);

  [[nodiscard]] const Rational& max_throughput() const {
    return max_throughput_;
  }

  /// Audit tamper hook: adds `delta` to the stored throughput of the
  /// exact entry for `caps` (false when no such entry), so tests can
  /// prove the sampled cache-vs-simulation audit catches a corrupted
  /// entry. Updates the frozen index too, so Snapshot readers see the
  /// corruption. Never called outside tests.
  bool corrupt_entry_for_test(const std::vector<i64>& caps,
                              const Rational& delta);

  /// Lifetime counters (relaxed; for metrics only).
  [[nodiscard]] u64 exact_hits() const {
    return exact_hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 dominance_hits() const {
    return dominance_hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 entries_stored() const {
    return stores_.load(std::memory_order_relaxed);
  }
  /// Exact entries evicted by the LRU bound (0 for unbounded caches).
  [[nodiscard]] u64 entries_evicted() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Exact entries currently resident (stored minus evicted).
  [[nodiscard]] u64 entries_resident() const {
    return resident_.load(std::memory_order_relaxed);
  }
  /// Wave merges completed (metrics only).
  [[nodiscard]] u64 merges() const {
    return merges_.load(std::memory_order_relaxed);
  }
  /// The entry bound this cache was built with (0 = unbounded).
  [[nodiscard]] u64 capacity() const { return capacity_; }

  /// Number of map shards; with a bounded cache, each holds at most
  /// max(1, capacity / kStripes) entries. Public so tests can construct
  /// same-stripe key sets (stripe = hash_words(caps) % kStripes) and pin
  /// the eviction order.
  static constexpr std::size_t kStripes = 16;

 private:
  friend class Snapshot;
  friend class Delta;

  // Witness antichains are capped so the dominance scan stays cheap on
  // pathological fronts; beyond the cap new witnesses are dropped (pruning
  // then just fires less often — never incorrectly).
  static constexpr std::size_t kMaxWitnesses = 64;

  /// A capped antichain of witness capacity vectors, stored as contiguous
  /// rows of one width (row r is rows_[r * width_, (r + 1) * width_)) so
  /// the pointwise comparisons run branch-free over adjacent memory and
  /// copying the set for a Snapshot is two allocations. Rows are sorted
  /// ascending by total (ties in insertion order): a max-rule witness must
  /// have total <= the candidate's, a deadlock-rule witness total >= it,
  /// so each scan touches only the qualifying prefix/suffix. Two distinct
  /// vectors of one total are incomparable, so an equal-total row matters
  /// only when it IS the candidate — a hash compare settles that.
  class Antichain {
   public:
    /// Adds caps unless a row lies pointwise below it; drops the rows it
    /// lies below (max-throughput witnesses: minimal elements).
    void insert_minimal(const CapsKey& key);
    /// Adds caps unless a row lies pointwise above it; drops the rows it
    /// lies above (deadlock witnesses: maximal elements).
    void insert_maximal(const CapsKey& key);
    /// True when some row lies pointwise <= caps.
    [[nodiscard]] bool any_below(const CapsKey& key) const;
    /// True when some row lies pointwise >= caps.
    [[nodiscard]] bool any_above(const CapsKey& key) const;
    void clear();

   private:
    struct RowMeta {
      i64 total = 0;
      u64 hash = 0;  // hash_words of the row
      /// A channel on which the row last failed the removal test against
      /// an inserted vector. Successive inserts tend to fail on the same
      /// channel, so it is tried first before the full row compare.
      std::size_t split = 0;
    };

    [[nodiscard]] const i64* row(std::size_t r) const {
      return rows_.data() + r * width_;
    }
    [[nodiscard]] std::size_t size() const { return meta_.size(); }
    /// True when key's vector is one of the rows [from, to).
    [[nodiscard]] bool holds(std::size_t from, std::size_t to,
                             const CapsKey& key) const;
    /// First row whose total is >= / > `total`.
    [[nodiscard]] std::size_t first_at_least(i64 total) const;
    [[nodiscard]] std::size_t first_above(i64 total) const;
    /// Fixes the row width on the first insert; all rows share it.
    void adopt_width(const std::vector<i64>& caps);
    /// Removes, in place and in order, the rows of [from, to) that lie
    /// pointwise below caps (`below`) or above it (`!below`).
    void remove_comparable(std::size_t from, std::size_t to,
                           const std::vector<i64>& caps, bool below);
    /// Appends key after the rows of its total unless the set is full.
    void insert_sorted(const CapsKey& key);

    std::size_t width_ = 0;
    std::vector<RowMeta> meta_;
    std::vector<i64> rows_;
  };

  /// A stored exact-map key: the capacity vector and its hash_words value.
  struct StoredKey {
    std::vector<i64> caps;
    u64 hash = 0;
  };
  /// Hash and equality over stored keys that also accept a CapsKey, so a
  /// lookup reuses the candidate's hash and builds no key.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const StoredKey& k) const noexcept {
      return static_cast<std::size_t>(k.hash);
    }
    std::size_t operator()(const CapsKey& k) const noexcept {
      return static_cast<std::size_t>(k.hash());
    }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const StoredKey& a, const StoredKey& b) const noexcept {
      return a.hash == b.hash && a.caps == b.caps;
    }
    bool operator()(const CapsKey& a, const StoredKey& b) const noexcept {
      return a.hash() == b.hash && a.caps() == b.caps;
    }
    bool operator()(const StoredKey& a, const CapsKey& b) const noexcept {
      return (*this)(b, a);
    }
  };
  /// The same over pointers to resident keys: an unbounded cache never
  /// erases a stripe node, and each key is resident once, so the pointer
  /// identifies the key.
  struct KeyPtrHash {
    using is_transparent = void;
    std::size_t operator()(const StoredKey* k) const noexcept {
      return static_cast<std::size_t>(k->hash);
    }
    std::size_t operator()(const CapsKey& k) const noexcept {
      return static_cast<std::size_t>(k.hash());
    }
  };
  struct KeyPtrEq {
    using is_transparent = void;
    bool operator()(const StoredKey* a, const StoredKey* b) const noexcept {
      return a == b;
    }
    bool operator()(const CapsKey& a, const StoredKey* b) const noexcept {
      return KeyEq{}(a, *b);
    }
    bool operator()(const StoredKey* a, const CapsKey& b) const noexcept {
      return KeyEq{}(b, *a);
    }
  };
  using FrozenMap = std::unordered_map<const StoredKey*, CachedThroughput,
                                       KeyPtrHash, KeyPtrEq>;

  /// Immutable two-level exact index published to Snapshots of an
  /// unbounded cache. `overlay` holds entries merged since the last fold
  /// and shadows `base`; merge() folds the overlay into a fresh base once
  /// it reaches max(64, |base| / 8), so merge cost stays amortized O(new)
  /// while lookups touch at most two hash tables. Both point at the
  /// stripes' keys and copy only the canonical values.
  struct Frozen {
    std::shared_ptr<const FrozenMap> base;  // never null, possibly empty
    FrozenMap overlay;
  };

  /// One exact entry. Deltas and stripes share this node type, so merge()
  /// moves a delta's nodes into the stripes without copying a key or
  /// allocating. A bounded cache's stripe also threads its entries into an
  /// intrusive LRU list (nodes are stable across rehash); elsewhere the
  /// links stay null.
  struct Entry {
    CachedThroughput value;
    const StoredKey* key = nullptr;  // the node's own key, for eviction
    Entry* newer = nullptr;
    Entry* older = nullptr;
  };
  using EntryMap = std::unordered_map<StoredKey, Entry, KeyHash, KeyEq>;
  struct Stripe {
    mutable std::mutex mu;
    EntryMap map;
    Entry* newest = nullptr;  // LRU ends; maintained only when bounded
    Entry* oldest = nullptr;

    void unlink(Entry& e);
    void push_front(Entry& e);
    /// A use: moves e to the front of the LRU list.
    void touch(Entry& e);
  };

  [[nodiscard]] Stripe& stripe_of(u64 hash) const;
  void add_deadlock_witness(const CapsKey& key);
  /// Settles one insert attempt on `stripe` (lock held): a fresh entry is
  /// linked into the LRU list and may evict the stripe's oldest; a
  /// resident one is upgraded (a dependency-carrying value supersedes a
  /// plain one) and touched. `checked` makes a value mismatch against a
  /// resident entry throw (the merge determinism check) instead of
  /// keeping the old value.
  void settle(Stripe& stripe, EntryMap::iterator it, bool inserted,
              const CachedThroughput& value, bool checked);
  /// Moves one delta node into its stripe (merge's determinism-checked
  /// path). For an unbounded cache, appends the resident key and
  /// canonical value to `applied` for the frozen index.
  void apply_node(
      EntryMap::node_type node,
      std::vector<std::pair<const StoredKey*, CachedThroughput>>& applied);
  void feed_witnesses(const CapsKey& key, const CachedThroughput& value);

  Rational max_throughput_;
  u64 capacity_ = 0;         // 0 = unbounded
  u64 per_stripe_cap_ = 0;   // max(1, capacity_ / kStripes) when bounded
  mutable std::array<Stripe, kStripes> stripes_;

  mutable std::mutex witness_mu_;
  Antichain max_witnesses_;       // minimal elements
  Antichain deadlock_witnesses_;  // maximal elements

  /// Serializes merge() bodies (concurrent merges from explorations
  /// sharing this cache) and corrupt_entry_for_test's frozen rebuild.
  std::mutex merge_mu_;
  /// Guards only the frozen_ pointer load/publish; held for nanoseconds.
  mutable std::mutex frozen_mu_;
  /// Null until the first merge() of an unbounded cache; never set for
  /// bounded caches.
  std::shared_ptr<const Frozen> frozen_;

  mutable std::atomic<u64> exact_hits_{0};
  mutable std::atomic<u64> dominance_hits_{0};
  std::atomic<u64> stores_{0};
  std::atomic<u64> evictions_{0};
  std::atomic<u64> resident_{0};
  std::atomic<u64> merges_{0};
};

/// See ThroughputCache::snapshot(). Copyable; typically one per wave.
class ThroughputCache::Snapshot {
 public:
  /// Exact lookup (same contract as ThroughputCache::find). Lock-free
  /// against the frozen index when one exists; otherwise delegates to the
  /// cache's locked map (bounded caches, or before the first merge).
  [[nodiscard]] std::optional<CachedThroughput> find(
      const CapsKey& key, bool require_deps) const;

  /// Sec. 8 max rule over the snapshotted witness antichain; lock-free.
  [[nodiscard]] std::optional<CachedThroughput> find_max_dominated(
      const CapsKey& key) const;

  /// Sec. 8 deadlock rule over the snapshotted antichain; lock-free.
  [[nodiscard]] std::optional<CachedThroughput> find_deadlock_dominated(
      const CapsKey& key) const;

 private:
  friend class ThroughputCache;
  Snapshot() = default;

  const ThroughputCache* cache_ = nullptr;
  std::shared_ptr<const Frozen> frozen_;  // null = use the locked map
  Antichain max_witnesses_;
  Antichain deadlock_witnesses_;
};

/// See ThroughputCache::make_delta(). One per exploration, cleared after
/// each merge; never shared between threads. Records fresh simulation
/// outcomes (insertion order is preserved for the deterministic merge) and
/// answers lookups for what THIS exploration has already learned during
/// the wave — including its own witness candidates, so a wave sees exactly
/// the hit/miss sequence a per-candidate store() would produce.
class ThroughputCache::Delta {
 public:
  /// Records one simulated outcome. Re-recording a key keeps the first
  /// value (upgrading it in place if the new one carries storage deps).
  void record(const CapsKey& key, const CachedThroughput& value);

  /// Exact lookup among this delta's own entries.
  [[nodiscard]] std::optional<CachedThroughput> find(
      const CapsKey& key, bool require_deps) const;

  /// Sec. 8 max rule over this delta's local witnesses.
  [[nodiscard]] std::optional<CachedThroughput> find_max_dominated(
      const CapsKey& key) const;

  /// Sec. 8 deadlock rule over this delta's local witnesses.
  [[nodiscard]] std::optional<CachedThroughput> find_deadlock_dominated(
      const CapsKey& key) const;

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Ready for the next wave; keeps the capacity of the containers.
  void clear();

 private:
  friend class ThroughputCache;
  Delta() = default;

  const ThroughputCache* cache_ = nullptr;  // counters + max throughput
  /// Owns each recorded key once; `entries_` points into its (stable)
  /// nodes in insertion order for the deterministic merge, which moves
  /// the nodes into the cache and leaves both empty.
  EntryMap index_;
  std::vector<const EntryMap::value_type*> entries_;
  Antichain max_witnesses_;
  Antichain deadlock_witnesses_;
};

}  // namespace buffy::buffer
