// Cross-distribution throughput cache with Sec. 8 dominance pruning.
//
// Within one design-space exploration, many candidate storage
// distributions have outcomes that are already implied by distributions
// evaluated earlier:
//
//  * a candidate pointwise >= a distribution already known to attain the
//    graph's maximal throughput — by monotonicity of throughput in the
//    storage distribution (paper Sec. 8), its throughput IS the maximum,
//    no simulation needed;
//  * a candidate pointwise <= a distribution that deadlocked — again by
//    monotonicity, it deadlocks too (throughput 0);
//  * a candidate inside an earlier run's equivalence box (DESIGN.md §7):
//    a run that never failed a space check on channel c only ever asked
//    c for its demand floor, so any distribution that keeps the channels
//    that did block at their capacities and gives every other channel at
//    least its floor replays that run exactly — answered from a box index
//    grouped by blocked-channel mask. Only the exhaustive engine records
//    and probes boxes; the incremental engine, whose children bump exactly
//    the blocking channels, feeds the witnesses only. Identical repeats of
//    a whole request are answered above the engines (buffyd's front memo,
//    DESIGN.md §10).
//
// Dominance answers are exact, not approximate: monotonicity pins the
// simulated value, so substituting them can never change a fold result —
// which is why the engines stay byte-identical to the uncached scan (see
// DESIGN.md). Monotonicity does NOT hold under a
// processor binding (fixed-priority scheduling anomalies), so the engines
// only consult the dominance rules for unbound explorations.
//
// Locking structure (DESIGN.md §14). The witness sets are small
// antichains (minimal max-throughput witnesses, maximal deadlock
// witnesses) stored as contiguous rows and kept SORTED by total size so a
// dominance scan ends at the first witness whose total already rules the
// rest out; they live under their own lock. Concurrent explorations
// sharing the cache (buffyd's requests) each read through a Snapshot —
// witness scans and box probes read point-in-time copies without a lock —
// and record fresh boxes into their own Delta, merged back with merge()
// once per wave (the only writer of boxes). A stale Snapshot read is
// always safe — a missed box merely costs a re-simulation whose outcome
// is identical to the recorded one — and merge() verifies exactly that:
// a box recorded twice (across deltas, or against a resident box) must
// carry the same floors and outcome, otherwise determinism is broken
// somewhere and merge() throws.
//
// A cache may be bounded (a resident daemon must not grow without limit):
// with a non-zero capacity, merge() stops admitting new boxes once
// `capacity` are resident, and counts what it refuses (entries_dropped).
// Nothing is ever evicted, and a refused box's candidates are simply
// re-simulated, so a bounded cache keeps every byte-identity guarantee of
// an unbounded one. The witness antichains are capped on their own and
// keep answering past the cap: Sec. 8 dominance still covers
// distributions whose boxes were refused.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
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
};

/// A capacity vector with its hash_words value and its total size,
/// computed once. An engine builds one per candidate and hands it to every
/// probe and record of that candidate; one-shot callers pass the vector
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
  /// `capacity` bounds the resident boxes (0 = unbounded): once full,
  /// merge() admits no new box and never evicts.
  explicit ThroughputCache(Rational max_throughput, u64 capacity = 0);

  /// Seeds a max-throughput witness without a full map entry (e.g. the
  /// Fig. 7 bound's max-throughput distribution, known before the
  /// exploration starts).
  void add_max_witness(const CapsKey& key);

  /// Feeds one simulated outcome to the witness antichains: a deadlock
  /// becomes a deadlock witness, an outcome at the maximal throughput a
  /// max witness; any other outcome is ignored.
  void feed_witnesses(const CapsKey& key, const CachedThroughput& value);

  /// Read view for one exploration's wave. Witness scans and box probes
  /// read the antichains and box index as of this call, without a lock;
  /// they may lag concurrent writers, and a stale miss is re-simulated to
  /// the identical value, never answered wrongly.
  [[nodiscard]] Snapshot snapshot() const;

  /// A fresh write buffer for one exploration's waves.
  [[nodiscard]] Delta make_delta() const;

  /// Folds deltas back into the cache — the only path that writes boxes:
  /// applied in the given order, each delta in its insertion order, so a
  /// wave merges in exactly the order it simulated (and a full cache keeps
  /// the earliest). Feeds the witness antichains (refused boxes too) and
  /// publishes the deltas' boxes, which move into the cache, so each
  /// delta is left without boxes; its local witnesses stay until clear().
  ///
  /// Determinism check: a box recorded by two deltas — or recorded by a
  /// delta and already resident — must carry the same floors and outcome
  /// (simulation is deterministic). A mismatch means an exploration
  /// produced a divergent value, and merge() throws Error instead of
  /// silently picking one.
  void merge(std::span<Delta* const> deltas);

  [[nodiscard]] const Rational& max_throughput() const {
    return max_throughput_;
  }

  /// A resident box as tests re-simulate it: its blocked channels, its
  /// corner (the capacities on them, the demand floor elsewhere) and the
  /// recorded outcome.
  struct BoxRecord {
    std::vector<sdf::ChannelId> blocked;
    std::vector<i64> corner;
    CachedThroughput value;
  };
  /// Every resident box, in merge order per mask. For tests.
  [[nodiscard]] std::vector<BoxRecord> boxes_for_test() const;

  /// Audit tamper hook: adds `delta` to the stored throughput of the
  /// resident box that contains `caps` (false when none does), visible to
  /// every Snapshot. Never called outside tests, never concurrently with
  /// lookups.
  bool corrupt_box_for_test(const std::vector<i64>& caps,
                            const Rational& delta);

  /// Lifetime counters (relaxed; for metrics only).
  [[nodiscard]] u64 dominance_hits() const {
    return dominance_hits_.load(std::memory_order_relaxed);
  }
  /// Boxes the capacity refused (0 when unbounded).
  [[nodiscard]] u64 entries_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Wave merges completed (metrics only).
  [[nodiscard]] u64 merges() const {
    return merges_.load(std::memory_order_relaxed);
  }
  /// Candidates answered from an equivalence box (metrics only).
  [[nodiscard]] u64 box_hits() const {
    return box_hits_.load(std::memory_order_relaxed);
  }
  /// Equivalence boxes resident in the published index (at most the
  /// capacity when bounded).
  [[nodiscard]] u64 boxes_stored() const {
    return boxes_stored_.load(std::memory_order_relaxed);
  }

  /// The box bound this cache was built with (0 = unbounded).
  [[nodiscard]] u64 capacity() const { return capacity_; }

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

  /// One equivalence box. A run at γ whose blocked channels form the
  /// group's mask B answers every γ' with γ' = γ on B and γ' >= demand
  /// elsewhere. `pinned` is γ restricted to B in channel order (the
  /// lookup key within the group), `hash` its hash_words value and
  /// `floors` the box's corner: γ on B, the demand floor elsewhere.
  struct Box {
    std::vector<i64> pinned;
    u64 hash = 0;
    std::vector<i64> floors;
    CachedThroughput value;
  };
  /// A candidate restricted to a group's mask, for a lookup without
  /// building a Box.
  struct PinnedKey {
    std::span<const i64> pinned;
    u64 hash = 0;
  };
  struct BoxPtrHash {
    using is_transparent = void;
    std::size_t operator()(const Box* b) const noexcept {
      return static_cast<std::size_t>(b->hash);
    }
    std::size_t operator()(const PinnedKey& k) const noexcept {
      return static_cast<std::size_t>(k.hash);
    }
  };
  struct BoxPtrEq {
    using is_transparent = void;
    bool operator()(const Box* a, const Box* b) const noexcept {
      return a == b;
    }
    bool operator()(const PinnedKey& a, const Box* b) const noexcept;
    bool operator()(const Box* a, const PinnedKey& b) const noexcept {
      return (*this)(b, a);
    }
  };
  using BoxSet = std::unordered_set<const Box*, BoxPtrHash, BoxPtrEq>;
  [[nodiscard]] static const Box* find_box_in(const BoxSet& set,
                                              const PinnedKey& key);

  /// A necessary condition for a candidate to lie in any box of a set
  /// sharing one mask: at least the componentwise minimum corner, and at
  /// most the componentwise maximum pinned capacity on the mask. A lookup
  /// skips a mask that fails it without hashing.
  struct BoxFilter {
    std::vector<i64> floor;
    std::vector<i64> ceiling;

    /// Admits nothing (no box yet).
    void reset(std::size_t width, const std::vector<std::size_t>& on);
    void widen(const Box& box, const std::vector<std::size_t>& on);
    void widen(const BoxFilter& other);
    [[nodiscard]] bool admits(const std::vector<i64>& caps) const;
  };

  /// The channels set in `mask`, ascending.
  [[nodiscard]] static std::vector<std::size_t> mask_channels(
      const std::vector<u64>& mask, std::size_t width);

  /// Hash of a mask's words, for the mask -> group maps.
  struct MaskHash {
    std::size_t operator()(const std::vector<u64>& mask) const noexcept;
  };

  /// The published boxes of one blocked-channel mask. Immutable once
  /// published: a merge that adds boxes publishes a fresh group sharing
  /// `base` and copying only `overlay` (boxes since the last fold),
  /// folding into a new base once the overlay reaches max(64, |base| / 8),
  /// so merge cost stays amortized O(new) while a lookup touches at most
  /// two hash sets.
  struct BoxGroup {
    std::vector<u64> mask;        // ceil(m / 64) words, bit c = channel c
    std::vector<std::size_t> on;  // the mask's channels, ascending
    BoxFilter filter;             // over every box of the group
    std::shared_ptr<const BoxSet> base;  // never null
    BoxSet overlay;

    [[nodiscard]] const Box* find(const PinnedKey& key) const;
  };
  /// The published box index. Groups keep their position forever, so a
  /// reader can carry per-group state (probe order) across snapshots.
  struct BoxIndex {
    std::vector<std::shared_ptr<const BoxGroup>> groups;
  };
  /// merge()'s box pass (merge_mu_ held): checks every delta box against
  /// the published index and the earlier deltas (throws on a mismatch
  /// before anything changes), then moves the boxes in and publishes.
  void merge_boxes(std::span<Delta* const> deltas);

  void add_deadlock_witness(const CapsKey& key);

  Rational max_throughput_;
  u64 capacity_ = 0;  // 0 = unbounded

  mutable std::mutex witness_mu_;
  Antichain max_witnesses_;       // minimal elements
  Antichain deadlock_witnesses_;  // maximal elements

  /// Serializes merge() bodies (concurrent merges from explorations
  /// sharing this cache) and the box test hooks.
  mutable std::mutex merge_mu_;
  /// Guards only the box_index_ pointer load/publish; held for
  /// nanoseconds.
  mutable std::mutex box_index_mu_;
  /// Published under box_index_mu_; null until the first box is merged.
  std::shared_ptr<const BoxIndex> box_index_;

  // Authoritative box store (merge_mu_): resident boxes (stable
  // addresses), each group's boxes in merge order (a fold rebuilds the
  // group's base from them), and the group of each mask.
  std::deque<Box> boxes_;
  std::vector<std::vector<const Box*>> group_boxes_;
  std::unordered_map<std::vector<u64>, std::size_t, MaskHash> group_of_mask_;

  mutable std::atomic<u64> dominance_hits_{0};
  std::atomic<u64> dropped_{0};  // written under merge_mu_
  std::atomic<u64> merges_{0};
  mutable std::atomic<u64> box_hits_{0};
  std::atomic<u64> boxes_stored_{0};
};

/// See ThroughputCache::snapshot(). Copyable; typically one per wave.
class ThroughputCache::Snapshot {
 public:
  /// Sec. 8 max rule over the snapshotted witness antichain; lock-free.
  [[nodiscard]] std::optional<CachedThroughput> find_max_dominated(
      const CapsKey& key) const;

  /// Sec. 8 deadlock rule over the snapshotted antichain; lock-free.
  [[nodiscard]] std::optional<CachedThroughput> find_deadlock_dominated(
      const CapsKey& key) const;

 private:
  friend class ThroughputCache;
  friend class ThroughputCache::Delta;
  Snapshot() = default;

  const ThroughputCache* cache_ = nullptr;
  std::shared_ptr<const BoxIndex> boxes_;  // null = no box merged yet
  Antichain max_witnesses_;
  Antichain deadlock_witnesses_;
};

/// See ThroughputCache::make_delta(). One per exploration, cleared after
/// each merge; never shared between threads. Records fresh boxes
/// (insertion order is preserved for the deterministic merge) and answers
/// probes for what THIS exploration has already learned during the wave —
/// including its own witness candidates, so a wave sees exactly the
/// hit/miss sequence a per-candidate merge would produce.
class ThroughputCache::Delta {
 public:
  /// Sec. 8 max rule over this delta's local witnesses.
  [[nodiscard]] std::optional<CachedThroughput> find_max_dominated(
      const CapsKey& key) const;

  /// Sec. 8 deadlock rule over this delta's local witnesses.
  [[nodiscard]] std::optional<CachedThroughput> find_deadlock_dominated(
      const CapsKey& key) const;

  /// Records one simulated outcome's equivalence box from the run's
  /// per-channel demand floor (state::ThroughputResult::demand): the
  /// channels whose demand exceeds their capacity in `key` blocked and
  /// form the box's mask. Feeds the local witnesses as feed_witnesses()
  /// feeds the cache's. Re-recording a box keeps the first.
  void record_box(const CapsKey& key, std::span<const i64> demand,
                  const CachedThroughput& value);

  /// The outcome of a recorded box that contains the candidate: probes
  /// the boxes published in `snap` and this delta's own, one mask at a
  /// time in most-recently-hit order. `snap` must come from the cache
  /// this delta was made by; the probe order persists across snapshots
  /// (one per exploration, not per wave).
  [[nodiscard]] std::optional<CachedThroughput> find_box(const Snapshot& snap,
                                                         const CapsKey& key);

  /// True when no box was recorded since the last merge.
  [[nodiscard]] bool empty() const { return boxes_.empty(); }

  /// Ready for the next wave; keeps the capacity of the containers and
  /// the box probe order.
  void clear();

 private:
  friend class ThroughputCache;
  Delta() = default;

  /// A recorded box with its mask and the run's full capacities (merge
  /// feeds the cache's witnesses with them).
  struct LocalBox {
    Box box;
    std::vector<i64> caps;
    std::vector<u64> mask;
  };
  /// One mask as this exploration probes it: the published group of the
  /// synced snapshot (if any) plus this delta's boxes of the mask.
  struct Probe {
    std::vector<u64> mask;
    std::vector<std::size_t> on;
    BoxFilter filter;  // over `published`'s and `local`'s boxes
    const BoxGroup* published = nullptr;  // owned by synced_
    BoxSet local;
  };

  /// Points the probes at `snap`'s published groups (a no-op when it is
  /// the index synced last).
  void sync(const Snapshot& snap);
  /// The index of `mask`'s probe, created (last in the order) when new.
  std::size_t probe_of(const std::vector<u64>& mask);
  /// Drops the recorded boxes (merge moved them out, or clear()).
  void drop_boxes();

  const ThroughputCache* cache_ = nullptr;  // counters + max throughput
  Antichain max_witnesses_;
  Antichain deadlock_witnesses_;

  std::deque<LocalBox> boxes_;  // insertion order, stable addresses
  std::size_t width_ = 0;       // channels; fixed by the first box
  std::vector<Probe> probes_;
  std::vector<std::size_t> order_;  // probe indices, most recently hit first
  std::unordered_map<std::vector<u64>, std::size_t, MaskHash> probe_index_;
  std::vector<std::size_t> probe_of_group_;  // published group -> probe
  std::shared_ptr<const BoxIndex> synced_;
  std::vector<i64> pinned_scratch_;
};

}  // namespace buffy::buffer
