#include "buffer/throughput_cache.hpp"

#include <algorithm>

#include "base/diagnostics.hpp"
#include "base/hash.hpp"

namespace buffy::buffer {

namespace {

// Row a lies pointwise <= row b (both `n` words). Capacities are
// non-negative, so the unsigned difference b[i] - a[i] has its top bit set
// exactly when a[i] > b[i]; OR-ing the differences without an early exit
// keeps the loop branch-free so the compiler vectorises it.
bool row_le(const i64* a, const i64* b, std::size_t n) {
  u64 negative = 0;
  for (std::size_t i = 0; i < n; ++i) {
    negative |= static_cast<u64>(b[i]) - static_cast<u64>(a[i]);
  }
  return (negative >> 63) == 0;
}

// The merge determinism check compares the fields a simulation pins;
// has_deps / storage_deps may legitimately differ (fused vs plain runs).
bool values_agree(const CachedThroughput& a, const CachedThroughput& b) {
  return a.throughput == b.throughput && a.deadlocked == b.deadlocked &&
         a.states_stored == b.states_stored &&
         a.cycle_start_time == b.cycle_start_time && a.period == b.period;
}

CachedThroughput max_hit(const Rational& max_throughput) {
  CachedThroughput hit;
  hit.throughput = max_throughput;
  return hit;
}

CachedThroughput deadlock_hit() {
  CachedThroughput hit;
  hit.deadlocked = true;
  hit.throughput = Rational(0);
  return hit;
}

}  // namespace

ThroughputCache::ThroughputCache(Rational max_throughput, u64 capacity)
    : max_throughput_(std::move(max_throughput)), capacity_(capacity) {
  if (capacity_ > 0) {
    per_stripe_cap_ = std::max<u64>(1, capacity_ / kStripes);
  }
}

ThroughputCache::Stripe& ThroughputCache::stripe_of(u64 hash) const {
  return stripes_[static_cast<std::size_t>(hash) % kStripes];
}

void ThroughputCache::Stripe::unlink(Entry& e) {
  (e.newer != nullptr ? e.newer->older : newest) = e.older;
  (e.older != nullptr ? e.older->newer : oldest) = e.newer;
  e.newer = e.older = nullptr;
}

void ThroughputCache::Stripe::push_front(Entry& e) {
  e.newer = nullptr;
  e.older = newest;
  (newest != nullptr ? newest->newer : oldest) = &e;
  newest = &e;
}

void ThroughputCache::Stripe::touch(Entry& e) {
  if (&e == newest) return;
  unlink(e);
  push_front(e);
}

// ---------------------------------------------------------------------------
// Sorted witness antichains. Rows are ascending by total, so the rows that
// can lie below a candidate form a prefix and those that can lie above it a
// suffix. Within the equal-total run only the candidate itself can match,
// which a scan over the run's hashes settles.

bool ThroughputCache::Antichain::holds(std::size_t from, std::size_t to,
                                       const CapsKey& key) const {
  for (std::size_t r = from; r < to; ++r) {
    if (meta_[r].hash == key.hash() &&
        std::equal(row(r), row(r) + width_, key.caps().begin())) {
      return true;
    }
  }
  return false;
}

void ThroughputCache::Antichain::adopt_width(const std::vector<i64>& caps) {
  if (meta_.empty()) width_ = caps.size();
  BUFFY_REQUIRE(caps.size() == width_,
                "throughput cache witnesses must share one channel count");
}

std::size_t ThroughputCache::Antichain::first_at_least(i64 total) const {
  return static_cast<std::size_t>(
      std::ranges::lower_bound(meta_, total, {}, &RowMeta::total) -
      meta_.begin());
}

std::size_t ThroughputCache::Antichain::first_above(i64 total) const {
  return static_cast<std::size_t>(
      std::ranges::upper_bound(meta_, total, {}, &RowMeta::total) -
      meta_.begin());
}

bool ThroughputCache::Antichain::any_below(const CapsKey& key) const {
  const std::vector<i64>& caps = key.caps();
  if (caps.size() != width_) return false;
  const std::size_t equal = first_at_least(key.total());
  for (std::size_t r = 0; r < equal; ++r) {
    if (row_le(row(r), caps.data(), width_)) return true;
  }
  return holds(equal, first_above(key.total()), key);
}

bool ThroughputCache::Antichain::any_above(const CapsKey& key) const {
  const std::vector<i64>& caps = key.caps();
  if (caps.size() != width_) return false;
  const std::size_t above = first_above(key.total());
  for (std::size_t r = above; r < size(); ++r) {
    if (row_le(caps.data(), row(r), width_)) return true;
  }
  return holds(first_at_least(key.total()), above, key);
}

void ThroughputCache::Antichain::insert_minimal(const CapsKey& key) {
  adopt_width(key.caps());
  if (any_below(key)) return;
  // Rows caps lies below are no longer minimal; they have a larger total.
  remove_comparable(first_above(key.total()), size(), key.caps(),
                    /*below=*/false);
  insert_sorted(key);
}

void ThroughputCache::Antichain::insert_maximal(const CapsKey& key) {
  adopt_width(key.caps());
  if (any_above(key)) return;
  // Rows caps lies above are no longer maximal; they have a smaller total.
  remove_comparable(0, first_at_least(key.total()), key.caps(),
                    /*below=*/true);
  insert_sorted(key);
}

void ThroughputCache::Antichain::remove_comparable(
    std::size_t from, std::size_t to, const std::vector<i64>& caps,
    bool below) {
  std::size_t keep = from;
  for (std::size_t r = from; r < to; ++r) {
    // Test lo <= hi pointwise: the row below caps, or caps below the row.
    const i64* lo = below ? row(r) : caps.data();
    const i64* hi = below ? caps.data() : row(r);
    std::size_t& split = meta_[r].split;
    if (lo[split] <= hi[split]) {
      if (row_le(lo, hi, width_)) continue;  // comparable: drop the row
      split = 0;
      while (lo[split] <= hi[split]) ++split;
    }
    if (keep != r) {
      meta_[keep] = meta_[r];
      std::copy_n(row(r), width_, rows_.begin() + keep * width_);
    }
    ++keep;
  }
  if (keep == to) return;  // nothing removed
  meta_.erase(meta_.begin() + static_cast<std::ptrdiff_t>(keep),
              meta_.begin() + static_cast<std::ptrdiff_t>(to));
  rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(keep * width_),
              rows_.begin() + static_cast<std::ptrdiff_t>(to * width_));
}

void ThroughputCache::Antichain::insert_sorted(const CapsKey& key) {
  if (size() >= kMaxWitnesses) return;
  const std::size_t pos = first_above(key.total());
  meta_.insert(meta_.begin() + static_cast<std::ptrdiff_t>(pos),
               RowMeta{key.total(), key.hash()});
  rows_.insert(rows_.begin() + static_cast<std::ptrdiff_t>(pos * width_),
               key.caps().begin(), key.caps().end());
}

void ThroughputCache::Antichain::clear() {
  meta_.clear();
  rows_.clear();
  width_ = 0;
}

// ---------------------------------------------------------------------------
// Locked (authoritative) API.

std::optional<CachedThroughput> ThroughputCache::find(
    const CapsKey& key, bool require_deps) const {
  Stripe& stripe = stripe_of(key.hash());
  const std::lock_guard<std::mutex> lock(stripe.mu);
  const auto it = stripe.map.find(key);
  if (it == stripe.map.end()) return std::nullopt;
  if (require_deps && !it->second.value.has_deps) return std::nullopt;
  // A hit refreshes recency (O(1), no allocation).
  if (capacity_ > 0) stripe.touch(it->second);
  exact_hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.value;
}

std::optional<CachedThroughput> ThroughputCache::find_max_dominated(
    const CapsKey& key) const {
  const std::lock_guard<std::mutex> lock(witness_mu_);
  if (!max_witnesses_.any_below(key)) return std::nullopt;
  dominance_hits_.fetch_add(1, std::memory_order_relaxed);
  return max_hit(max_throughput_);
}

std::optional<CachedThroughput> ThroughputCache::find_deadlock_dominated(
    const CapsKey& key) const {
  const std::lock_guard<std::mutex> lock(witness_mu_);
  if (!deadlock_witnesses_.any_above(key)) return std::nullopt;
  dominance_hits_.fetch_add(1, std::memory_order_relaxed);
  return deadlock_hit();
}

void ThroughputCache::settle(Stripe& stripe, EntryMap::iterator it,
                             bool inserted, const CachedThroughput& value,
                             bool checked) {
  if (inserted) {
    resident_.fetch_add(1, std::memory_order_relaxed);
    if (capacity_ == 0) return;
    it->second.key = &it->first;
    stripe.push_front(it->second);
    if (stripe.map.size() > per_stripe_cap_) {
      // Evict this stripe's least-recently-used entry (never the one just
      // inserted: the stripe holds at least two). Its node is located
      // before the erase, so the erase never reads the dying key.
      Entry& victim = *stripe.oldest;
      stripe.unlink(victim);
      stripe.map.erase(stripe.map.find(*victim.key));
      evictions_.fetch_add(1, std::memory_order_relaxed);
      resident_.fetch_sub(1, std::memory_order_relaxed);
    }
    return;
  }
  Entry& resident = it->second;
  if (checked && !values_agree(resident.value, value)) {
    throw Error(
        "throughput cache merge: two evaluations of the same capacity "
        "vector disagree — the deterministic simulation invariant is "
        "broken (delta merge rejected)");
  }
  if (!resident.value.has_deps && value.has_deps) {
    // Upgrade: a dependency-carrying result supersedes a plain one (the
    // incremental engine refuses dependency-free exact hits).
    resident.value = value;
  }
  // A merge touch counts as a use, exactly like a find() hit.
  if (capacity_ > 0) stripe.touch(resident);
}

void ThroughputCache::apply_node(
    EntryMap::node_type node,
    std::vector<std::pair<const StoredKey*, CachedThroughput>>& applied) {
  Stripe& stripe = stripe_of(node.key().hash);
  const std::lock_guard<std::mutex> lock(stripe.mu);
  auto [it, inserted, rejected] = stripe.map.insert(std::move(node));
  settle(stripe, it, inserted,
         inserted ? it->second.value : rejected.mapped().value,
         /*checked=*/true);
  if (capacity_ == 0) applied.emplace_back(&it->first, it->second.value);
}

void ThroughputCache::feed_witnesses(const CapsKey& key,
                                     const CachedThroughput& value) {
  if (value.deadlocked) {
    add_deadlock_witness(key);
  } else if (value.throughput == max_throughput_) {
    add_max_witness(key);
  }
}

void ThroughputCache::store(const CapsKey& key,
                            const CachedThroughput& value) {
  {
    Stripe& stripe = stripe_of(key.hash());
    const std::lock_guard<std::mutex> lock(stripe.mu);
    const auto [it, inserted] = stripe.map.try_emplace(
        StoredKey{key.caps(), key.hash()}, Entry{value});
    settle(stripe, it, inserted, value, /*checked=*/false);
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  feed_witnesses(key, value);
}

void ThroughputCache::add_max_witness(const CapsKey& key) {
  const std::lock_guard<std::mutex> lock(witness_mu_);
  max_witnesses_.insert_minimal(key);
}

void ThroughputCache::add_deadlock_witness(const CapsKey& key) {
  const std::lock_guard<std::mutex> lock(witness_mu_);
  deadlock_witnesses_.insert_maximal(key);
}

// ---------------------------------------------------------------------------
// Snapshot / Delta / merge (DESIGN.md §14).

ThroughputCache::Snapshot ThroughputCache::snapshot() const {
  Snapshot s;
  s.cache_ = this;
  {
    const std::lock_guard<std::mutex> lock(frozen_mu_);
    s.frozen_ = frozen_;  // null for bounded caches / before first merge
  }
  {
    const std::lock_guard<std::mutex> lock(witness_mu_);
    s.max_witnesses_ = max_witnesses_;
    s.deadlock_witnesses_ = deadlock_witnesses_;
  }
  return s;
}

ThroughputCache::Delta ThroughputCache::make_delta() const {
  Delta d;
  d.cache_ = this;
  return d;
}

void ThroughputCache::merge(std::span<Delta* const> deltas) {
  const std::lock_guard<std::mutex> merge_lock(merge_mu_);
  // Pass 1 — determinism check across deltas: duplicate keys must agree.
  // A delta's own keys are unique, so each entry is looked up only in the
  // indexes of the deltas before it (nothing to do for a single delta).
  // (apply_node re-checks each entry against resident values.)
  for (std::size_t i = 1; i < deltas.size(); ++i) {
    for (const auto* entry : deltas[i]->entries_) {
      for (std::size_t j = 0; j < i; ++j) {
        const EntryMap& earlier = deltas[j]->index_;
        const auto it = earlier.find(entry->first);
        if (it != earlier.end() &&
            !values_agree(it->second.value, entry->second.value)) {
          throw Error(
              "throughput cache merge: two deltas disagree on the "
              "same capacity vector — the deterministic simulation "
              "invariant is broken (delta merge rejected)");
        }
      }
    }
  }
  // Pass 2 — apply in slot order, each delta in insertion order, so a
  // sequential wave merges in exactly the order it simulated. Canonical
  // (post-upgrade-rule) values are collected for the frozen index. The
  // order list is taken out of the delta first, so a rejected merge never
  // leaves it pointing at moved nodes.
  std::vector<std::pair<const StoredKey*, CachedThroughput>> applied;
  for (Delta* d : deltas) {
    std::vector<const EntryMap::value_type*> order;
    order.swap(d->entries_);
    if (capacity_ == 0) applied.reserve(applied.size() + order.size());
    for (const auto* entry : order) {
      EntryMap::node_type node = d->index_.extract(entry->first);
      feed_witnesses(CapsKey(node.key().caps, node.key().hash),
                     node.mapped().value);
      apply_node(std::move(node), applied);
      stores_.fetch_add(1, std::memory_order_relaxed);
    }
    order.clear();
    d->entries_.swap(order);  // hand the capacity back
  }
  // Pass 3 — republish the frozen index (unbounded caches only): one
  // copy-on-write batch per merge, folding the overlay into the base when
  // it outgrows max(64, |base| / 8).
  if (capacity_ == 0 && !applied.empty()) {
    std::shared_ptr<const Frozen> old;
    {
      const std::lock_guard<std::mutex> lock(frozen_mu_);
      old = frozen_;
    }
    auto next = std::make_shared<Frozen>();
    const std::size_t base_size = old != nullptr ? old->base->size() : 0;
    const std::size_t overlay_size =
        (old != nullptr ? old->overlay.size() : 0) + applied.size();
    const bool fold =
        old == nullptr ||
        overlay_size >= std::max<std::size_t>(64, base_size / 8);
    if (fold) {
      auto base = old != nullptr ? std::make_shared<FrozenMap>(*old->base)
                                 : std::make_shared<FrozenMap>();
      if (old != nullptr) {
        for (const auto& [key, value] : old->overlay) {
          (*base)[key] = value;
        }
      }
      for (auto& [key, value] : applied) {
        (*base)[key] = std::move(value);
      }
      next->base = std::move(base);
    } else {
      next->base = old->base;  // old non-null here: a null old always folds
      next->overlay = old->overlay;
      for (auto& [key, value] : applied) {
        next->overlay[key] = std::move(value);
      }
    }
    {
      const std::lock_guard<std::mutex> lock(frozen_mu_);
      frozen_ = std::move(next);
    }
  }
  merges_.fetch_add(1, std::memory_order_relaxed);
}

bool ThroughputCache::corrupt_entry_for_test(const std::vector<i64>& caps,
                                             const Rational& delta) {
  const CapsKey key(caps);
  const StoredKey* resident = nullptr;
  CachedThroughput corrupted;
  {
    Stripe& stripe = stripe_of(key.hash());
    const std::lock_guard<std::mutex> lock(stripe.mu);
    const auto it = stripe.map.find(key);
    if (it == stripe.map.end()) return false;
    it->second.value.throughput = it->second.value.throughput + delta;
    resident = &it->first;
    corrupted = it->second.value;
  }
  // Keep the frozen index in sync so Snapshot readers see the corruption
  // (this is what the audit tamper tests rely on).
  const std::lock_guard<std::mutex> merge_lock(merge_mu_);
  std::shared_ptr<const Frozen> old;
  {
    const std::lock_guard<std::mutex> lock(frozen_mu_);
    old = frozen_;
  }
  if (old != nullptr &&
      (old->overlay.contains(key) || old->base->contains(key))) {
    auto next = std::make_shared<Frozen>();
    next->base = old->base;
    next->overlay = old->overlay;
    next->overlay[resident] = corrupted;
    const std::lock_guard<std::mutex> lock(frozen_mu_);
    frozen_ = std::move(next);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Snapshot.

std::optional<CachedThroughput> ThroughputCache::Snapshot::find(
    const CapsKey& key, bool require_deps) const {
  if (frozen_ == nullptr) {
    // Bounded cache (or nothing merged yet): the locked map is the only
    // index, and going through it keeps LRU recency exact.
    return cache_->find(key, require_deps);
  }
  const auto ov = frozen_->overlay.find(key);
  const CachedThroughput* value = nullptr;
  if (ov != frozen_->overlay.end()) {
    value = &ov->second;
  } else {
    const auto it = frozen_->base->find(key);
    if (it != frozen_->base->end()) value = &it->second;
  }
  if (value == nullptr) return std::nullopt;
  if (require_deps && !value->has_deps) return std::nullopt;
  cache_->exact_hits_.fetch_add(1, std::memory_order_relaxed);
  return *value;
}

std::optional<CachedThroughput> ThroughputCache::Snapshot::find_max_dominated(
    const CapsKey& key) const {
  if (!max_witnesses_.any_below(key)) return std::nullopt;
  cache_->dominance_hits_.fetch_add(1, std::memory_order_relaxed);
  return max_hit(cache_->max_throughput_);
}

std::optional<CachedThroughput>
ThroughputCache::Snapshot::find_deadlock_dominated(
    const CapsKey& key) const {
  if (!deadlock_witnesses_.any_above(key)) return std::nullopt;
  cache_->dominance_hits_.fetch_add(1, std::memory_order_relaxed);
  return deadlock_hit();
}

// ---------------------------------------------------------------------------
// Delta.

void ThroughputCache::Delta::record(const CapsKey& key,
                                    const CachedThroughput& value) {
  const auto [it, inserted] =
      index_.try_emplace(StoredKey{key.caps(), key.hash()}, Entry{value});
  if (!inserted) {
    CachedThroughput& existing = it->second.value;
    if (!existing.has_deps && value.has_deps) existing = value;
    return;
  }
  entries_.push_back(&*it);
  // Local witnesses: later candidates of THIS exploration's wave see this
  // outcome through the dominance rules immediately, which is what keeps
  // a sequential wave's hit/miss pattern identical to the per-candidate
  // store() path it replaced.
  if (value.deadlocked) {
    deadlock_witnesses_.insert_maximal(key);
  } else if (value.throughput == cache_->max_throughput_) {
    max_witnesses_.insert_minimal(key);
  }
}

std::optional<CachedThroughput> ThroughputCache::Delta::find(
    const CapsKey& key, bool require_deps) const {
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  const CachedThroughput& value = it->second.value;
  if (require_deps && !value.has_deps) return std::nullopt;
  cache_->exact_hits_.fetch_add(1, std::memory_order_relaxed);
  return value;
}

std::optional<CachedThroughput> ThroughputCache::Delta::find_max_dominated(
    const CapsKey& key) const {
  if (!max_witnesses_.any_below(key)) return std::nullopt;
  cache_->dominance_hits_.fetch_add(1, std::memory_order_relaxed);
  return max_hit(cache_->max_throughput_);
}

std::optional<CachedThroughput>
ThroughputCache::Delta::find_deadlock_dominated(
    const CapsKey& key) const {
  if (!deadlock_witnesses_.any_above(key)) return std::nullopt;
  cache_->dominance_hits_.fetch_add(1, std::memory_order_relaxed);
  return deadlock_hit();
}

void ThroughputCache::Delta::clear() {
  entries_.clear();
  index_.clear();
  max_witnesses_.clear();
  deadlock_witnesses_.clear();
}

}  // namespace buffy::buffer
