#include "buffer/throughput_cache.hpp"

#include <algorithm>
#include <limits>

#include "base/diagnostics.hpp"
#include "base/hash.hpp"

namespace buffy::buffer {

namespace {

// No bound: the floor of a filter that admits nothing, the ceiling of a
// channel off the mask.
constexpr i64 kNoBound = std::numeric_limits<i64>::max();

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

// The merge determinism check: a simulation pins every field.
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

}  // namespace

ThroughputCache::ThroughputCache(Rational max_throughput, u64 capacity)
    : max_throughput_(std::move(max_throughput)), capacity_(capacity) {}

// ---------------------------------------------------------------------------
// The sorted witness antichain. Rows are ascending by total, so the rows
// that can lie below a candidate form a prefix. Within the equal-total run
// only the candidate itself can match, which a scan over the run's hashes
// settles.

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

void ThroughputCache::Antichain::insert_minimal(const CapsKey& key) {
  adopt_width(key.caps());
  if (any_below(key)) return;
  // Rows caps lies below are no longer minimal; they have a larger total.
  remove_comparable(first_above(key.total()), size(), key.caps());
  insert_sorted(key);
}

void ThroughputCache::Antichain::remove_comparable(
    std::size_t from, std::size_t to, const std::vector<i64>& caps) {
  std::size_t keep = from;
  for (std::size_t r = from; r < to; ++r) {
    const i64* above = row(r);
    std::size_t& split = meta_[r].split;
    if (caps[split] <= above[split]) {
      if (row_le(caps.data(), above, width_)) continue;  // drop the row
      split = 0;
      while (caps[split] <= above[split]) ++split;
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
// Writes: merge() and the witnesses it feeds.

void ThroughputCache::feed_witnesses(const CapsKey& key,
                                     const CachedThroughput& value) {
  if (!value.deadlocked && value.throughput == max_throughput_) {
    add_max_witness(key);
  }
}

void ThroughputCache::add_max_witness(const CapsKey& key) {
  const std::lock_guard<std::mutex> lock(witness_mu_);
  max_witnesses_.insert_minimal(key);
}

// ---------------------------------------------------------------------------
// Snapshot / Delta / merge (DESIGN.md §14).

ThroughputCache::Snapshot ThroughputCache::snapshot() const {
  Snapshot s;
  s.cache_ = this;
  {
    const std::lock_guard<std::mutex> lock(box_index_mu_);
    s.boxes_ = box_index_;
  }
  {
    const std::lock_guard<std::mutex> lock(witness_mu_);
    s.max_witnesses_ = max_witnesses_;
  }
  return s;
}

ThroughputCache::Delta ThroughputCache::make_delta() const {
  Delta d;
  d.cache_ = this;
  return d;
}

// ---------------------------------------------------------------------------
// Equivalence boxes (DESIGN.md §7): one group per blocked-channel mask,
// each box keyed within its group by the capacities on the mask.

bool ThroughputCache::BoxPtrEq::operator()(const PinnedKey& a,
                                           const Box* b) const noexcept {
  return a.hash == b->hash && std::ranges::equal(a.pinned, b->pinned);
}

std::size_t ThroughputCache::MaskHash::operator()(
    const std::vector<u64>& mask) const noexcept {
  u64 h = 0;
  for (const u64 word : mask) h = mix64(h ^ word);
  return static_cast<std::size_t>(h);
}

std::vector<std::size_t> ThroughputCache::mask_channels(
    const std::vector<u64>& mask, std::size_t width) {
  std::vector<std::size_t> on;
  for (std::size_t c = 0; c < width; ++c) {
    if ((mask[c / 64] >> (c % 64)) & 1) on.push_back(c);
  }
  return on;
}

void ThroughputCache::BoxFilter::reset(std::size_t width,
                                       const std::vector<std::size_t>& on) {
  floor.assign(width, kNoBound);
  ceiling.assign(width, kNoBound);
  for (const std::size_t c : on) ceiling[c] = 0;
}

void ThroughputCache::BoxFilter::widen(const Box& box,
                                       const std::vector<std::size_t>& on) {
  for (std::size_t c = 0; c < floor.size(); ++c) {
    floor[c] = std::min(floor[c], box.floors[c]);
  }
  for (std::size_t i = 0; i < on.size(); ++i) {
    ceiling[on[i]] = std::max(ceiling[on[i]], box.pinned[i]);
  }
}

void ThroughputCache::BoxFilter::widen(const BoxFilter& other) {
  for (std::size_t c = 0; c < floor.size(); ++c) {
    floor[c] = std::min(floor[c], other.floor[c]);
    ceiling[c] = std::max(ceiling[c], other.ceiling[c]);
  }
}

bool ThroughputCache::BoxFilter::admits(const std::vector<i64>& caps) const {
  return row_le(floor.data(), caps.data(), caps.size()) &&
         row_le(caps.data(), ceiling.data(), caps.size());
}

const ThroughputCache::Box* ThroughputCache::find_box_in(
    const BoxSet& set, const PinnedKey& key) {
  const auto it = set.find(key);
  return it == set.end() ? nullptr : *it;
}

const ThroughputCache::Box* ThroughputCache::BoxGroup::find(
    const PinnedKey& key) const {
  const Box* box = find_box_in(overlay, key);
  return box != nullptr ? box : find_box_in(*base, key);
}

void ThroughputCache::merge_boxes(std::span<Delta* const> deltas) {
  bool any = false;
  for (const Delta* d : deltas) any = any || !d->boxes_.empty();
  if (!any) return;
  std::shared_ptr<const BoxIndex> old;
  {
    const std::lock_guard<std::mutex> lock(box_index_mu_);
    old = box_index_;
  }
  // Check first: (mask, pinned) determines the run, so a key recorded
  // twice — resident, or by two deltas — must carry the same floors and
  // outcome. Nothing has changed when this throws.
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    for (const Delta::LocalBox& lb : deltas[i]->boxes_) {
      const PinnedKey key{lb.box.pinned, lb.box.hash};
      const Box* seen = nullptr;
      const auto group = group_of_mask_.find(lb.mask);
      if (group != group_of_mask_.end()) {
        seen = old->groups[group->second]->find(key);
      }
      for (std::size_t j = 0; j < i && seen == nullptr; ++j) {
        const auto probe = deltas[j]->probe_index_.find(lb.mask);
        if (probe != deltas[j]->probe_index_.end()) {
          seen = find_box_in(deltas[j]->probes_[probe->second].local, key);
        }
      }
      if (seen != nullptr && (seen->floors != lb.box.floors ||
                              !values_agree(seen->value, lb.box.value))) {
        throw Error(
            "throughput cache merge: two runs that blocked on the same "
            "channels at the same capacities disagree — the deterministic "
            "simulation invariant is broken (delta merge rejected)");
      }
    }
  }
  // Apply in delta order, each delta in insertion order. A touched group
  // is republished as a copy sharing the old base; beyond the capacity
  // new boxes are dropped.
  std::vector<std::shared_ptr<BoxGroup>> fresh(group_boxes_.size());
  u64 stored = boxes_stored_.load(std::memory_order_relaxed);
  for (Delta* d : deltas) {
    for (Delta::LocalBox& lb : d->boxes_) {
      feed_witnesses(CapsKey(lb.caps), lb.box.value);
      const auto [it, inserted] =
          group_of_mask_.try_emplace(lb.mask, group_boxes_.size());
      const std::size_t gid = it->second;
      if (inserted) {
        group_boxes_.emplace_back();
        auto group = std::make_shared<BoxGroup>();
        group->mask = lb.mask;
        group->on = mask_channels(lb.mask, lb.caps.size());
        group->filter.reset(lb.caps.size(), group->on);
        group->base = std::make_shared<const BoxSet>();
        fresh.push_back(std::move(group));
      } else if (fresh[gid] == nullptr) {
        fresh[gid] = std::make_shared<BoxGroup>(*old->groups[gid]);
      }
      BoxGroup& group = *fresh[gid];
      if (group.find(PinnedKey{lb.box.pinned, lb.box.hash}) != nullptr) {
        continue;  // an agreeing duplicate
      }
      if (capacity_ > 0 && stored >= capacity_) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        continue;  // the index is full
      }
      const Box& box = boxes_.emplace_back(std::move(lb.box));
      group.overlay.insert(&box);
      group_boxes_[gid].push_back(&box);
      group.filter.widen(box, group.on);
      ++stored;
    }
    d->drop_boxes();
  }
  auto next = std::make_shared<BoxIndex>();
  if (old != nullptr) next->groups = old->groups;
  next->groups.resize(group_boxes_.size());
  for (std::size_t gid = 0; gid < fresh.size(); ++gid) {
    if (fresh[gid] == nullptr) continue;
    BoxGroup& group = *fresh[gid];
    if (group.overlay.size() >=
        std::max<std::size_t>(64, group.base->size() / 8)) {
      group.base = std::make_shared<const BoxSet>(group_boxes_[gid].begin(),
                                                  group_boxes_[gid].end());
      group.overlay.clear();
    }
    next->groups[gid] = std::move(fresh[gid]);
  }
  {
    const std::lock_guard<std::mutex> lock(box_index_mu_);
    box_index_ = std::move(next);
  }
  boxes_stored_.store(stored, std::memory_order_relaxed);
}

std::vector<ThroughputCache::BoxRecord> ThroughputCache::boxes_for_test()
    const {
  const std::lock_guard<std::mutex> merge_lock(merge_mu_);
  std::vector<BoxRecord> records;
  for (std::size_t gid = 0; gid < group_boxes_.size(); ++gid) {
    const std::vector<std::size_t>& on = box_index_->groups[gid]->on;
    for (const Box* box : group_boxes_[gid]) {
      BoxRecord& record = records.emplace_back();
      for (const std::size_t c : on) record.blocked.emplace_back(c);
      record.corner = box->floors;
      record.value = box->value;
    }
  }
  return records;
}

bool ThroughputCache::corrupt_box_for_test(const std::vector<i64>& caps,
                                           const Rational& delta) {
  const std::lock_guard<std::mutex> merge_lock(merge_mu_);
  for (std::size_t gid = 0; gid < group_boxes_.size(); ++gid) {
    const std::vector<std::size_t>& on = box_index_->groups[gid]->on;
    for (const Box* box : group_boxes_[gid]) {
      bool inside = box->floors.size() == caps.size() &&
                    row_le(box->floors.data(), caps.data(), caps.size());
      for (std::size_t i = 0; inside && i < on.size(); ++i) {
        inside = caps[on[i]] == box->pinned[i];
      }
      if (!inside) continue;
      for (Box& resident : boxes_) {
        if (&resident == box) {
          resident.value.throughput = resident.value.throughput + delta;
          return true;
        }
      }
    }
  }
  return false;
}

void ThroughputCache::merge(std::span<Delta* const> deltas) {
  const std::lock_guard<std::mutex> merge_lock(merge_mu_);
  merge_boxes(deltas);
  merges_.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Snapshot.

std::optional<CachedThroughput> ThroughputCache::Snapshot::find_max_dominated(
    const CapsKey& key) const {
  if (!max_witnesses_.any_below(key)) return std::nullopt;
  cache_->dominance_hits_.fetch_add(1, std::memory_order_relaxed);
  return max_hit(cache_->max_throughput_);
}

// ---------------------------------------------------------------------------
// Delta.

std::optional<CachedThroughput> ThroughputCache::Delta::find_max_dominated(
    const CapsKey& key) const {
  if (!max_witnesses_.any_below(key)) return std::nullopt;
  cache_->dominance_hits_.fetch_add(1, std::memory_order_relaxed);
  return max_hit(cache_->max_throughput_);
}

void ThroughputCache::Delta::clear() {
  max_witnesses_.clear();
  drop_boxes();
}

std::size_t ThroughputCache::Delta::probe_of(const std::vector<u64>& mask) {
  const auto [it, inserted] = probe_index_.try_emplace(mask, probes_.size());
  if (inserted) {
    Probe probe;
    probe.mask = mask;
    probe.on = mask_channels(mask, width_);
    probe.filter.reset(width_, probe.on);
    order_.push_back(probes_.size());
    probes_.push_back(std::move(probe));
  }
  return it->second;
}

void ThroughputCache::Delta::record_box(const CapsKey& key,
                                        std::span<const i64> demand,
                                        const CachedThroughput& value) {
  const std::vector<i64>& caps = key.caps();
  if (width_ == 0) width_ = caps.size();
  BUFFY_REQUIRE(caps.size() == width_ && demand.size() == width_,
                "throughput cache boxes must share one channel count");
  // A channel blocked exactly when some check asked for more than its
  // capacity; the corner is the capacity there and the demand elsewhere.
  LocalBox local;
  local.mask.assign((width_ + 63) / 64, 0);
  local.box.floors.resize(width_);
  for (std::size_t c = 0; c < width_; ++c) {
    local.box.floors[c] = std::min(demand[c], caps[c]);
    if (demand[c] <= caps[c]) continue;
    local.mask[c / 64] |= u64{1} << (c % 64);
    local.box.pinned.push_back(caps[c]);
  }
  local.box.hash = hash_words(local.box.pinned);
  Probe& probe = probes_[probe_of(local.mask)];
  if (find_box_in(probe.local,
                  PinnedKey{local.box.pinned, local.box.hash}) != nullptr) {
    return;
  }
  local.box.value = value;
  local.caps = caps;
  const Box& box = boxes_.emplace_back(std::move(local)).box;
  probe.local.insert(&box);
  probe.filter.widen(box, probe.on);
  if (!value.deadlocked && value.throughput == cache_->max_throughput_) {
    max_witnesses_.insert_minimal(key);
  }
}

void ThroughputCache::Delta::sync(const Snapshot& snap) {
  // A snapshot from before the first box merge has nothing to add; the
  // probes keep whatever index they synced last (boxes are exact, so a
  // newer index than the snapshot's answers just as correctly).
  if (snap.boxes_ == nullptr || snap.boxes_ == synced_) return;
  const std::vector<std::shared_ptr<const BoxGroup>>& groups =
      snap.boxes_->groups;
  for (std::size_t gid = 0; gid < groups.size(); ++gid) {
    const BoxGroup* group = groups[gid].get();
    if (gid == probe_of_group_.size()) {
      if (width_ == 0) width_ = group->filter.floor.size();
      BUFFY_REQUIRE(group->filter.floor.size() == width_,
                    "throughput cache boxes must share one channel count");
      probe_of_group_.push_back(probe_of(group->mask));
    }
    Probe& probe = probes_[probe_of_group_[gid]];
    if (probe.published == group) continue;  // unchanged since the last sync
    probe.published = group;
    if (probe.local.empty()) {
      probe.filter = group->filter;
    } else {
      probe.filter.widen(group->filter);
    }
  }
  synced_ = snap.boxes_;
}

std::optional<CachedThroughput> ThroughputCache::Delta::find_box(
    const Snapshot& snap, const CapsKey& key) {
  sync(snap);
  const std::vector<i64>& caps = key.caps();
  if (caps.size() != width_) return std::nullopt;
  for (std::size_t k = 0; k < order_.size(); ++k) {
    const Probe& probe = probes_[order_[k]];
    if (!probe.filter.admits(caps)) continue;
    pinned_scratch_.clear();
    for (const std::size_t c : probe.on) pinned_scratch_.push_back(caps[c]);
    const PinnedKey pinned{pinned_scratch_, hash_words(pinned_scratch_)};
    const Box* box =
        probe.published != nullptr ? probe.published->find(pinned) : nullptr;
    if (box == nullptr) box = find_box_in(probe.local, pinned);
    if (box == nullptr || !row_le(box->floors.data(), caps.data(), width_)) {
      continue;
    }
    std::rotate(order_.begin(), order_.begin() + static_cast<std::ptrdiff_t>(k),
                order_.begin() + static_cast<std::ptrdiff_t>(k + 1));
    cache_->box_hits_.fetch_add(1, std::memory_order_relaxed);
    return box->value;
  }
  return std::nullopt;
}

void ThroughputCache::Delta::drop_boxes() {
  if (boxes_.empty()) return;
  boxes_.clear();
  for (Probe& probe : probes_) {
    if (probe.local.empty()) continue;
    probe.local.clear();
    if (probe.published != nullptr) {
      probe.filter = probe.published->filter;
    } else {
      probe.filter.reset(width_, probe.on);
    }
  }
}

}  // namespace buffy::buffer
