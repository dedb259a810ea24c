#include "buffer/throughput_cache.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "base/diagnostics.hpp"
#include "base/hash.hpp"

namespace buffy::buffer {
namespace {

const Rational kMax(1, 4);  // the paper example's maximal throughput

// The cache's key type is CapsKey, which refers to its vector: braced
// literals name a vector first.
using Caps = std::vector<i64>;

CachedThroughput periodic(const Rational& tput) {
  CachedThroughput value;
  value.throughput = tput;
  value.states_stored = 3;
  value.cycle_start_time = 2;
  value.period = 7;
  return value;
}

CachedThroughput deadlock() {
  CachedThroughput value;
  value.deadlocked = true;
  value.throughput = Rational(0);
  return value;
}

TEST(ThroughputCache, ExactStoreAndFindRoundTrip) {
  ThroughputCache cache(kMax);
  cache.store(Caps{4, 2}, periodic(Rational(1, 7)));

  const auto hit = cache.find(Caps{4, 2}, /*require_deps=*/false);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->throughput, Rational(1, 7));
  EXPECT_FALSE(hit->deadlocked);
  EXPECT_EQ(hit->states_stored, 3u);
  EXPECT_EQ(hit->cycle_start_time, 2);
  EXPECT_EQ(hit->period, 7);

  EXPECT_FALSE(cache.find(Caps{4, 3}, false).has_value());
  EXPECT_EQ(cache.exact_hits(), 1u);
  EXPECT_EQ(cache.entries_stored(), 1u);
}

TEST(ThroughputCache, RequireDepsRejectsEntriesWithoutDependencies) {
  ThroughputCache cache(kMax);
  cache.store(Caps{4, 2}, periodic(Rational(1, 7)));  // has_deps = false

  // The incremental engine must not accept this entry: without the
  // dependencies it cannot expand the candidate's children.
  EXPECT_FALSE(cache.find(Caps{4, 2}, /*require_deps=*/true).has_value());
  EXPECT_TRUE(cache.find(Caps{4, 2}, /*require_deps=*/false).has_value());

  CachedThroughput with_deps = periodic(Rational(1, 7));
  with_deps.has_deps = true;
  with_deps.storage_deps = {sdf::ChannelId(1)};
  cache.store(Caps{6, 2}, with_deps);
  const auto hit = cache.find(Caps{6, 2}, /*require_deps=*/true);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->storage_deps.size(), 1u);
  EXPECT_EQ(hit->storage_deps[0], sdf::ChannelId(1));
}

TEST(ThroughputCache, MaxDominanceAnswersPointwiseGreaterOrEqual) {
  ThroughputCache cache(kMax);
  cache.add_max_witness(Caps{8, 2});

  const auto above = cache.find_max_dominated(Caps{9, 5});
  ASSERT_TRUE(above.has_value());
  EXPECT_EQ(above->throughput, kMax);
  EXPECT_FALSE(above->deadlocked);
  // Dominance answers never carry dependencies.
  EXPECT_FALSE(above->has_deps);

  EXPECT_TRUE(cache.find_max_dominated(Caps{8, 2}).has_value());   // equal
  // Below the witness in c0, then in c1.
  EXPECT_FALSE(cache.find_max_dominated(Caps{7, 5}).has_value());
  EXPECT_FALSE(cache.find_max_dominated(Caps{9, 1}).has_value());
  EXPECT_EQ(cache.dominance_hits(), 2u);
}

TEST(ThroughputCache, DeadlockDominanceAnswersPointwiseLessOrEqual) {
  ThroughputCache cache(kMax);
  cache.store(Caps{3, 2}, deadlock());

  const auto below = cache.find_deadlock_dominated(Caps{2, 1});
  ASSERT_TRUE(below.has_value());
  EXPECT_TRUE(below->deadlocked);
  EXPECT_EQ(below->throughput, Rational(0));

  EXPECT_TRUE(cache.find_deadlock_dominated(Caps{3, 2}).has_value());   // equal
  EXPECT_FALSE(cache.find_deadlock_dominated(Caps{4, 1}).has_value());  // above
}

TEST(ThroughputCache, StoringTheMaximumFeedsTheMaxWitnesses) {
  ThroughputCache cache(kMax);
  cache.store(Caps{6, 4}, periodic(kMax));  // simulated outcome == maximum
  EXPECT_TRUE(cache.find_max_dominated(Caps{7, 4}).has_value());

  // A sub-maximal outcome must NOT become a witness.
  cache.store(Caps{5, 2}, periodic(Rational(1, 6)));
  EXPECT_FALSE(cache.find_max_dominated(Caps{5, 3}).has_value());
}

TEST(ThroughputCache, MaxWitnessesFormAMinimalAntichain) {
  ThroughputCache cache(kMax);
  cache.add_max_witness(Caps{6, 4});
  // A smaller witness supersedes the bigger one...
  cache.add_max_witness(Caps{4, 2});
  // >= {4,2} only.
  EXPECT_TRUE(cache.find_max_dominated(Caps{5, 3}).has_value());
  // ...and a witness above an existing one changes nothing.
  cache.add_max_witness(Caps{9, 9});
  EXPECT_TRUE(cache.find_max_dominated(Caps{4, 2}).has_value());
  EXPECT_FALSE(cache.find_max_dominated(Caps{3, 9}).has_value());
}

TEST(ThroughputCache, DeadlockWitnessesFormAMaximalAntichain) {
  ThroughputCache cache(kMax);
  cache.store(Caps{1, 1}, deadlock());
  cache.store(Caps{2, 2}, deadlock());  // supersedes {1,1}
  EXPECT_TRUE(cache.find_deadlock_dominated(Caps{2, 1}).has_value());
  EXPECT_TRUE(cache.find_deadlock_dominated(Caps{1, 2}).has_value());
  EXPECT_FALSE(cache.find_deadlock_dominated(Caps{3, 2}).has_value());
}

TEST(ThroughputCache, FullDeadlockAntichainMakesRoomOnlyByDominance) {
  // 64 incomparable witnesses fill the set: a larger witness is kept only
  // because it dominates (and so removes) some of them. The removal scan
  // tries each row's last failing channel first; every branch of it runs
  // here: rows separated by that channel (i >= 41 against {40, 40}), rows
  // it lets through that the full compare keeps (i <= 22) or removes.
  ThroughputCache cache(kMax);
  for (i64 i = 0; i < 64; ++i) cache.store(Caps{i, 63 - i}, deadlock());
  cache.store(Caps{40, 40}, deadlock());  // dominates {23, 40} .. {40, 23}
  EXPECT_TRUE(cache.find_deadlock_dominated(Caps{40, 40}).has_value());
  cache.store(Caps{10, 60}, deadlock());  // dominates {3, 60} .. {10, 53}
  EXPECT_TRUE(cache.find_deadlock_dominated(Caps{10, 60}).has_value());
  EXPECT_TRUE(cache.find_deadlock_dominated(Caps{22, 41}).has_value());
  EXPECT_TRUE(cache.find_deadlock_dominated(Caps{41, 22}).has_value());
  EXPECT_FALSE(cache.find_deadlock_dominated(Caps{23, 41}).has_value());
  EXPECT_FALSE(cache.find_deadlock_dominated(Caps{11, 60}).has_value());
}

TEST(ThroughputCache, IncomparableWitnessesCoexist) {
  ThroughputCache cache(kMax);
  cache.add_max_witness(Caps{6, 2});
  cache.add_max_witness(Caps{2, 6});
  EXPECT_TRUE(cache.find_max_dominated(Caps{6, 3}).has_value());
  EXPECT_TRUE(cache.find_max_dominated(Caps{3, 6}).has_value());
  EXPECT_FALSE(cache.find_max_dominated(Caps{5, 5}).has_value());
}


// ---------------------------------------------------------------------------
// Bounded (LRU) mode. Eviction is stripe-granular: a cache of capacity C
// gives each of the kStripes stripes max(1, C / kStripes) entries and
// evicts that stripe's least-recently-used entry on overflow. The tests
// construct keys that land in one stripe (same hash_words residue) so the
// eviction order is fully pinned.

// First `n` keys of the form {base, v} that land in the stripe of `ref`.
std::vector<std::vector<i64>> same_stripe_keys(const std::vector<i64>& ref,
                                               std::size_t n) {
  const std::size_t stripe =
      static_cast<std::size_t>(hash_words(ref)) % ThroughputCache::kStripes;
  std::vector<std::vector<i64>> keys;
  for (i64 v = 1; keys.size() < n && v < 100'000; ++v) {
    const std::vector<i64> key = {ref[0], v};
    if (static_cast<std::size_t>(hash_words(key)) %
            ThroughputCache::kStripes ==
        stripe) {
      keys.push_back(key);
    }
  }
  EXPECT_EQ(keys.size(), n);
  return keys;
}

TEST(ThroughputCacheLru, UnboundedCacheNeverEvicts) {
  ThroughputCache cache(kMax);  // capacity 0 = unbounded
  for (i64 v = 1; v <= 200; ++v) {
    cache.store(Caps{v, v}, periodic(Rational(1, 7)));
  }
  EXPECT_EQ(cache.capacity(), 0u);
  EXPECT_EQ(cache.entries_evicted(), 0u);
  EXPECT_EQ(cache.entries_resident(), 200u);
  EXPECT_TRUE(cache.find(Caps{1, 1}, false).has_value());
}

TEST(ThroughputCacheLru, OverflowEvictsTheOldestEntryOfTheStripe) {
  // Capacity 16 over 16 stripes = 1 entry per stripe: a second store in
  // the same stripe must evict the first.
  ThroughputCache cache(kMax, /*capacity=*/ThroughputCache::kStripes);
  const auto keys = same_stripe_keys({3, 1}, 2);
  cache.store(keys[0], periodic(Rational(1, 7)));
  cache.store(keys[1], periodic(Rational(1, 6)));

  EXPECT_EQ(cache.entries_evicted(), 1u);
  EXPECT_EQ(cache.entries_resident(), 1u);
  EXPECT_FALSE(cache.find(keys[0], false).has_value());
  ASSERT_TRUE(cache.find(keys[1], false).has_value());
  EXPECT_EQ(cache.find(keys[1], false)->throughput, Rational(1, 6));
}

TEST(ThroughputCacheLru, FindRefreshesRecencySoEvictionIsLruNotFifo) {
  // 2 entries per stripe. Store k0, k1, touch k0, store k2: FIFO would
  // evict k0 (the oldest insertion); LRU must evict k1.
  ThroughputCache cache(kMax, /*capacity=*/2 * ThroughputCache::kStripes);
  const auto keys = same_stripe_keys({3, 1}, 3);
  cache.store(keys[0], periodic(Rational(1, 7)));
  cache.store(keys[1], periodic(Rational(1, 6)));
  ASSERT_TRUE(cache.find(keys[0], false).has_value());  // refresh k0
  cache.store(keys[2], periodic(Rational(1, 5)));

  EXPECT_EQ(cache.entries_evicted(), 1u);
  EXPECT_TRUE(cache.find(keys[0], false).has_value());
  EXPECT_FALSE(cache.find(keys[1], false).has_value());
  EXPECT_TRUE(cache.find(keys[2], false).has_value());
}

TEST(ThroughputCacheLru, PinnedEvictionOrderOverASequenceOfStores) {
  // Regression pin for the full eviction order: with 1 entry per stripe
  // and five same-stripe stores, exactly the last key survives and the
  // eviction count tracks every displaced predecessor.
  ThroughputCache cache(kMax, /*capacity=*/ThroughputCache::kStripes);
  const auto keys = same_stripe_keys({5, 1}, 5);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    cache.store(keys[i], periodic(Rational(1, static_cast<i64>(i) + 3)));
    EXPECT_EQ(cache.entries_evicted(), i == 0 ? 0u : i);
    EXPECT_EQ(cache.entries_resident(), 1u);
    for (std::size_t j = 0; j < keys.size(); ++j) {
      EXPECT_EQ(cache.find(keys[j], false).has_value(), j == i)
          << "after store " << i << ", key " << j;
    }
  }
  EXPECT_EQ(cache.entries_stored(), 5u);
}

TEST(ThroughputCacheLru, DuplicateStoreDoesNotEvict) {
  ThroughputCache cache(kMax, /*capacity=*/ThroughputCache::kStripes);
  const auto keys = same_stripe_keys({7, 1}, 1);
  cache.store(keys[0], periodic(Rational(1, 7)));
  cache.store(keys[0], periodic(Rational(1, 7)));  // duplicate: no insert
  EXPECT_EQ(cache.entries_evicted(), 0u);
  EXPECT_EQ(cache.entries_resident(), 1u);

  // Upgrading an entry with a deps-carrying value replaces in place, too.
  CachedThroughput with_deps = periodic(Rational(1, 7));
  with_deps.has_deps = true;
  with_deps.storage_deps = {sdf::ChannelId(0)};
  cache.store(keys[0], with_deps);
  EXPECT_EQ(cache.entries_evicted(), 0u);
  EXPECT_EQ(cache.entries_resident(), 1u);
  EXPECT_TRUE(cache.find(keys[0], /*require_deps=*/true).has_value());
}

TEST(ThroughputCacheLru, DominanceWitnessesSurviveEviction) {
  // Witness antichains are not entries: cycling the exact entries out
  // must not forget that {6, 4} attains the maximum. Eviction only ever
  // costs re-simulation, never dominance answers.
  ThroughputCache cache(kMax, /*capacity=*/ThroughputCache::kStripes);
  cache.add_max_witness(Caps{6, 4});
  cache.store(Caps{1, 1}, deadlock());
  for (i64 v = 1; v <= 64; ++v) {
    cache.store(Caps{v, v + 1}, periodic(Rational(1, 7)));
  }
  EXPECT_GT(cache.entries_evicted(), 0u);
  EXPECT_TRUE(cache.find_max_dominated(Caps{7, 5}).has_value());
  EXPECT_TRUE(cache.find_deadlock_dominated(Caps{1, 1}).has_value());
}

// ---------------------------------------------------------------------------
// Snapshot / Delta / merge — the per-wave protocol of explorations that
// share a cache: each reads a frozen point-in-time view, records fresh
// outcomes into its own delta, and merges it back once per wave
// (DESIGN.md §14).

TEST(ThroughputCacheDelta, RecordedEntriesAnswerTheRecordingWorker) {
  ThroughputCache cache(kMax);
  ThroughputCache::Delta delta = cache.make_delta();
  EXPECT_TRUE(delta.empty());

  delta.record(Caps{4, 2}, periodic(Rational(1, 7)));
  EXPECT_EQ(delta.size(), 1u);
  const auto hit = delta.find(Caps{4, 2}, /*require_deps=*/false);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->throughput, Rational(1, 7));
  EXPECT_FALSE(delta.find(Caps{4, 3}, false).has_value());
  // require_deps honors the recorded entry's has_deps, like find().
  EXPECT_FALSE(delta.find(Caps{4, 2}, /*require_deps=*/true).has_value());
}

TEST(ThroughputCacheDelta, LocalWitnessesGiveImmediateDominance) {
  // An exploration must see its OWN maximal/deadlock outcomes as dominance
  // witnesses within the wave — that is what keeps a sequential wave's
  // hit/miss sequence identical to the per-candidate store() path.
  ThroughputCache cache(kMax);
  ThroughputCache::Delta delta = cache.make_delta();
  delta.record(Caps{6, 4}, periodic(kMax));
  delta.record(Caps{1, 1}, deadlock());

  const auto above = delta.find_max_dominated(Caps{7, 4});
  ASSERT_TRUE(above.has_value());
  EXPECT_EQ(above->throughput, kMax);
  EXPECT_FALSE(delta.find_max_dominated(Caps{5, 4}).has_value());
  EXPECT_TRUE(delta.find_deadlock_dominated(Caps{1, 1}).has_value());
  EXPECT_FALSE(delta.find_deadlock_dominated(Caps{2, 1}).has_value());
  // Sub-maximal outcomes never become witnesses.
  delta.record(Caps{5, 2}, periodic(Rational(1, 6)));
  EXPECT_FALSE(delta.find_max_dominated(Caps{5, 3}).has_value());
}

TEST(ThroughputCacheDelta, MergePublishesEntriesWitnessesAndCounters) {
  ThroughputCache cache(kMax);
  ThroughputCache::Delta d0 = cache.make_delta();
  ThroughputCache::Delta d1 = cache.make_delta();
  d0.record(Caps{4, 2}, periodic(Rational(1, 7)));
  d1.record(Caps{6, 4}, periodic(kMax));
  d1.record(Caps{1, 1}, deadlock());

  std::vector<ThroughputCache::Delta*> deltas{&d0, &d1};
  cache.merge(deltas);
  EXPECT_EQ(cache.merges(), 1u);
  EXPECT_EQ(cache.entries_stored(), 3u);
  // The entries moved into the cache.
  EXPECT_TRUE(d0.empty());
  EXPECT_TRUE(d1.empty());
  EXPECT_TRUE(cache.find(Caps{4, 2}, false).has_value());
  EXPECT_TRUE(cache.find(Caps{6, 4}, false).has_value());
  // Witness antichains were fed through the merge.
  EXPECT_TRUE(cache.find_max_dominated(Caps{7, 4}).has_value());
  EXPECT_TRUE(cache.find_deadlock_dominated(Caps{1, 1}).has_value());
}

TEST(ThroughputCacheDelta, SnapshotSeesMergedEntriesNotLiveOnes) {
  ThroughputCache cache(kMax);
  ThroughputCache::Delta delta = cache.make_delta();
  delta.record(Caps{4, 2}, periodic(Rational(1, 7)));
  std::vector<ThroughputCache::Delta*> deltas{&delta};
  cache.merge(deltas);
  delta.clear();
  EXPECT_TRUE(delta.empty());

  const ThroughputCache::Snapshot before = cache.snapshot();
  EXPECT_TRUE(before.find(Caps{4, 2}, false).has_value());
  EXPECT_FALSE(before.find(Caps{9, 9}, false).has_value());

  // An entry merged after the snapshot was taken stays invisible to it (a
  // safe stale miss), and visible to a fresh snapshot.
  delta.record(Caps{9, 9}, periodic(Rational(1, 5)));
  cache.merge(deltas);
  EXPECT_FALSE(before.find(Caps{9, 9}, false).has_value());
  EXPECT_TRUE(cache.snapshot().find(Caps{9, 9}, false).has_value());
}

TEST(ThroughputCacheDelta, SnapshotWitnessScansAreFrozenAtCreation) {
  ThroughputCache cache(kMax);
  const ThroughputCache::Snapshot before = cache.snapshot();
  cache.add_max_witness(Caps{4, 2});
  EXPECT_FALSE(before.find_max_dominated(Caps{5, 3}).has_value());
  EXPECT_TRUE(cache.snapshot().find_max_dominated(Caps{5, 3}).has_value());
}

TEST(ThroughputCacheDelta, BoundedCacheSnapshotsDelegateToTheLiveMap) {
  // Bounded caches have no frozen index (lock-free readers cannot refresh
  // LRU recency): exact lookups go to the striped map, so they see stores
  // immediately and keep recency exact.
  ThroughputCache cache(kMax, /*capacity=*/ThroughputCache::kStripes);
  const ThroughputCache::Snapshot snap = cache.snapshot();
  cache.store(Caps{4, 2}, periodic(Rational(1, 7)));
  EXPECT_TRUE(snap.find(Caps{4, 2}, false).has_value());
}

TEST(ThroughputCacheDelta, ManyWavesFoldTheOverlayWithoutLosingEntries) {
  // Drive enough merges to cross the fold threshold (overlay >= 64) and
  // verify a fresh snapshot still answers every key exactly.
  ThroughputCache cache(kMax);
  ThroughputCache::Delta delta = cache.make_delta();
  std::vector<ThroughputCache::Delta*> deltas{&delta};
  for (i64 wave = 0; wave < 10; ++wave) {
    for (i64 v = 0; v < 20; ++v) {
      delta.record(Caps{wave, v}, periodic(Rational(1, 7)));
    }
    cache.merge(deltas);
    delta.clear();
  }
  EXPECT_EQ(cache.merges(), 10u);
  const ThroughputCache::Snapshot snap = cache.snapshot();
  for (i64 wave = 0; wave < 10; ++wave) {
    for (i64 v = 0; v < 20; ++v) {
      EXPECT_TRUE(snap.find(Caps{wave, v}, false).has_value())
          << wave << "," << v;
    }
  }
}

TEST(ThroughputCacheDelta, MergeRejectsDisagreeingDeltas) {
  // Tamper test for the determinism check: two deltas reporting
  // different outcomes for the same capacity vector means the
  // deterministic-simulation invariant is broken, and merge() must throw
  // rather than silently pick a winner.
  ThroughputCache cache(kMax);
  ThroughputCache::Delta d0 = cache.make_delta();
  ThroughputCache::Delta d1 = cache.make_delta();
  d0.record(Caps{4, 2}, periodic(Rational(1, 7)));
  d1.record(Caps{4, 2}, periodic(Rational(1, 6)));  // divergent throughput
  std::vector<ThroughputCache::Delta*> deltas{&d0, &d1};
  EXPECT_THROW(cache.merge(deltas), Error);
}

TEST(ThroughputCacheDelta, MergeRejectsDisagreementWithResidentEntries) {
  ThroughputCache cache(kMax);
  ThroughputCache::Delta delta = cache.make_delta();
  delta.record(Caps{4, 2}, periodic(Rational(1, 7)));
  std::vector<ThroughputCache::Delta*> deltas{&delta};
  cache.merge(deltas);
  delta.clear();

  // Disagrees with the resident entry.
  delta.record(Caps{4, 2}, periodic(Rational(1, 6)));
  EXPECT_THROW(cache.merge(deltas), Error);

  // Agreement (same scalars, deps added) is NOT a conflict: fused and
  // plain evaluations of the same vector legitimately differ in deps.
  delta.clear();
  CachedThroughput with_deps = periodic(Rational(1, 7));
  with_deps.has_deps = true;
  with_deps.storage_deps = {sdf::ChannelId(0)};
  delta.record(Caps{4, 2}, with_deps);
  cache.merge(deltas);
  EXPECT_TRUE(cache.find(Caps{4, 2}, /*require_deps=*/true).has_value());
}

TEST(ThroughputCacheDelta, DuplicateRecordKeepsFirstValueAndUpgradesDeps) {
  ThroughputCache cache(kMax);
  ThroughputCache::Delta delta = cache.make_delta();
  delta.record(Caps{4, 2}, periodic(Rational(1, 7)));
  CachedThroughput with_deps = periodic(Rational(1, 7));
  with_deps.has_deps = true;
  with_deps.storage_deps = {sdf::ChannelId(1)};
  delta.record(Caps{4, 2}, with_deps);

  EXPECT_EQ(delta.size(), 1u);
  const auto hit = delta.find(Caps{4, 2}, /*require_deps=*/true);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->storage_deps.size(), 1u);
  EXPECT_EQ(hit->storage_deps[0], sdf::ChannelId(1));
}

// ---------------------------------------------------------------------------
// Sorted witness antichains. The antichains are ordered ascending by
// (total, caps) so dominance scans early-exit; these pin the ordering
// semantics the scans rely on, including the drop-at-cap behaviour.

TEST(ThroughputCacheWitnesses, ScanOrderIndependentOfInsertionOrder) {
  // Insert incomparable witnesses in descending-total order; the sorted
  // antichain must answer exactly as if they arrived ascending.
  ThroughputCache a(kMax);
  a.add_max_witness(Caps{9, 1});
  a.add_max_witness(Caps{5, 4});
  a.add_max_witness(Caps{1, 8});
  ThroughputCache b(kMax);
  b.add_max_witness(Caps{1, 8});
  b.add_max_witness(Caps{5, 4});
  b.add_max_witness(Caps{9, 1});
  for (i64 x = 0; x <= 10; ++x) {
    for (i64 y = 0; y <= 10; ++y) {
      EXPECT_EQ(a.find_max_dominated(Caps{x, y}).has_value(),
                b.find_max_dominated(Caps{x, y}).has_value())
          << x << "," << y;
    }
  }
}

TEST(ThroughputCacheWitnesses, SupersededWitnessesAreEvictedNotShadowed) {
  // {3, 3} supersedes both bigger witnesses; afterwards a vector that was
  // only dominated via a superseded witness must still answer (through
  // the survivor) and nothing below the survivor may answer.
  ThroughputCache cache(kMax);
  cache.add_max_witness(Caps{6, 3});
  cache.add_max_witness(Caps{3, 7});
  cache.add_max_witness(Caps{3, 3});
  EXPECT_TRUE(cache.find_max_dominated(Caps{6, 3}).has_value());
  EXPECT_TRUE(cache.find_max_dominated(Caps{3, 7}).has_value());
  EXPECT_TRUE(cache.find_max_dominated(Caps{3, 3}).has_value());
  EXPECT_FALSE(cache.find_max_dominated(Caps{2, 9}).has_value());
  EXPECT_FALSE(cache.find_max_dominated(Caps{9, 2}).has_value());
}

TEST(ThroughputCacheWitnesses, CapDropsNewWitnessesWithoutBreakingAnswers) {
  // Beyond kMaxWitnesses (64) incomparable witnesses, new ones are
  // dropped: pruning fires less often, never incorrectly. The dropped
  // witness must simply not answer.
  ThroughputCache cache(kMax);
  for (i64 i = 0; i < 70; ++i) {
    // Pairwise incomparable: x ascends while y descends.
    cache.add_max_witness(Caps{i, 200 - i});
  }
  // The first 64 all answer...
  EXPECT_TRUE(cache.find_max_dominated(Caps{0, 200}).has_value());
  EXPECT_TRUE(cache.find_max_dominated(Caps{63, 137}).has_value());
  // ...the dropped tail answers only through an earlier witness, i.e. not
  // at {69, 131} (every retained witness has y >= 137).
  EXPECT_FALSE(cache.find_max_dominated(Caps{69, 131}).has_value());
}

}  // namespace
}  // namespace buffy::buffer
