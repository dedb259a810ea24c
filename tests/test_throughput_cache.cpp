#include "buffer/throughput_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "base/diagnostics.hpp"

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

// Records one box into `delta`: the run at `caps` blocked on `blocked`
// (a check there asked for one token more than the capacity) and asked
// for `demand` elsewhere.
void record_box(ThroughputCache::Delta& delta, const Caps& caps,
                std::initializer_list<std::size_t> blocked, Caps demand,
                const CachedThroughput& value) {
  for (const std::size_t c : blocked) demand[c] = caps[c] + 1;
  delta.record_box(caps, demand, value);
}

// A run that blocked on every channel: its box holds exactly `caps`.
void record_point(ThroughputCache::Delta& delta, const Caps& caps,
                  const CachedThroughput& value) {
  Caps demand = caps;
  for (i64& d : demand) ++d;
  delta.record_box(caps, demand, value);
}

// Writes go through a delta and merge(), the cache's only write path;
// reads go through a snapshot and a fresh reader's delta.
void merge_one(ThroughputCache& cache, ThroughputCache::Delta& delta) {
  std::vector<ThroughputCache::Delta*> deltas{&delta};
  cache.merge(deltas);
  delta.clear();
}

void store_point(ThroughputCache& cache, const Caps& caps,
                 const CachedThroughput& value) {
  ThroughputCache::Delta delta = cache.make_delta();
  record_point(delta, caps, value);
  merge_one(cache, delta);
}

std::optional<CachedThroughput> find_point(const ThroughputCache& cache,
                                           const Caps& caps) {
  return cache.make_delta().find_box(cache.snapshot(), caps);
}

bool max_dominated(const ThroughputCache& cache, const Caps& caps) {
  return cache.snapshot().find_max_dominated(caps).has_value();
}

TEST(ThroughputCache, MaxDominanceAnswersPointwiseGreaterOrEqual) {
  ThroughputCache cache(kMax);
  cache.add_max_witness(Caps{8, 2});

  const auto above = cache.snapshot().find_max_dominated(Caps{9, 5});
  ASSERT_TRUE(above.has_value());
  EXPECT_EQ(above->throughput, kMax);
  EXPECT_FALSE(above->deadlocked);

  EXPECT_TRUE(max_dominated(cache, Caps{8, 2}));  // equal
  // Below the witness in c0, then in c1.
  EXPECT_FALSE(max_dominated(cache, Caps{7, 5}));
  EXPECT_FALSE(max_dominated(cache, Caps{9, 1}));
  EXPECT_EQ(cache.dominance_hits(), 2u);
}

TEST(ThroughputCache, StoringTheMaximumFeedsTheMaxWitnesses) {
  ThroughputCache cache(kMax);
  // Simulated outcome == maximum.
  cache.feed_witnesses(Caps{6, 4}, periodic(kMax));
  EXPECT_TRUE(max_dominated(cache, Caps{7, 4}));

  // A sub-maximal outcome must NOT become a witness.
  cache.feed_witnesses(Caps{5, 2}, periodic(Rational(1, 6)));
  EXPECT_FALSE(max_dominated(cache, Caps{5, 3}));
}

TEST(ThroughputCache, MaxWitnessesFormAMinimalAntichain) {
  ThroughputCache cache(kMax);
  cache.add_max_witness(Caps{6, 4});
  // A smaller witness supersedes the bigger one...
  cache.add_max_witness(Caps{4, 2});
  // >= {4,2} only.
  EXPECT_TRUE(max_dominated(cache, Caps{5, 3}));
  // ...and a witness above an existing one changes nothing.
  cache.add_max_witness(Caps{9, 9});
  EXPECT_TRUE(max_dominated(cache, Caps{4, 2}));
  EXPECT_FALSE(max_dominated(cache, Caps{3, 9}));
}

TEST(ThroughputCache, FullMaxAntichainMakesRoomOnlyByDominance) {
  // 64 incomparable witnesses fill the set: a smaller witness is kept only
  // because it lies below (and so removes) some of them. The removal scan
  // tries each row's last failing channel first; every branch of it runs
  // here: rows separated by that channel (i <= 22 against {23, 23}), rows
  // it lets through that the full compare keeps (i >= 41) or removes.
  ThroughputCache cache(kMax);
  for (i64 i = 0; i < 64; ++i) cache.add_max_witness(Caps{i, 63 - i});
  // Below {23, 40} .. {40, 23}.
  cache.add_max_witness(Caps{23, 23});
  EXPECT_TRUE(max_dominated(cache, Caps{23, 23}));
  // Below {3, 60} .. {10, 53}.
  cache.add_max_witness(Caps{3, 53});
  EXPECT_TRUE(max_dominated(cache, Caps{3, 53}));
  EXPECT_TRUE(max_dominated(cache, Caps{22, 41}));
  EXPECT_TRUE(max_dominated(cache, Caps{41, 22}));
  EXPECT_FALSE(max_dominated(cache, Caps{22, 40}));
  EXPECT_FALSE(max_dominated(cache, Caps{2, 60}));
}

TEST(ThroughputCache, IncomparableWitnessesCoexist) {
  ThroughputCache cache(kMax);
  cache.add_max_witness(Caps{6, 2});
  cache.add_max_witness(Caps{2, 6});
  EXPECT_TRUE(max_dominated(cache, Caps{6, 3}));
  EXPECT_TRUE(max_dominated(cache, Caps{3, 6}));
  EXPECT_FALSE(max_dominated(cache, Caps{5, 5}));
}

// ---------------------------------------------------------------------------
// Bounded mode. Once `capacity` boxes are resident, merge() admits no new
// box and evicts nothing: the resident boxes keep answering, the refused
// ones miss (their candidates are re-simulated) and are counted as
// dropped. Point boxes (every channel blocked) make each box one key.

TEST(ThroughputCacheCap, UnboundedCacheAdmitsEverything) {
  ThroughputCache cache(kMax);  // capacity 0 = unbounded
  for (i64 v = 1; v <= 200; ++v) {
    store_point(cache, Caps{v, v}, periodic(Rational(1, 7)));
  }
  EXPECT_EQ(cache.capacity(), 0u);
  EXPECT_EQ(cache.entries_dropped(), 0u);
  EXPECT_EQ(cache.boxes_stored(), 200u);
  EXPECT_TRUE(find_point(cache, Caps{1, 1}).has_value());
  EXPECT_TRUE(find_point(cache, Caps{200, 200}).has_value());
}

TEST(ThroughputCacheCap, FullCacheAdmitsNothingNewAndAnswersItsResidents) {
  // One merge of five boxes into a cache of capacity 3 keeps the first
  // three in merge order.
  ThroughputCache cache(kMax, /*capacity=*/3);
  ThroughputCache::Delta delta = cache.make_delta();
  for (i64 k = 0; k < 5; ++k) {
    record_point(delta, Caps{k, 10 + k}, periodic(Rational(1, 10 + k)));
  }
  merge_one(cache, delta);
  EXPECT_EQ(cache.boxes_stored(), 3u);
  EXPECT_EQ(cache.entries_dropped(), 2u);
  for (i64 k = 0; k < 3; ++k) {
    const auto hit = find_point(cache, Caps{k, 10 + k});
    ASSERT_TRUE(hit.has_value()) << k;
    EXPECT_EQ(hit->throughput, Rational(1, 10 + k));
  }
  for (i64 k = 3; k < 5; ++k) {
    EXPECT_FALSE(find_point(cache, Caps{k, 10 + k}).has_value()) << k;
  }
}

TEST(ThroughputCacheCap, PinnedAdmissionOrderOverASequenceOfMerges) {
  // Regression pin for the admission order: with capacity 2 and five
  // successive merges, exactly the first two boxes stay resident and every
  // later one is dropped.
  ThroughputCache cache(kMax, /*capacity=*/2);
  const std::vector<Caps> keys = {{5, 1}, {5, 2}, {5, 3}, {5, 4}, {5, 5}};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    store_point(cache, keys[i],
                periodic(Rational(1, static_cast<i64>(i) + 3)));
    EXPECT_EQ(cache.boxes_stored(), std::min<u64>(i + 1, 2));
    EXPECT_EQ(cache.entries_dropped(), i < 2 ? 0u : i - 1);
    for (std::size_t j = 0; j < keys.size(); ++j) {
      EXPECT_EQ(find_point(cache, keys[j]).has_value(),
                j <= std::min<u64>(i, 1))
          << "after merge " << i << ", key " << j;
    }
  }
}

TEST(ThroughputCacheCap, ResidentKeyMergedIntoAFullCacheIsCheckedNotDropped) {
  // A box already resident is not new: a full cache neither counts it as
  // dropped nor skips the determinism check on it.
  ThroughputCache cache(kMax, /*capacity=*/1);
  store_point(cache, Caps{7, 1}, periodic(Rational(1, 7)));
  store_point(cache, Caps{7, 1}, periodic(Rational(1, 7)));  // agreeing
  EXPECT_EQ(cache.entries_dropped(), 0u);
  EXPECT_EQ(cache.boxes_stored(), 1u);
  EXPECT_THROW(store_point(cache, Caps{7, 1}, periodic(Rational(1, 6))),
               Error);
  store_point(cache, Caps{7, 2}, periodic(Rational(1, 7)));  // new: dropped
  EXPECT_EQ(cache.entries_dropped(), 1u);
  EXPECT_EQ(cache.boxes_stored(), 1u);
}

TEST(ThroughputCacheCap, WitnessesAnswerPastTheCap) {
  // The witness antichain is not a box index: outcomes refused by a full
  // cache still feed it, so Sec. 8 dominance keeps answering for
  // distributions whose boxes were never admitted.
  ThroughputCache cache(kMax, /*capacity=*/1);
  store_point(cache, Caps{9, 9}, periodic(Rational(1, 7)));
  store_point(cache, Caps{6, 4}, periodic(kMax));
  store_point(cache, Caps{1, 1}, deadlock());
  EXPECT_EQ(cache.entries_dropped(), 2u);
  EXPECT_FALSE(find_point(cache, Caps{6, 4}).has_value());
  EXPECT_TRUE(max_dominated(cache, Caps{7, 5}));
}

// ---------------------------------------------------------------------------
// Snapshot / Delta / merge — the per-wave protocol of explorations that
// share a cache: each reads through a snapshot, records fresh boxes into
// its own delta, and merges it back once per wave (DESIGN.md §14).

TEST(ThroughputCacheDelta, RecordedEntriesAnswerTheRecordingWorker) {
  ThroughputCache cache(kMax);
  ThroughputCache::Delta delta = cache.make_delta();
  EXPECT_TRUE(delta.empty());

  record_point(delta, Caps{4, 2}, periodic(Rational(1, 7)));
  EXPECT_FALSE(delta.empty());
  const ThroughputCache::Snapshot snap = cache.snapshot();
  const auto hit = delta.find_box(snap, Caps{4, 2});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->throughput, Rational(1, 7));
  EXPECT_FALSE(delta.find_box(snap, Caps{4, 3}).has_value());
  // Nothing reached the cache yet.
  EXPECT_FALSE(find_point(cache, Caps{4, 2}).has_value());
}

TEST(ThroughputCacheDelta, LocalWitnessesGiveImmediateDominance) {
  // An exploration must see its OWN maximal outcomes as dominance
  // witnesses within the wave — that is what keeps a sequential wave's
  // hit/miss sequence identical to merging each candidate on its own.
  ThroughputCache cache(kMax);
  ThroughputCache::Delta delta = cache.make_delta();
  record_point(delta, Caps{6, 4}, periodic(kMax));
  record_point(delta, Caps{1, 1}, deadlock());

  const auto above = delta.find_max_dominated(Caps{7, 4});
  ASSERT_TRUE(above.has_value());
  EXPECT_EQ(above->throughput, kMax);
  EXPECT_FALSE(delta.find_max_dominated(Caps{5, 4}).has_value());
  // Sub-maximal outcomes never become witnesses.
  record_point(delta, Caps{5, 2}, periodic(Rational(1, 6)));
  EXPECT_FALSE(delta.find_max_dominated(Caps{5, 3}).has_value());
}

TEST(ThroughputCacheDelta, MergePublishesEntriesWitnessesAndCounters) {
  ThroughputCache cache(kMax);
  ThroughputCache::Delta d0 = cache.make_delta();
  ThroughputCache::Delta d1 = cache.make_delta();
  record_point(d0, Caps{4, 2}, periodic(Rational(1, 7)));
  record_point(d1, Caps{6, 4}, periodic(kMax));
  record_point(d1, Caps{1, 1}, deadlock());

  std::vector<ThroughputCache::Delta*> deltas{&d0, &d1};
  cache.merge(deltas);
  EXPECT_EQ(cache.merges(), 1u);
  EXPECT_EQ(cache.boxes_stored(), 3u);
  EXPECT_EQ(cache.entries_dropped(), 0u);
  // The boxes moved into the cache.
  EXPECT_TRUE(d0.empty());
  EXPECT_TRUE(d1.empty());
  EXPECT_TRUE(find_point(cache, Caps{4, 2}).has_value());
  EXPECT_TRUE(find_point(cache, Caps{6, 4}).has_value());
  // The witness antichain was fed through the merge.
  EXPECT_TRUE(max_dominated(cache, Caps{7, 4}));
}

TEST(ThroughputCacheDelta, SnapshotSeesMergedEntriesNotLiveOnes) {
  // A box still waiting in a worker's delta is invisible to every other
  // reader. Once merged, every later snapshot sees it; a snapshot taken
  // before the merge keeps its point-in-time view (a safe, stale miss).
  ThroughputCache cache(kMax);
  const ThroughputCache::Snapshot before = cache.snapshot();
  ThroughputCache::Delta delta = cache.make_delta();
  record_point(delta, Caps{4, 2}, periodic(Rational(1, 7)));
  EXPECT_FALSE(cache.make_delta().find_box(before, Caps{4, 2}).has_value());

  merge_one(cache, delta);
  EXPECT_TRUE(delta.empty());
  EXPECT_FALSE(cache.make_delta().find_box(before, Caps{4, 2}).has_value());
  const auto hit = find_point(cache, Caps{4, 2});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->throughput, Rational(1, 7));
  EXPECT_FALSE(find_point(cache, Caps{9, 9}).has_value());
}

TEST(ThroughputCacheDelta, SnapshotWitnessScansAreFrozenAtCreation) {
  ThroughputCache cache(kMax);
  const ThroughputCache::Snapshot before = cache.snapshot();
  cache.add_max_witness(Caps{4, 2});
  EXPECT_FALSE(before.find_max_dominated(Caps{5, 3}).has_value());
  EXPECT_TRUE(cache.snapshot().find_max_dominated(Caps{5, 3}).has_value());
}

TEST(ThroughputCacheDelta, ManyWavesFoldTheOverlayWithoutLosingEntries) {
  // Many merges fold the group's overlay into its base; a fresh snapshot
  // still answers every box.
  ThroughputCache cache(kMax);
  ThroughputCache::Delta delta = cache.make_delta();
  std::vector<ThroughputCache::Delta*> deltas{&delta};
  for (i64 wave = 0; wave < 10; ++wave) {
    for (i64 v = 0; v < 20; ++v) {
      record_point(delta, Caps{wave, v}, periodic(Rational(1, 7)));
    }
    cache.merge(deltas);
    delta.clear();
  }
  EXPECT_EQ(cache.merges(), 10u);
  EXPECT_EQ(cache.boxes_stored(), 200u);
  ThroughputCache::Delta reader = cache.make_delta();
  const ThroughputCache::Snapshot snap = cache.snapshot();
  for (i64 wave = 0; wave < 10; ++wave) {
    for (i64 v = 0; v < 20; ++v) {
      EXPECT_TRUE(reader.find_box(snap, Caps{wave, v}).has_value())
          << wave << "," << v;
    }
  }
}

TEST(ThroughputCacheDelta, MergeRejectsDisagreeingDeltas) {
  // Tamper test for the determinism check: two deltas reporting
  // different outcomes for the same run means the deterministic-
  // simulation invariant is broken, and merge() must throw rather than
  // silently pick a winner.
  ThroughputCache cache(kMax);
  ThroughputCache::Delta d0 = cache.make_delta();
  ThroughputCache::Delta d1 = cache.make_delta();
  record_point(d0, Caps{4, 2}, periodic(Rational(1, 7)));
  record_point(d1, Caps{4, 2}, periodic(Rational(1, 6)));  // divergent
  std::vector<ThroughputCache::Delta*> deltas{&d0, &d1};
  EXPECT_THROW(cache.merge(deltas), Error);
}

TEST(ThroughputCacheDelta, MergeRejectsDisagreementWithResidentEntries) {
  ThroughputCache cache(kMax);
  ThroughputCache::Delta delta = cache.make_delta();
  record_point(delta, Caps{4, 2}, periodic(Rational(1, 7)));
  std::vector<ThroughputCache::Delta*> deltas{&delta};
  cache.merge(deltas);
  delta.clear();

  // Disagrees with the resident box.
  record_point(delta, Caps{4, 2}, periodic(Rational(1, 6)));
  EXPECT_THROW(cache.merge(deltas), Error);

  // The state-space size is pinned by the simulation too.
  delta.clear();
  CachedThroughput other_states = periodic(Rational(1, 7));
  other_states.states_stored = 4;
  record_point(delta, Caps{4, 2}, other_states);
  EXPECT_THROW(cache.merge(deltas), Error);

  // Agreement is not a conflict.
  delta.clear();
  record_point(delta, Caps{4, 2}, periodic(Rational(1, 7)));
  cache.merge(deltas);
  EXPECT_EQ(cache.boxes_stored(), 1u);
  EXPECT_TRUE(find_point(cache, Caps{4, 2}).has_value());
}

TEST(ThroughputCacheDelta, DuplicateRecordKeepsFirstValue) {
  ThroughputCache cache(kMax);
  ThroughputCache::Delta delta = cache.make_delta();
  CachedThroughput first = periodic(Rational(1, 7));
  record_point(delta, Caps{4, 2}, first);
  CachedThroughput second = periodic(Rational(1, 7));
  second.states_stored = 9;
  record_point(delta, Caps{4, 2}, second);

  const auto hit = delta.find_box(cache.snapshot(), Caps{4, 2});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->states_stored, first.states_stored);
  merge_one(cache, delta);
  EXPECT_EQ(cache.boxes_stored(), 1u);
}

// ---------------------------------------------------------------------------
// The sorted witness antichain. It is ordered ascending by total so
// dominance scans early-exit; these pin the ordering semantics the scans
// rely on, including the drop-at-cap behaviour.

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
      EXPECT_EQ(max_dominated(a, Caps{x, y}),
                max_dominated(b, Caps{x, y}))
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
  EXPECT_TRUE(max_dominated(cache, Caps{6, 3}));
  EXPECT_TRUE(max_dominated(cache, Caps{3, 7}));
  EXPECT_TRUE(max_dominated(cache, Caps{3, 3}));
  EXPECT_FALSE(max_dominated(cache, Caps{2, 9}));
  EXPECT_FALSE(max_dominated(cache, Caps{9, 2}));
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
  EXPECT_TRUE(max_dominated(cache, Caps{0, 200}));
  EXPECT_TRUE(max_dominated(cache, Caps{63, 137}));
  // ...the dropped tail answers only through an earlier witness, i.e. not
  // at {69, 131} (every retained witness has y >= 137).
  EXPECT_FALSE(max_dominated(cache, Caps{69, 131}));
}

// ---------------------------------------------------------------------------
// Equivalence boxes (DESIGN.md §7): a run that blocked on channels B at
// capacities γ answers every distribution equal to γ on B and at least the
// run's demand floor elsewhere.

TEST(ThroughputCacheBoxes, RecordedBoxAnswersExactlyItsInterior) {
  ThroughputCache cache(kMax);
  ThroughputCache::Delta delta = cache.make_delta();
  // Channel 1 blocked at 2; channel 0 never asked for more than 3.
  record_box(delta, Caps{4, 2}, {1}, Caps{3, 9}, periodic(Rational(1, 7)));
  const ThroughputCache::Snapshot snap = cache.snapshot();
  for (const Caps& inside : {Caps{4, 2}, Caps{3, 2}, Caps{40, 2}}) {
    const auto hit = delta.find_box(snap, inside);
    ASSERT_TRUE(hit.has_value()) << inside[0] << "," << inside[1];
    EXPECT_EQ(hit->throughput, Rational(1, 7));
    EXPECT_EQ(hit->states_stored, 3u);
    EXPECT_EQ(hit->period, 7);
  }
  // Below the floor, or off the pinned capacity in either direction.
  for (const Caps& outside : {Caps{2, 2}, Caps{4, 3}, Caps{4, 1}}) {
    EXPECT_FALSE(delta.find_box(snap, outside).has_value())
        << outside[0] << "," << outside[1];
  }
  EXPECT_EQ(cache.box_hits(), 3u);
}

TEST(ThroughputCacheBoxes, MergePublishesBoxesToLaterSnapshots) {
  ThroughputCache cache(kMax);
  ThroughputCache::Delta writer = cache.make_delta();
  ThroughputCache::Delta reader = cache.make_delta();
  record_box(writer, Caps{4, 2, 5}, {1}, Caps{3, 0, 5}, periodic(kMax));
  record_box(writer, Caps{1, 1, 1}, {0, 2}, Caps{0, 1, 0}, deadlock());
  const ThroughputCache::Snapshot before = cache.snapshot();
  merge_one(cache, writer);
  EXPECT_EQ(cache.boxes_stored(), 2u);
  EXPECT_TRUE(writer.empty());

  // A snapshot taken before the merge misses (a safe, stale miss); one
  // taken after answers, for any delta of the cache.
  EXPECT_FALSE(reader.find_box(before, Caps{4, 2, 6}).has_value());
  const ThroughputCache::Snapshot after = cache.snapshot();
  const auto periodic_hit = reader.find_box(after, Caps{4, 2, 6});
  ASSERT_TRUE(periodic_hit.has_value());
  EXPECT_EQ(periodic_hit->throughput, kMax);
  const auto deadlock_hit = reader.find_box(after, Caps{1, 7, 1});
  ASSERT_TRUE(deadlock_hit.has_value());
  EXPECT_TRUE(deadlock_hit->deadlocked);
  EXPECT_FALSE(reader.find_box(after, Caps{2, 7, 1}).has_value());
  // Handing the reader an older snapshot again keeps what it synced.
  EXPECT_TRUE(reader.find_box(before, Caps{4, 2, 6}).has_value());
  // The maximal box fed the witness antichain.
  EXPECT_TRUE(max_dominated(cache, Caps{4, 2, 5}));
}

TEST(ThroughputCacheBoxes, ManyMergesFoldGroupsWithoutLosingBoxes) {
  // Enough merges to fold each group's overlay into its base several
  // times; every box stays answerable from one long-lived reader.
  ThroughputCache cache(kMax);
  ThroughputCache::Delta writer = cache.make_delta();
  ThroughputCache::Delta reader = cache.make_delta();
  for (i64 wave = 0; wave < 40; ++wave) {
    for (i64 v = 0; v < 10; ++v) {
      // Two masks: channel 0 blocked, or channel 1 blocked.
      record_box(writer, Caps{wave * 10 + v, 5}, {0}, Caps{0, 5},
                 periodic(Rational(1, 7)));
      record_box(writer, Caps{1000, wave * 10 + v}, {1}, Caps{1000, 0},
                 periodic(Rational(1, 9)));
    }
    merge_one(cache, writer);
  }
  EXPECT_EQ(cache.boxes_stored(), 800u);
  const ThroughputCache::Snapshot snap = cache.snapshot();
  for (i64 k = 0; k < 400; ++k) {
    const auto a = reader.find_box(snap, Caps{k, 6});
    ASSERT_TRUE(a.has_value()) << k;
    EXPECT_EQ(a->throughput, Rational(1, 7));
    const auto b = reader.find_box(snap, Caps{1001, k});
    ASSERT_TRUE(b.has_value()) << k;
    EXPECT_EQ(b->throughput, Rational(1, 9));
  }
}

TEST(ThroughputCacheBoxes, MergeRejectsATamperedBox) {
  // (blocked channels, capacities on them) determines the run, so a key
  // recorded twice must carry the same floors and outcome; merge() throws
  // on any difference, against resident boxes and across deltas.
  ThroughputCache cache(kMax);
  ThroughputCache::Delta delta = cache.make_delta();
  record_box(delta, Caps{4, 2}, {1}, Caps{3, 0}, periodic(Rational(1, 7)));
  merge_one(cache, delta);

  record_box(delta, Caps{5, 2}, {1}, Caps{4, 0}, periodic(Rational(1, 7)));
  std::vector<ThroughputCache::Delta*> deltas{&delta};
  EXPECT_THROW(cache.merge(deltas), Error);  // floors differ
  delta.clear();
  record_box(delta, Caps{4, 2}, {1}, Caps{3, 0}, periodic(Rational(1, 6)));
  EXPECT_THROW(cache.merge(deltas), Error);  // outcome differs
  EXPECT_EQ(cache.boxes_stored(), 1u);
  delta.clear();

  ThroughputCache::Delta d0 = cache.make_delta();
  ThroughputCache::Delta d1 = cache.make_delta();
  record_box(d0, Caps{9, 3}, {1}, Caps{2, 0}, periodic(Rational(1, 5)));
  record_box(d1, Caps{8, 3}, {1}, Caps{2, 0}, deadlock());
  std::vector<ThroughputCache::Delta*> both{&d0, &d1};
  EXPECT_THROW(cache.merge(both), Error);
  EXPECT_EQ(cache.boxes_stored(), 1u);

  // An agreeing duplicate is kept once.
  d0.clear();
  d1.clear();
  record_box(d0, Caps{9, 3}, {1}, Caps{2, 0}, periodic(Rational(1, 5)));
  record_box(d1, Caps{7, 3}, {1}, Caps{2, 0}, periodic(Rational(1, 5)));
  cache.merge(both);
  EXPECT_EQ(cache.boxes_stored(), 2u);
}

TEST(ThroughputCacheBoxes, CappedCacheStopsAddingBoxesAndStillAnswers) {
  // Beyond the entry capacity new boxes are dropped (and counted), never
  // evicted: the resident ones keep answering with their own values and
  // the dropped ones simply miss (their candidates are re-simulated).
  ThroughputCache cache(kMax, /*capacity=*/3);
  ThroughputCache::Delta writer = cache.make_delta();
  for (i64 k = 0; k < 6; ++k) {
    record_box(writer, Caps{k, 10 + k}, {0, 1}, Caps{0, 0},
               periodic(Rational(1, 10 + k)));
  }
  merge_one(cache, writer);
  EXPECT_EQ(cache.boxes_stored(), 3u);
  EXPECT_EQ(cache.entries_dropped(), 3u);
  record_box(writer, Caps{20, 20}, {0, 1}, Caps{0, 0}, periodic(kMax));
  merge_one(cache, writer);
  EXPECT_EQ(cache.boxes_stored(), 3u);
  EXPECT_EQ(cache.entries_dropped(), 4u);

  ThroughputCache::Delta reader = cache.make_delta();
  const ThroughputCache::Snapshot snap = cache.snapshot();
  for (i64 k = 0; k < 3; ++k) {
    const auto hit = reader.find_box(snap, Caps{k, 10 + k});
    ASSERT_TRUE(hit.has_value()) << k;
    EXPECT_EQ(hit->throughput, Rational(1, 10 + k));
  }
  for (i64 k = 3; k < 6; ++k) {
    EXPECT_FALSE(reader.find_box(snap, Caps{k, 10 + k}).has_value()) << k;
  }
  EXPECT_FALSE(reader.find_box(snap, Caps{20, 20}).has_value());
}

}  // namespace
}  // namespace buffy::buffer
