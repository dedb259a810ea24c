#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "base/diagnostics.hpp"
#include "base/hash.hpp"
#include "base/rng.hpp"
#include "buffer/bounds.hpp"
#include "io/dsl.hpp"
#include "models/models.hpp"
#include "service/cache_registry.hpp"

namespace buffy {
namespace {

TEST(Hash, DeterministicForEqualInput) {
  const std::vector<i64> words{1, 0, 2, 0, 7};
  EXPECT_EQ(hash_words(words), hash_words(words));
}

TEST(Hash, SensitiveToValueChanges) {
  const std::vector<i64> a{1, 0, 2, 0, 7};
  std::vector<i64> b = a;
  b[3] = 1;
  EXPECT_NE(hash_words(a), hash_words(b));
}

TEST(Hash, SensitiveToOrder) {
  EXPECT_NE(hash_words(std::vector<i64>{1, 2}),
            hash_words(std::vector<i64>{2, 1}));
}

TEST(Hash, EmptyInputIsStable) {
  EXPECT_EQ(hash_words({}), hash_words({}));
}

TEST(Hash, Mix64IsNotIdentity) {
  EXPECT_NE(mix64(0), 0u);
  EXPECT_NE(mix64(1), 1u);
}

TEST(Hash, CombineDependsOnBothArguments) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_NE(hash_combine(1, 2), hash_combine(1, 3));
}

TEST(Hash, FewCollisionsOnDenseStates) {
  // States like the engine produces: small non-negative words.
  std::set<u64> seen;
  int count = 0;
  for (i64 a = 0; a < 16; ++a) {
    for (i64 b = 0; b < 16; ++b) {
      for (i64 c = 0; c < 16; ++c) {
        seen.insert(hash_words(std::vector<i64>{a, b, c}));
        ++count;
      }
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(count));
}

// Appends to `out`, in lex order, every vector that adds `slack` tokens to
// `caps` over channels c.. (a composition of the slack), up to `limit`.
void add_compositions(std::vector<i64>& caps, std::size_t c, i64 slack,
                      std::size_t limit, std::vector<std::vector<i64>>& out) {
  if (out.size() >= limit) return;
  if (c + 1 == caps.size()) {
    caps[c] += slack;
    out.push_back(caps);
    caps[c] -= slack;
    return;
  }
  for (i64 v = 0; v <= slack && out.size() < limit; ++v) {
    caps[c] += v;
    add_compositions(caps, c + 1, slack - v, limit, out);
    caps[c] -= v;
  }
}

// The first `limit` candidates of g10_60's exhaustive enumeration: the
// distributions of each size from the Fig. 7 lower bound upward, every
// channel at or above its lower bound, in lex order — long shared
// prefixes and few distinct small values, the keys the throughput cache
// sees on a cold explore.
std::vector<std::vector<i64>> g10_60_candidates(std::size_t limit) {
  std::ifstream in(std::string(CORPUS_DIR) + "/g10_60.sdf");
  std::stringstream text;
  text << in.rdbuf();
  const sdf::Graph g = io::read_dsl(text.str());
  const buffer::DesignSpaceBounds bounds =
      buffer::design_space_bounds(g, *g.find_actor("a10"));
  std::vector<i64> caps = bounds.per_channel_lb.capacities();
  std::vector<std::vector<i64>> out;
  for (i64 slack = 0; out.size() < limit; ++slack) {
    add_compositions(caps, 0, slack, limit, out);
  }
  return out;
}

TEST(Hash, CorpusBoxVectorsHashDistinctly) {
  const auto candidates = g10_60_candidates(24'000);
  ASSERT_GE(candidates.size(), 20'000u);
  std::unordered_set<u64> hashes;
  for (const auto& caps : candidates) hashes.insert(hash_words(caps));
  EXPECT_EQ(hashes.size(), candidates.size());
}

TEST(Hash, CorpusBoxVectorsSpreadOverCacheStripes) {
  const auto candidates = g10_60_candidates(24'000);
  ASSERT_GE(candidates.size(), 20'000u);
  // The low bits of hash_words index power-of-two tables (the incremental
  // climb's open-addressing table); 16 buckets, as the cache's former
  // stripes did.
  constexpr std::size_t kStripes = 16;
  std::vector<std::size_t> per_stripe(kStripes, 0);
  for (const auto& caps : candidates) {
    ++per_stripe[static_cast<std::size_t>(hash_words(caps)) % kStripes];
  }
  const double uniform =
      static_cast<double>(candidates.size()) / static_cast<double>(kStripes);
  for (std::size_t s = 0; s < kStripes; ++s) {
    EXPECT_GE(static_cast<double>(per_stripe[s]), 0.8 * uniform)
        << "stripe " << s;
    EXPECT_LE(static_cast<double>(per_stripe[s]), 1.2 * uniform)
        << "stripe " << s;
  }
}

TEST(Hash, RegistryFingerprintIsPinned) {
  // graph_key hashes the canonical DSL byte-wise through hash_step; this
  // value was produced before hash_words changed to a word-at-a-time mix,
  // so it proves the registry key format did not move with it.
  EXPECT_EQ(service::graph_fingerprint(models::h263_decoder(), "mc"),
            7782398067175773919ULL);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const i64 v = rng.uniform(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformCoversWholeRange) {
  Rng rng(11);
  std::set<i64> seen;
  for (int i = 0; i < 1'000; ++i) seen.insert(rng.uniform(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformSingleValue) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform(5, 5), 5);
}

TEST(Rng, InvalidRangeThrows) {
  Rng rng(3);
  EXPECT_THROW((void)rng.uniform(2, 1), Error);
  EXPECT_THROW((void)rng.index(0), Error);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

}  // namespace
}  // namespace buffy
