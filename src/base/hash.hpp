// Hashing used by the state-space stores and the throughput cache.
//
// The reduced state space (Sec. 7 of the paper) is a hash map from timed SDF
// states to visit indices, and the Sec. 8 throughput cache keys every
// candidate distribution by its capacity vector; both hash a short span of
// 64-bit words on every lookup. hash_words folds one whole word per step
// (xor, multiply, xor-shift) and finishes with splitmix64, so a 17-word
// capacity vector costs 17 multiplies instead of FNV-1a's 136.
//
// hash_step is the byte-wise FNV-1a step. It is kept only for hash_combine
// and for callers whose persisted keys already depend on its exact values
// (the service cache registry's graph fingerprints).
#pragma once

#include <cstddef>
#include <span>

#include "base/checked_math.hpp"

namespace buffy {

/// FNV-1a offset basis; exposed so tests can pin the algorithm down.
inline constexpr u64 kFnvOffset = 1469598103934665603ULL;
/// FNV-1a prime.
inline constexpr u64 kFnvPrime = 1099511628211ULL;

/// splitmix64 finalising mix; bijective on 64-bit words.
[[nodiscard]] u64 mix64(u64 x);

/// Incorporates one 64-bit word, byte by byte, into a running FNV-1a hash.
[[nodiscard]] u64 hash_step(u64 h, u64 word);

/// Hash of a span of 64-bit words: one multiply-xorshift round per word,
/// then mix64.
[[nodiscard]] u64 hash_words(std::span<const i64> words);

/// Combines two hashes (order-dependent).
[[nodiscard]] u64 hash_combine(u64 a, u64 b);

}  // namespace buffy
