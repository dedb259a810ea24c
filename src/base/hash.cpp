#include "base/hash.hpp"

namespace buffy {

u64 mix64(u64 x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

u64 hash_step(u64 h, u64 word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

u64 hash_bytes(u64 h, std::string_view bytes) {
  constexpr u64 kPrime2 = kFnvPrime * kFnvPrime;
  constexpr u64 kPrime4 = kPrime2 * kPrime2;
  constexpr u64 kPrime8 = kPrime4 * kPrime4;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * kPrime8;
  }
  return h;
}

u64 hash_words(std::span<const i64> words) {
  // Each round is a bijection of the running state for a fixed word: the
  // odd multiply spreads low bits upward and the xor-shift folds the high
  // half back down, so every input bit can reach every state bit within two
  // rounds and mix64 finishes the avalanche.
  constexpr u64 kWordMul = 0x9fb21c651e98df25ULL;
  u64 h = kFnvOffset;
  for (const i64 w : words) {
    h = (h ^ static_cast<u64>(w)) * kWordMul;
    h ^= h >> 32;
  }
  return mix64(h);
}

u64 hash_combine(u64 a, u64 b) {
  // Mix the first operand before folding in the second: feeding `a` directly
  // as the FNV seed would make small values symmetric under swap (the first
  // folded byte is an XOR).
  return mix64(hash_step(mix64(a), b));
}

}  // namespace buffy
