// Width-generic lane-step body (DESIGN.md §15): the one source of the
// lane kernel's semantics.
//
// The body is one lockstep time step written once over the lane word
// type T: i64 for the full-range kernel, i32 for the narrow kernel
// (entered only under the kNarrowLimit gate, which makes every sum exact
// at half width). Each instantiation compiles to straight-line mask
// arithmetic over contiguous rows that the compiler auto-vectorizes for
// the translation unit's target ISA; the stride dispatcher below
// instantiates it with the batch width as a compile-time constant so the
// row loops fully unroll. Both lane backends are this body: simd_swar.cpp
// compiles it at the baseline ISA, simd_avx2.cpp at -mavx2.
//
// Two rows deliberately stay i64 at either width: `now` and `last_block`
// hold absolute instants that grow with the run length, not with graph
// magnitudes, so the narrow gate cannot bound them. Their updates widen
// the lane masks on the fly; both touch memory only on the rare
// completion/blocked edges of a step.
#pragma once

#include <algorithm>

#include "base/diagnostics.hpp"
#include "state/simd_kernel.hpp"

namespace buffy::state::lanes_inl {

// Internal linkage on purpose: every including translation unit must get
// its *own* instantiation, compiled at that TU's target ISA. With normal
// (COMDAT) template linkage the linker would merge the baseline and the
// -mavx2 instantiations and keep an arbitrary one — either pessimising
// the AVX2 backend or, worse, leaking AVX2 instructions into the
// baseline path that runs before the CPU gate (ctest LaneKernelLinkage).
namespace {

/// Whole-word boolean: -1 when the predicate holds, 0 otherwise.
template <typename T>
inline T mask_of(bool b) {
  return -static_cast<T>(b);
}

/// One lockstep step at the compile-time stride S (== v.stride), which
/// lets the compiler fully unroll every row loop (the per-loop setup
/// otherwise dominates at small strides).
template <typename T, std::size_t S>
LaneStepResult lane_step_generic(const LaneKernelViewT<T>& v) {
  constexpr T kNever = lane_never_of<T>;
  T* __restrict const cm = v.scratch;          // completion mask of the current actor
  T* __restrict const tok = v.scratch + S;     // token-feasible mask (start phase)
  T* __restrict const en = v.scratch + 2 * S;  // enabled mask (start phase)
  T* __restrict const acc = v.scratch + 3 * S;  // next-completion min-fold

  for (std::size_t l = 0; l < S; ++l) {
    v.now[l] += v.delta[l];
    acc[l] = kNever;
  }

  u64 target_bits = 0;

  // Completion phase: running clocks drop by the lane delta; firings
  // reaching zero consume their inputs (releasing that space) and turn
  // their claimed output space into tokens. Clocks still positive after
  // the drop fold into the next-completion accumulator. Parked lanes have
  // delta == 0 and never produce a completion mask, so their rows only
  // ever see no-op updates.
  for (std::size_t a = 0; a < v.num_actors; ++a) {
    T* __restrict const row = v.clocks + a * S;
    T any = 0;
    for (std::size_t l = 0; l < S; ++l) {
      const T c = row[l];
      const T running = mask_of<T>(c != 0);
      const T completed = running & mask_of<T>(c == v.delta[l]);
      const T left = c - (v.delta[l] & running);
      row[l] = left;
      cm[l] = completed;
      any |= completed;
      acc[l] = std::min(acc[l],
                        static_cast<T>(left | (mask_of<T>(left == 0) & kNever)));
    }
    if (a == v.target) {
      for (std::size_t l = 0; l < S; ++l) {
        target_bits |= (static_cast<u64>(cm[l]) & u64{1}) << l;
      }
    }
    if (any == 0) continue;
    for (std::size_t p = v.in_begin[a]; p < v.in_begin[a + 1]; ++p) {
      const LanePort& port = v.in_ports[p];
      const T rate = static_cast<T>(port.rate);
      T* __restrict const tk = v.tokens + port.channel * S;
      T* __restrict const oc = v.occupied + port.channel * S;
      for (std::size_t l = 0; l < S; ++l) {
        const T d = rate & cm[l];
        tk[l] -= d;
        oc[l] -= d;
      }
    }
    for (std::size_t p = v.out_begin[a]; p < v.out_begin[a + 1]; ++p) {
      const LanePort& port = v.out_ports[p];
      const T rate = static_cast<T>(port.rate);
      T* __restrict const tk = v.tokens + port.channel * S;
      for (std::size_t l = 0; l < S; ++l) {
        tk[l] += rate & cm[l];  // occupancy unchanged: claim -> data
      }
    }
  }

  // Start phase, one pass in actor order (a start claims space but never
  // adds tokens or frees space, so no start can enable another within the
  // instant — the scalar engine's argument, lane-widened). Space-blocked
  // instants are recorded against the channel whenever the token checks
  // pass but a space check fails, and every space check past the token
  // checks raises the channel's demand, mirroring
  // Engine::can_start_tracked.
  for (std::size_t a = 0; a < v.num_actors; ++a) {
    T* __restrict const row = v.clocks + a * S;
    const T et = static_cast<T>(v.exec_time[a]);
    T any = 0;
    for (std::size_t l = 0; l < S; ++l) {
      tok[l] = v.live[l] & mask_of<T>(row[l] == 0);
      any |= tok[l];
    }
    if (any == 0) continue;  // actor busy (or lane parked) everywhere
    for (std::size_t p = v.in_begin[a]; p < v.in_begin[a + 1]; ++p) {
      const LanePort& port = v.in_ports[p];
      const T rate = static_cast<T>(port.rate);
      const T* __restrict const tk = v.tokens + port.channel * S;
      for (std::size_t l = 0; l < S; ++l) {
        tok[l] &= mask_of<T>(tk[l] >= rate);
      }
    }
    for (std::size_t l = 0; l < S; ++l) en[l] = tok[l];
    for (std::size_t p = v.out_begin[a]; p < v.out_begin[a + 1]; ++p) {
      const LanePort& port = v.out_ports[p];
      const T rate = static_cast<T>(port.rate);
      const T* __restrict const oc = v.occupied + port.channel * S;
      const T* __restrict const cp = v.caps + port.channel * S;
      if (v.demand != nullptr) {
        // Every lane past the token checks (tok) evaluates this check;
        // demand >= 0, so the others fold in 0 and keep their value.
        T* __restrict const dm = v.demand + port.channel * S;
        for (std::size_t l = 0; l < S; ++l) {
          dm[l] = std::max(dm[l], static_cast<T>((oc[l] + rate) & tok[l]));
        }
      }
      if (v.last_block != nullptr) {
        i64* __restrict const lb = v.last_block + port.channel * S;
        for (std::size_t l = 0; l < S; ++l) {
          const T fail = tok[l] & mask_of<T>(oc[l] + rate > cp[l]);
          en[l] &= ~fail;
          lb[l] ^= (lb[l] ^ v.now[l]) & static_cast<i64>(fail);
        }
      } else {
        for (std::size_t l = 0; l < S; ++l) {
          en[l] &= mask_of<T>(oc[l] + rate <= cp[l]);
        }
      }
    }
    any = 0;
    for (std::size_t l = 0; l < S; ++l) any |= en[l];
    if (any == 0) continue;
    for (std::size_t l = 0; l < S; ++l) {
      row[l] |= et & en[l];  // row is 0 wherever en is set
      acc[l] = std::min(acc[l],
                        static_cast<T>((et & en[l]) | (~en[l] & kNever)));
    }
    for (std::size_t p = v.out_begin[a]; p < v.out_begin[a + 1]; ++p) {
      const LanePort& port = v.out_ports[p];
      const T rate = static_cast<T>(port.rate);
      T* __restrict const oc = v.occupied + port.channel * S;
      for (std::size_t l = 0; l < S; ++l) {
        oc[l] += rate & en[l];
      }
    }
  }

  // Next-completion fold: a live lane with no positive clock left can
  // never change state again — deadlock, reported for the driver to
  // retire. Its delta parks at 0 so further steps are no-ops even if the
  // driver keeps it around for a step.
  u64 dead_bits = 0;
  for (std::size_t l = 0; l < S; ++l) {
    const T next = acc[l] & mask_of<T>(acc[l] != kNever) & v.live[l];
    v.delta[l] = next;
    dead_bits |=
        (static_cast<u64>(v.live[l] & mask_of<T>(next == 0)) & u64{1}) << l;
  }
  return LaneStepResult{target_bits, dead_bits};
}

/// Stride dispatcher: LaneThroughputSolver rounds its lane count in
/// [1, 64] up to a multiple of 8, so every stride is one of the eight
/// cases below, each a fully unrolled instantiation.
template <typename T>
LaneStepResult lane_step_dispatch(const LaneKernelViewT<T>& v) {
  switch (v.stride) {
    case 8:
      return lane_step_generic<T, 8>(v);
    case 16:
      return lane_step_generic<T, 16>(v);
    case 24:
      return lane_step_generic<T, 24>(v);
    case 32:
      return lane_step_generic<T, 32>(v);
    case 40:
      return lane_step_generic<T, 40>(v);
    case 48:
      return lane_step_generic<T, 48>(v);
    case 56:
      return lane_step_generic<T, 56>(v);
    case 64:
      return lane_step_generic<T, 64>(v);
    default:
      break;
  }
  BUFFY_ASSERT(false, "lane stride must be a multiple of 8 in [8, 64]");
  return {};
}

}  // namespace

}  // namespace buffy::state::lanes_inl
