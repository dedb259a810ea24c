// SIMD backend selection for the lane-parallel throughput kernel
// (DESIGN.md §15).
//
// The lane kernel steps N candidate storage distributions in lockstep.
// Its one portable body (word-parallel masks, auto-vectorized by the
// compiler) is compiled twice: at the baseline ISA (SWAR) and with -mavx2
// (src/state/simd_avx2.cpp, the one translation unit built with that
// flag). Which one runs is a *runtime* decision — the AVX2 build is only
// entered after __builtin_cpu_supports("avx2") says the host has it — so a
// single binary serves every x86-64 microarchitecture and every non-x86
// host falls back to SWAR. `Scalar` selects the classic one-candidate
// ThroughputSolver; it is the differential reference the lane paths are
// byte-compared against.
#pragma once

#include <optional>
#include <string_view>

#include "base/checked_math.hpp"

namespace buffy::state {

/// Which kernel simulates DSE candidates.
enum class SimdBackend {
  /// Pick the widest available lane backend at runtime (Avx2 when the CPU
  /// supports it, else Swar). This is the default everywhere.
  Auto,
  /// The scalar one-candidate-at-a-time ThroughputSolver (reference path).
  Scalar,
  /// Portable uint64 SWAR lane kernel; available on every host.
  Swar,
  /// The same lane kernel compiled for AVX2; available when the CPU
  /// reports AVX2.
  Avx2,
};

/// True when `backend` can run on this host. Auto/Scalar/Swar are always
/// available; Avx2 only on x86 CPUs reporting the feature.
[[nodiscard]] bool backend_available(SimdBackend backend);

/// Resolves Auto to the widest available lane backend; returns any other
/// backend unchanged. Throws Error if the requested backend is not
/// available on this host (e.g. Avx2 on a non-AVX2 machine).
[[nodiscard]] SimdBackend resolve_backend(SimdBackend requested);

/// Stable lower-case name ("auto", "scalar", "swar", "avx2") for CLI
/// output and stats JSON.
[[nodiscard]] const char* backend_name(SimdBackend backend);

/// Inverse of backend_name; nullopt for unknown names.
[[nodiscard]] std::optional<SimdBackend> parse_backend(std::string_view name);

/// Hard bounds of the lane kernel's batch width.
inline constexpr std::size_t kMinLanes = 1;
inline constexpr std::size_t kMaxLanes = 64;  // lane masks live in one u64

/// Default lane count of a backend. Deliberately identical for Swar and
/// Avx2 (and fixed across hosts): the exhaustive engine's enumeration
/// order — and with it the deterministic "distributions explored" counters
/// in the generated experiment report — depends only on the batch width,
/// so equal defaults keep those counters identical no matter which lane
/// backend a host resolves to. (Scalar has width 1 and its own counters.)
[[nodiscard]] std::size_t default_lanes(SimdBackend backend);

/// Clamps a user-requested lane count (0 = backend default) into
/// [kMinLanes, kMaxLanes].
[[nodiscard]] std::size_t resolve_lanes(std::size_t requested,
                                        SimdBackend backend);

}  // namespace buffy::state
