// The one oracle the differential suites compare against: a single-thread
// exploration on the scalar backend with the throughput cache and the LP
// bounds off, so every candidate is answered by a full state-space run of
// the classic solver. perfbench's `bench_tool oracle` answers its
// committed fronts with exactly these options.
#pragma once

#include "buffer/dse.hpp"
#include "state/simd_backend.hpp"

namespace buffy::testing {

/// Oracle options for `target` under `engine`; callers may add the
/// exploration's own inputs (quantisation, binding, size caps) on top.
inline buffer::DseOptions oracle_options(sdf::ActorId target,
                                         buffer::DseEngine engine) {
  buffer::DseOptions opts;
  opts.target = target;
  opts.engine = engine;
  opts.simd = state::SimdBackend::Scalar;
  opts.use_throughput_cache = false;
  opts.use_lp_bounds = false;
  return opts;
}

}  // namespace buffy::testing
