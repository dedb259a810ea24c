// The lane-step kernel (simd_lanes_inl.hpp, DESIGN.md §15) instantiated
// at the baseline ISA for both lane words: i64 (full range) and i32 (the
// narrow kernel under the kNarrowLimit gate). simd_avx2.cpp instantiates
// the same body with -mavx2.
#include "state/simd_lanes_inl.hpp"

namespace buffy::state {

LaneStepResult lane_step_swar(const LaneKernelView& v) {
  return lanes_inl::lane_step_dispatch<i64>(v);
}

LaneStepResult lane_step_swar32(const LaneKernelView32& v) {
  return lanes_inl::lane_step_dispatch<i32>(v);
}

}  // namespace buffy::state
