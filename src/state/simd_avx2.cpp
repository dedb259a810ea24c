// The lane-step kernel (simd_lanes_inl.hpp, DESIGN.md §15) instantiated
// with -mavx2 (src/CMakeLists.txt), the only translation unit built with
// that flag. It is entered only behind the runtime lane_avx2_available()
// gate, so the library stays loadable on any x86-64; non-x86 hosts
// compile it at the baseline ISA, where the gate is always false.
#include "state/simd_lanes_inl.hpp"

namespace buffy::state {

LaneStepResult lane_step_avx2(const LaneKernelView& v) {
  return lanes_inl::lane_step_dispatch<i64>(v);
}

LaneStepResult lane_step_avx2_32(const LaneKernelView32& v) {
  return lanes_inl::lane_step_dispatch<i32>(v);
}

}  // namespace buffy::state
