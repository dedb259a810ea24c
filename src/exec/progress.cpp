#include "exec/progress.hpp"

#include <cstdio>

namespace buffy::exec {

std::string ProgressSnapshot::json() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"points_explored\": %llu, \"states_visited\": %llu, "
      "\"pruned_by_bound\": %llu, \"pareto_points\": %llu, \"waves\": %llu, "
      "\"simulations\": %llu, \"cache_hits\": %llu, \"box_hits\": %llu, "
      "\"dominance_skips\": %llu, \"lp_prunes\": %llu, "
      "\"sims_avoided\": %llu, "
      "\"arena_bytes\": %llu, \"trace_events\": %llu, "
      "\"seconds\": %.6f, \"cancelled\": %s}",
      static_cast<unsigned long long>(points_explored),
      static_cast<unsigned long long>(states_visited),
      static_cast<unsigned long long>(pruned_by_bound),
      static_cast<unsigned long long>(pareto_points),
      static_cast<unsigned long long>(waves),
      static_cast<unsigned long long>(simulations),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(box_hits),
      static_cast<unsigned long long>(dominance_skips),
      static_cast<unsigned long long>(lp_prunes),
      static_cast<unsigned long long>(sims_avoided),
      static_cast<unsigned long long>(arena_bytes),
      static_cast<unsigned long long>(trace_events), seconds,
      cancelled ? "true" : "false");
  return buf;
}

Progress::Progress() : start_(std::chrono::steady_clock::now()) {}

ProgressSnapshot Progress::snapshot() const {
  ProgressSnapshot s;
  s.points_explored = points_explored_.v.load(std::memory_order_relaxed);
  s.states_visited = states_visited_.v.load(std::memory_order_relaxed);
  s.pruned_by_bound = pruned_by_bound_.v.load(std::memory_order_relaxed);
  s.pareto_points = pareto_points_.v.load(std::memory_order_relaxed);
  s.waves = waves_.v.load(std::memory_order_relaxed);
  s.simulations = simulations_.v.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.v.load(std::memory_order_relaxed);
  s.box_hits = box_hits_.v.load(std::memory_order_relaxed);
  s.dominance_skips = dominance_skips_.v.load(std::memory_order_relaxed);
  s.lp_prunes = lp_prunes_.v.load(std::memory_order_relaxed);
  s.sims_avoided = sims_avoided_.v.load(std::memory_order_relaxed);
  s.arena_bytes = arena_bytes_.v.load(std::memory_order_relaxed);
  s.trace_events = trace_events_.v.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.v.load(std::memory_order_relaxed) != 0;
  s.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  return s;
}

}  // namespace buffy::exec
