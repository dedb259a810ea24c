#include "state/engine.hpp"

#include <algorithm>
#include <string>

#include "base/audit.hpp"
#include "base/diagnostics.hpp"
#include "trace/trace.hpp"

namespace buffy::state {

Engine::Engine(const sdf::Graph& graph, Capacities capacities)
    : graph_(graph), capacities_(std::move(capacities)) {
  BUFFY_REQUIRE(capacities_.size() == graph.num_channels(),
                "capacities must cover every channel of the graph");
  const std::size_t n = graph.num_actors();
  const std::size_t m = graph.num_channels();
  exec_time_.resize(n);
  inputs_.resize(n);
  outputs_.resize(n);
  for (const sdf::ActorId a : graph.actor_ids()) {
    exec_time_[a.index()] = graph.actor(a).execution_time;
    for (const sdf::ChannelId c : graph.in_channels(a)) {
      inputs_[a.index()].push_back(
          PortRef{c.index(), graph.channel(c).consumption});
    }
    for (const sdf::ChannelId c : graph.out_channels(a)) {
      outputs_[a.index()].push_back(
          PortRef{c.index(), graph.channel(c).production});
    }
  }
  initial_tokens_.resize(m);
  for (const sdf::ChannelId c : graph.channel_ids()) {
    initial_tokens_[c.index()] = graph.channel(c).initial_tokens;
  }
  reset();
}

void Engine::reconfigure(Capacities capacities) {
  BUFFY_REQUIRE(capacities.size() == graph_.num_channels(),
                "capacities must cover every channel of the graph");
  capacities_ = std::move(capacities);
  reset();
}

void Engine::set_binding(std::vector<std::size_t> processor_of) {
  if (!processor_of.empty()) {
    BUFFY_REQUIRE(processor_of.size() == clocks_.size(),
                  "binding must assign every actor a processor");
    std::size_t max_proc = 0;
    for (const std::size_t p : processor_of) max_proc = std::max(max_proc, p);
    proc_running_.assign(max_proc + 1, 0);
  } else {
    proc_running_.clear();
  }
  processor_of_ = std::move(processor_of);
  reset();
}

bool Engine::can_start(std::size_t actor) const {
  if (clocks_[actor] != 0) return false;
  if (!processor_of_.empty() && proc_running_[processor_of_[actor]] != 0) {
    return false;  // the actor's processor is executing someone else
  }
  for (const PortRef& in : inputs_[actor]) {
    if (tokens_[in.channel] < in.rate) return false;
  }
  for (const PortRef& out : outputs_[actor]) {
    if (capacities_.is_bounded(out.channel) &&
        occupied_[out.channel] + out.rate >
            capacities_.capacity(out.channel)) {
      return false;
    }
  }
  return true;
}

// The tracking twin of can_start: the same conjunction, evaluated once,
// with every failing space check recorded against its channel (space-block
// tracking) and every evaluated one raising the channel's demand (demand
// tracking). The processor check runs last so an actor kept off its
// processor still reports its space blockage (space_blocked_channels
// ignores the binding).
bool Engine::can_start_tracked(std::size_t actor) {
  if (clocks_[actor] != 0) return false;
  for (const PortRef& in : inputs_[actor]) {
    if (tokens_[in.channel] < in.rate) return false;
  }
  bool space_ok = true;
  for (const PortRef& out : outputs_[actor]) {
    if (!capacities_.is_bounded(out.channel)) continue;
    const i64 need = occupied_[out.channel] + out.rate;
    if (track_demand_) {
      demand_[out.channel] = std::max(demand_[out.channel], need);
    }
    if (need > capacities_.capacity(out.channel)) {
      space_ok = false;
      if (track_space_block_) last_space_block_[out.channel] = now_;
    }
  }
  if (!space_ok) return false;
  return processor_of_.empty() || proc_running_[processor_of_[actor]] == 0;
}

void Engine::start_phase() {
  const bool tracked = track_space_block_ || track_demand_;
  started_.clear();
  // A start claims output space but never adds tokens or frees space, so no
  // start can enable another within the same instant; each channel has a
  // single producer, so no two starts compete for the same space. A single
  // pass in actor order is therefore deterministic and complete.
  for (std::size_t a = 0; a < clocks_.size(); ++a) {
    if (tracked ? !can_start_tracked(a) : !can_start(a)) continue;
    clocks_[a] = exec_time_[a];
    if (next_completion_ == 0 || exec_time_[a] < next_completion_) {
      next_completion_ = exec_time_[a];
    }
    if (!processor_of_.empty()) ++proc_running_[processor_of_[a]];
    for (const PortRef& out : outputs_[a]) {
      occupied_[out.channel] += out.rate;
      max_occupancy_[out.channel] =
          std::max(max_occupancy_[out.channel], occupied_[out.channel]);
    }
    started_.emplace_back(a);
    if (recorder_ != nullptr) recorder_->record(sdf::ActorId(a), now_);
  }
}

void Engine::reset() {
  if (trace::enabled()) {
    // -1 when any channel is unbounded (no meaningful total size).
    i64 size = 0;
    for (std::size_t c = 0; c < capacities_.size() && size >= 0; ++c) {
      size = capacities_.is_bounded(c) ? size + capacities_.capacity(c) : -1;
    }
    trace::emit_instant(trace::EventKind::EngineReset, size);
  }
  clocks_.assign(exec_time_.size(), 0);
  std::fill(proc_running_.begin(), proc_running_.end(), 0);
  tokens_ = initial_tokens_;
  occupied_ = initial_tokens_;
  max_occupancy_ = initial_tokens_;
  completed_.clear();
  started_.clear();
  now_ = 0;
  next_completion_ = 0;
  deadlocked_ = false;
  if (track_space_block_) {
    last_space_block_.assign(tokens_.size(), -1);
  } else {
    last_space_block_.clear();
  }
  if (track_demand_) {
    demand_ = initial_tokens_;
  } else {
    demand_.clear();
  }
  // Validate that initial tokens fit the capacities; otherwise the state is
  // not even representable.
  for (std::size_t c = 0; c < tokens_.size(); ++c) {
    if (capacities_.is_bounded(c) && tokens_[c] > capacities_.capacity(c)) {
      throw GraphError("channel '" +
                       graph_.channel(sdf::ChannelId(c)).name +
                       "' has more initial tokens than its capacity");
    }
  }
  start_phase();
  deadlocked_ = started_.empty();
}

bool Engine::step() { return advance_by(1); }

bool Engine::advance() {
  if (deadlocked_) return false;
  // next_completion_ is the cached minimum positive clock, so the jump to
  // the next completion needs no scan over the actors.
  BUFFY_ASSERT(next_completion_ > 0, "live engine without a running firing");
  return advance_by(next_completion_);
}

bool Engine::advance_by(i64 delta) {
  if (deadlocked_) return false;
  now_ += delta;
  completed_.clear();

  // Completion phase: lower the clocks; firings reaching zero consume their
  // inputs (releasing that space) and turn their claimed output space into
  // tokens. The loop also rebuilds the cached minimum positive clock.
  next_completion_ = 0;
  for (std::size_t a = 0; a < clocks_.size(); ++a) {
    if (clocks_[a] == 0) continue;
    BUFFY_ASSERT(clocks_[a] >= delta, "advance past a completion");
    clocks_[a] -= delta;
    if (clocks_[a] != 0) {
      if (next_completion_ == 0 || clocks_[a] < next_completion_) {
        next_completion_ = clocks_[a];
      }
      continue;
    }
    for (const PortRef& in : inputs_[a]) {
      tokens_[in.channel] -= in.rate;
      occupied_[in.channel] -= in.rate;
      BUFFY_ASSERT(tokens_[in.channel] >= 0, "negative channel fill");
    }
    for (const PortRef& out : outputs_[a]) {
      tokens_[out.channel] += out.rate;  // occupancy unchanged: claim -> data
    }
    if (!processor_of_.empty()) --proc_running_[processor_of_[a]];
    completed_.emplace_back(a);
  }

  start_phase();

  // With no firing in progress and the start phase unable to launch any
  // actor, the state can never change again: deadlock (self-loop in the
  // state space, Sec. 6). No firing in flight is exactly next_completion_
  // == 0: the completion loop and start_phase both fold every positive
  // clock into the cached minimum.
  deadlocked_ = next_completion_ == 0;
  return !deadlocked_;
}

TimedState Engine::snapshot() const { return TimedState(clocks_, tokens_); }

void Engine::snapshot_into(std::span<i64> out) const {
  BUFFY_ASSERT(out.size() == clocks_.size() + tokens_.size(),
               "snapshot buffer size mismatch");
  std::copy(clocks_.begin(), clocks_.end(), out.begin());
  std::copy(tokens_.begin(), tokens_.end(), out.begin() + clocks_.size());
}

std::vector<sdf::ChannelId> Engine::space_blocked_channels() const {
  std::vector<sdf::ChannelId> result;
  space_blocked_channels(result);
  return result;
}

void Engine::space_blocked_channels(std::vector<sdf::ChannelId>& out) const {
  out.clear();
  blocked_scratch_.assign(tokens_.size(), 0);
  for (std::size_t a = 0; a < clocks_.size(); ++a) {
    if (clocks_[a] != 0) continue;
    bool tokens_ok = true;
    for (const PortRef& in : inputs_[a]) {
      if (tokens_[in.channel] < in.rate) {
        tokens_ok = false;
        break;
      }
    }
    if (!tokens_ok) continue;
    for (const PortRef& out_port : outputs_[a]) {
      if (capacities_.is_bounded(out_port.channel) &&
          occupied_[out_port.channel] + out_port.rate >
              capacities_.capacity(out_port.channel)) {
        blocked_scratch_[out_port.channel] = 1;
      }
    }
  }
  for (std::size_t c = 0; c < blocked_scratch_.size(); ++c) {
    if (blocked_scratch_[c] != 0) out.emplace_back(c);
  }
}

void Engine::audit_verify_invariants() const {
  for (std::size_t c = 0; c < tokens_.size(); ++c) {
    audit::note_check();
    const std::string channel =
        "channel " + std::to_string(c) + " (" +
        graph_.channel(sdf::ChannelId(c)).name + ") at t=" +
        std::to_string(now_);
    if (tokens_[c] < 0) {
      audit::fail("engine-tokens-nonnegative",
                  channel + ": " + std::to_string(tokens_[c]) +
                      " stored tokens");
    }
    if (occupied_[c] < tokens_[c]) {
      audit::fail("engine-occupancy-covers-tokens",
                  channel + ": occupancy " + std::to_string(occupied_[c]) +
                      " < stored tokens " + std::to_string(tokens_[c]) +
                      " (claimed space lost track of a write)");
    }
    if (capacities_.is_bounded(c) &&
        occupied_[c] > capacities_.capacity(c)) {
      audit::fail("engine-capacity-bound",
                  channel + ": occupancy " + std::to_string(occupied_[c]) +
                      " exceeds capacity " +
                      std::to_string(capacities_.capacity(c)));
    }
  }
}

void Engine::corrupt_occupancy_for_test(sdf::ChannelId c, i64 delta) {
  occupied_[c.index()] += delta;
}

}  // namespace buffy::state
