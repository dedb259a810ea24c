#include "state/lane_throughput.hpp"

#include <bit>
#include <string>
#include <type_traits>

#include "base/audit.hpp"
#include "base/diagnostics.hpp"
#include "trace/trace.hpp"

namespace buffy::state {

LaneThroughputSolver::LaneThroughputSolver(
    const sdf::Graph& graph, std::size_t lanes, SimdBackend backend,
    const analysis::BoundsCertificate* certificate)
    : graph_(graph), lanes_(lanes), backend_(backend),
      certificate_(certificate) {
  BUFFY_REQUIRE(lanes >= kMinLanes && lanes <= kMaxLanes,
                "lane count must be in [1, 64]");
  BUFFY_REQUIRE(
      backend == SimdBackend::Swar || backend == SimdBackend::Avx2,
      "LaneThroughputSolver needs a lane backend (swar or avx2); the scalar "
      "path is ThroughputSolver");
  BUFFY_REQUIRE(backend_available(backend),
                "requested lane backend is not available on this host");
  if (backend == SimdBackend::Avx2) {
    step64_ = &lane_step_avx2;
    step32_ = &lane_step_avx2_32;
  } else {
    step64_ = &lane_step_swar;
    step32_ = &lane_step_swar32;
  }
  // The kernels are instantiated only for the strides 8, 16, ..., 64
  // (fully unrolled, whole vectors at any ISA): round the lane count up,
  // with the padding lanes permanently parked.
  stride_ = (lanes + 7) / 8 * 8;

  const std::size_t n = graph.num_actors();
  const std::size_t m = graph.num_channels();
  exec_time_.resize(n);
  initial_tokens_.resize(m);
  for (const sdf::ChannelId c : graph.channel_ids()) {
    initial_tokens_[c.index()] = graph.channel(c).initial_tokens;
  }
  in_begin_.assign(n + 1, 0);
  out_begin_.assign(n + 1, 0);
  for (const sdf::ActorId a : graph.actor_ids()) {
    exec_time_[a.index()] = graph.actor(a).execution_time;
    in_begin_[a.index()] = in_ports_.size();
    for (const sdf::ChannelId c : graph.in_channels(a)) {
      in_ports_.push_back(LanePort{c.index(), graph.channel(c).consumption});
    }
    out_begin_[a.index()] = out_ports_.size();
    for (const sdf::ChannelId c : graph.out_channels(a)) {
      out_ports_.push_back(LanePort{c.index(), graph.channel(c).production});
    }
  }
  in_begin_[n] = in_ports_.size();
  out_begin_[n] = out_ports_.size();

  // Narrow (i32) eligibility of the graph itself: every execution time,
  // rate and initial-token count must fit the kNarrowLimit envelope. The
  // per-batch candidate capacities are checked in compute_batch; a batch
  // that fits runs at twice the lanes per vector, one that does not falls
  // back to the full-range tables — same results either way.
  narrow_ok_ = true;
  for (const i64 e : exec_time_) narrow_ok_ = narrow_ok_ && e <= kNarrowLimit;
  for (const i64 t : initial_tokens_) {
    narrow_ok_ = narrow_ok_ && t <= kNarrowLimit;
  }
  for (const LanePort& p : in_ports_) {
    narrow_ok_ = narrow_ok_ && p.rate <= kNarrowLimit;
  }
  for (const LanePort& p : out_ports_) {
    narrow_ok_ = narrow_ok_ && p.rate <= kNarrowLimit;
  }

  // Static narrow selection (DESIGN.md §16): the certificate's single
  // magnitude bound covers execution times, rates, initial tokens *and*
  // the storage budget the engine will explore within, so comparing it
  // against kNarrowLimit once proves the narrow kernel for every batch
  // the caller flags within_certificate — no per-batch capacity scan.
  // The graph-magnitude scan above must agree (the certificate bound
  // dominates it); requiring both keeps the narrow tables' allocation
  // tied to one flag.
  static_narrow_ = narrow_ok_ && certificate_ != nullptr &&
                   certificate_->matches(graph) && certificate_->consistent &&
                   certificate_->fits_i64 &&
                   certificate_->magnitude_bound <= kNarrowLimit;

  const auto assign_tables = [&](auto& t) {
    using T = typename std::decay_t<decltype(t.clocks)>::value_type;
    t.clocks.assign(n * stride_, 0);
    t.tokens.assign(m * stride_, 0);
    t.occupied.assign(m * stride_, 0);
    t.caps.assign(m * stride_, lane_never_of<T>);
    t.live.assign(stride_, 0);
    t.delta.assign(stride_, 0);
    t.scratch.assign(4 * stride_, 0);
    t.demand.assign(m * stride_, 0);
  };
  assign_tables(wide_);
  if (narrow_ok_) assign_tables(narrow_);
  last_block_.assign(m * stride_, -1);
  now_.assign(stride_, 0);
  firings_.assign(stride_, 0);
  last_completion_.assign(stride_, 0);
  steps_.assign(stride_, 0);
  candidate_.assign(stride_, 0);
  tables_.resize(lanes_);
}

template <typename T>
void LaneThroughputSolver::init_lane(LaneTables<T>& t, std::size_t l,
                                     std::span<const i64> caps,
                                     bool track_deps, bool track_box) {
  const std::size_t n = graph_.num_actors();
  const std::size_t m = graph_.num_channels();
  BUFFY_REQUIRE(caps.size() == m,
                "candidate capacities must cover every channel");
  for (std::size_t a = 0; a < n; ++a) t.clocks[a * stride_ + l] = 0;
  for (std::size_t c = 0; c < m; ++c) {
    const i64 cap = caps[c];
    BUFFY_REQUIRE(cap >= 0, "lane candidates must be bounded");
    if (initial_tokens_[c] > cap) {
      throw GraphError("channel '" + graph_.channel(sdf::ChannelId(c)).name +
                       "' has more initial tokens than its capacity");
    }
    t.tokens[c * stride_ + l] = static_cast<T>(initial_tokens_[c]);
    t.occupied[c * stride_ + l] = static_cast<T>(initial_tokens_[c]);
    t.caps[c * stride_ + l] = static_cast<T>(cap);
    t.demand[c * stride_ + l] = static_cast<T>(initial_tokens_[c]);
    last_block_[c * stride_ + l] = -1;
  }
  now_[l] = 0;
  firings_[l] = 0;
  last_completion_[l] = 0;
  steps_[l] = 0;
  tables_[l].reset(n + m + 1);
  if (trace::enabled()) {
    i64 size = 0;
    for (const i64 cap : caps) size += cap;
    trace::emit_instant(trace::EventKind::EngineReset, size);
  }

  // Time-0 start phase — the lane-column mirror of Engine::reset's
  // start_phase, including the space-block recording order of
  // can_start_tracked (token checks veto silently; every failing space
  // check is recorded, every evaluated one raises the demand).
  i64 next_completion = kLaneNever;
  for (std::size_t a = 0; a < n; ++a) {
    bool tokens_ok = true;
    for (std::size_t p = in_begin_[a]; p < in_begin_[a + 1]; ++p) {
      if (t.tokens[in_ports_[p].channel * stride_ + l] < in_ports_[p].rate) {
        tokens_ok = false;
        break;
      }
    }
    if (!tokens_ok) continue;
    bool space_ok = true;
    for (std::size_t p = out_begin_[a]; p < out_begin_[a + 1]; ++p) {
      const LanePort& port = out_ports_[p];
      const std::size_t at = port.channel * stride_ + l;
      const i64 need = t.occupied[at] + port.rate;
      if (track_box) t.demand[at] = std::max<T>(t.demand[at], need);
      if (need > t.caps[at]) {
        space_ok = false;
        if (track_deps) {
          last_block_[at] = 0;
        } else if (!track_box) {
          break;
        }
      }
    }
    if (!space_ok) continue;
    t.clocks[a * stride_ + l] = static_cast<T>(exec_time_[a]);
    next_completion = std::min(next_completion, exec_time_[a]);
    for (std::size_t p = out_begin_[a]; p < out_begin_[a + 1]; ++p) {
      t.occupied[out_ports_[p].channel * stride_ + l] +=
          static_cast<T>(out_ports_[p].rate);
    }
  }
  // A zero execution time folds to delta 0 exactly like the scalar
  // engine's next_completion_, which declares such a start dead on
  // arrival.
  t.delta[l] =
      next_completion == kLaneNever ? T{0} : static_cast<T>(next_completion);
}

std::vector<ThroughputResult> LaneThroughputSolver::compute_batch(
    std::span<const std::vector<i64>> candidates,
    const LaneBatchOptions& opts) {
  std::vector<ThroughputResult> results(candidates.size());
  compute_batch(candidates, opts, results);
  return results;
}

void LaneThroughputSolver::compute_batch(
    std::span<const std::vector<i64>> candidates, const LaneBatchOptions& opts,
    std::span<ThroughputResult> results) {
  BUFFY_REQUIRE(results.size() == candidates.size(),
                "one result slot per candidate");
  BUFFY_REQUIRE(
      opts.target.valid() && opts.target.index() < graph_.num_actors(),
      "throughput target actor is not part of the graph");
  // Width election. The statically certified path decides per graph: a
  // batch the caller asserts is inside the certificate's budget runs
  // narrow without scanning a single capacity. Everything else falls back
  // to the per-batch election: the narrow kernel runs whenever the graph
  // qualifies and every candidate capacity fits its envelope.
  bool narrow;
  const bool statically_narrow = static_narrow_ && opts.within_certificate;
  if (statically_narrow && !audit::enabled()) {
    narrow = true;
  } else {
    narrow = narrow_ok_;
    for (const std::vector<i64>& caps : candidates) {
      if (!narrow) break;
      for (const i64 cap : caps) narrow = narrow && cap <= kNarrowLimit;
    }
    if (statically_narrow) {
      // Audit cross-check: the retired runtime gate re-runs and must
      // agree with the certificate, and every candidate must actually be
      // inside the certified budget the caller vouched for.
      audit::note_check();
      if (!narrow) {
        audit::fail("static-narrow-certificate",
                    "graph '" + graph_.name() +
                        "': certificate selected the narrow kernel but a "
                        "candidate capacity exceeds kNarrowLimit");
      }
      for (const std::vector<i64>& caps : candidates) {
        if (!certificate_->covers(caps)) {
          audit::fail("static-narrow-certificate",
                      "graph '" + graph_.name() +
                          "': batch flagged within_certificate has a "
                          "candidate outside the certified storage budget");
        }
      }
      narrow = true;
    }
  }
  if (narrow) {
    run_batch(narrow_, step32_, candidates, opts, results);
  } else {
    run_batch(wide_, step64_, candidates, opts, results);
  }
}

template <typename T>
void LaneThroughputSolver::run_batch(
    LaneTables<T>& t, LaneStepResult (*step)(const LaneKernelViewT<T>&),
    std::span<const std::vector<i64>> candidates, const LaneBatchOptions& opts,
    std::span<ThroughputResult> results) {
  const std::size_t n = graph_.num_actors();
  const std::size_t m = graph_.num_channels();
  const std::size_t state_words = n + m;
  const bool track = opts.collect_storage_deps;
  const bool track_box = opts.collect_box;

  LaneKernelViewT<T> v;
  v.num_actors = n;
  v.num_channels = m;
  v.stride = stride_;
  v.target = opts.target.index();
  v.clocks = t.clocks.data();
  v.tokens = t.tokens.data();
  v.occupied = t.occupied.data();
  v.caps = t.caps.data();
  v.last_block = track ? last_block_.data() : nullptr;
  v.demand = track_box ? t.demand.data() : nullptr;
  v.live = t.live.data();
  v.delta = t.delta.data();
  v.now = now_.data();
  v.scratch = t.scratch.data();
  v.exec_time = exec_time_.data();
  v.in_ports = in_ports_.data();
  v.in_begin = in_begin_.data();
  v.out_ports = out_ports_.data();
  v.out_begin = out_begin_.data();

  std::fill(t.live.begin(), t.live.end(), T{0});
  std::fill(t.delta.begin(), t.delta.end(), T{0});

  std::size_t next = 0;  // queue cursor into `candidates`
  std::size_t active = 0;
  u64 live_bits = 0;
  u64 batch_steps = 0;  // lockstep steps executed so far
  // Lanes advance in lockstep, so lane l has executed batch_steps -
  // steps_[l] steps (steps_ records the batch step the lane was installed
  // at). The per-step budget guard compares against a *stale* minimum
  // start — never updated on retirement, so only ever pessimistic — and a
  // trigger rescans the live lanes for a real violation.
  u64 stale_min_start = 0;

  // Copies lane l's demand row and its storage dependencies (blocked at
  // or after `window_start`) into r, when requested.
  const auto finish_tracked = [&](std::size_t l, i64 window_start,
                                  ThroughputResult& r) {
    if (track_box) {
      r.demand.resize(m);
      for (std::size_t c = 0; c < m; ++c) {
        r.demand[c] = t.demand[c * stride_ + l];
      }
    }
    if (!track) return;
    for (std::size_t c = 0; c < m; ++c) {
      if (last_block_[c * stride_ + l] >= window_start) {
        r.storage_deps.emplace_back(c);
      }
    }
  };
  const auto report_candidate = [&](std::size_t l) {
    max_table_bytes_ =
        std::max(max_table_bytes_, tables_[l].footprint_bytes());
    if (trace::enabled()) {
      i64 size = 0;
      for (const i64 cap : candidates[candidate_[l]]) size += cap;
      trace::Span span(trace::EventKind::Simulation, size);
      span.set_args(size, static_cast<i64>(tables_[l].size()));
    }
    if (opts.progress != nullptr) {
      opts.progress->add_states(tables_[l].size());
      opts.progress->add_simulations(1);
      opts.progress->note_arena_bytes(tables_[l].footprint_bytes());
    }
  };
  const auto retire_deadlock = [&](std::size_t l) {
    ThroughputResult r;
    r.deadlocked = true;
    r.throughput = Rational(0);
    r.states_stored = tables_[l].size();
    r.time_steps = now_[l];
    // A deadlocked run reports dependencies over the whole execution — a
    // firing may have been delayed by space long before the stall.
    finish_tracked(l, 0, r);
    report_candidate(l);
    results[candidate_[l]] = std::move(r);
  };
  // Installs the next queue candidate into lane l (finishing any that
  // deadlock at time 0 on the spot), or parks the lane when the queue is
  // empty. Retirement processes lanes in ascending order and the queue in
  // index order, so lane assignment — and with it every result — is
  // deterministic for a given (candidates, lane width) pair.
  const auto refill = [&](std::size_t l) {
    while (next < candidates.size()) {
      const std::size_t idx = next++;
      candidate_[l] = idx;
      init_lane(t, l, candidates[idx], track, track_box);
      steps_[l] = batch_steps;
      if (t.delta[l] != 0) {
        t.live[l] = T{-1};
        live_bits |= u64{1} << l;
        ++active;
        return;
      }
      retire_deadlock(l);
    }
    t.live[l] = 0;  // park: the queue is dry
    t.delta[l] = 0;
  };
  const auto audit_lanes = [&]() {
    for (u64 bits = live_bits; bits != 0; bits &= bits - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(bits));
      for (std::size_t c = 0; c < m; ++c) {
        audit::note_check();
        const std::string where =
            "lane " + std::to_string(l) + " channel " + std::to_string(c) +
            " (" + graph_.channel(sdf::ChannelId(c)).name + ") at t=" +
            std::to_string(now_[l]);
        const i64 tk = t.tokens[c * stride_ + l];
        const i64 oc = t.occupied[c * stride_ + l];
        if (tk < 0) {
          audit::fail("lane-tokens-nonnegative",
                      where + ": " + std::to_string(tk) + " stored tokens");
        }
        if (oc < tk) {
          audit::fail("lane-occupancy-covers-tokens",
                      where + ": occupancy " + std::to_string(oc) +
                          " < stored tokens " + std::to_string(tk));
        }
        if (oc > t.caps[c * stride_ + l]) {
          audit::fail("lane-capacity-bound",
                      where + ": occupancy " + std::to_string(oc) +
                          " exceeds capacity " +
                          std::to_string(t.caps[c * stride_ + l]));
        }
      }
    }
  };

  for (std::size_t l = 0; l < lanes_; ++l) refill(l);

  constexpr u64 kCancelPollPeriod = 1024;
  while (active > 0) {
    if (batch_steps % kCancelPollPeriod == 0 && opts.cancel.cancelled()) {
      throw exec::Cancelled();
    }
    // Per-lane step budget, spent before the advance like the scalar
    // kernel's loop bound. The cheap trigger may fire early (stale
    // minimum); the rescan throws only on a genuine violation and
    // tightens the minimum otherwise.
    if (batch_steps - stale_min_start >= opts.max_steps) {
      u64 min_start = batch_steps;
      for (u64 bits = live_bits; bits != 0; bits &= bits - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(bits));
        if (batch_steps - steps_[l] >= opts.max_steps) {
          throw Error("throughput computation exceeded max_steps = " +
                      std::to_string(opts.max_steps) + " on graph '" +
                      graph_.name() +
                      "' (unbounded token growth or a bound set too low)");
        }
        min_start = std::min(min_start, steps_[l]);
      }
      stale_min_start = min_start;
    }
    ++batch_steps;

    const LaneStepResult step_result = step(v);
    if (audit::enabled()) audit_lanes();

    // Cycle detection has first claim on a lane that both completed the
    // target and deadlocked this step — the scalar kernel's order.
    u64 dead = step_result.deadlocked & live_bits;
    for (u64 bits = step_result.target_completed & live_bits; bits != 0;
         bits &= bits - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(bits));
      ++firings_[l];
      const i64 dist = now_[l] - last_completion_[l];
      last_completion_[l] = now_[l];
      VisitedTable& table = tables_[l];
      const std::span<i64> record = table.stage();
      for (std::size_t a = 0; a < n; ++a) {
        record[a] = t.clocks[a * stride_ + l];
      }
      for (std::size_t c = 0; c < m; ++c) {
        record[n + c] = t.tokens[c * stride_ + l];
      }
      record[state_words] = dist;
      const VisitedTable::Entry* prev = table.find_or_insert(
          VisitedTable::Entry{firings_[l], now_[l], table.size()});
      if (prev == nullptr) continue;
      ThroughputResult r;
      r.firings_on_cycle = firings_[l] - prev->firing_index;
      r.period = now_[l] - prev->time;
      r.cycle_start_time = prev->time;
      r.throughput = Rational(r.firings_on_cycle, r.period);
      r.states_stored = table.size();
      r.time_steps = now_[l];
      finish_tracked(l, r.cycle_start_time, r);
      if (audit::enabled()) table.audit_verify();
      report_candidate(l);
      results[candidate_[l]] = std::move(r);
      t.live[l] = 0;
      t.delta[l] = 0;
      live_bits &= ~(u64{1} << l);
      --active;
      dead &= ~(u64{1} << l);  // superseded by the cycle result
      refill(l);
    }
    for (u64 bits = dead & live_bits; bits != 0; bits &= bits - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(bits));
      retire_deadlock(l);
      t.live[l] = 0;
      t.delta[l] = 0;
      live_bits &= ~(u64{1} << l);
      --active;
      refill(l);
    }
  }
}

std::size_t LaneThroughputSolver::table_bytes() const {
  std::size_t result = max_table_bytes_;
  for (const VisitedTable& t : tables_) {
    result = std::max(result, t.footprint_bytes());
  }
  return result;
}

}  // namespace buffy::state
