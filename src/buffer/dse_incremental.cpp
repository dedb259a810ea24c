#include "buffer/dse_incremental.hpp"

#include <algorithm>
#include <chrono>
#include <span>

#include "analysis/bounds.hpp"
#include "analysis/repetition_vector.hpp"
#include "base/audit.hpp"
#include "base/diagnostics.hpp"
#include "base/hash.hpp"
#include "buffer/audit_checks.hpp"
#include "buffer/bounds.hpp"
#include "lp/sdf_model.hpp"
#include "buffer/throughput_cache.hpp"
#include "state/engine.hpp"
#include "state/lane_throughput.hpp"
#include "state/simd_kernel.hpp"
#include "state/throughput.hpp"
#include "trace/trace.hpp"

namespace buffy::buffer {

std::vector<sdf::ChannelId> storage_dependencies(
    const sdf::Graph& graph, const state::Capacities& capacities,
    i64 cycle_start, i64 period,
    const std::vector<std::size_t>& processor_of) {
  state::Engine engine(graph, capacities);
  engine.set_binding(processor_of);
  engine.reset();
  std::vector<bool> blocked(graph.num_channels(), false);
  std::vector<sdf::ChannelId> scratch;  // reused across every sample
  auto absorb = [&]() {
    engine.space_blocked_channels(scratch);
    for (const sdf::ChannelId c : scratch) {
      blocked[c.index()] = true;
    }
  };
  if (period == 0) {
    // Deadlocked execution: collect dependencies over the whole run — a
    // firing may have been delayed by space long before the final stall.
    absorb();
    while (engine.advance()) absorb();
    absorb();
  } else {
    // The states of the periodic phase are those in [cycle_start,
    // cycle_start + period); between completions the blocked set is
    // constant, so sampling at every completion inside the window covers
    // every state on the cycle.
    while (engine.now() < cycle_start) {
      BUFFY_ASSERT(engine.advance(), "deadlock before the reported cycle");
    }
    absorb();
    while (engine.now() < cycle_start + period) {
      BUFFY_ASSERT(engine.advance(), "deadlock inside the reported cycle");
      absorb();
    }
  }
  std::vector<sdf::ChannelId> result;
  for (std::size_t c = 0; c < blocked.size(); ++c) {
    if (blocked[c]) result.emplace_back(c);
  }
  return result;
}

namespace {

// The climb's reached distributions, each stored once as a row of one flat
// arena. `slots_` indexes the rows by their words (open addressing with
// linear probing; 0 = empty, else row + 1), so a distribution is reached
// at most once, and `frontier_` is a min-heap of the rows still to
// evaluate in the deterministic (size, capacities) order, so runs are
// reproducible across platforms. No row owns an allocation: freeing the
// climb costs a few frees however many distributions it reached.
class Climb {
 public:
  explicit Climb(std::size_t width) : width_(width), slots_(64, 0) {}

  /// Reaches `caps` (total `size`; must not point into the arena): it
  /// joins the frontier unless it was reached before.
  void reach(std::span<const i64> caps, i64 size) {
    const u64 hash = hash_words(caps);
    const std::size_t slot = find_slot(caps, hash);
    if (slots_[slot] != 0) return;
    const std::size_t r = sizes_.size();
    rows_.insert(rows_.end(), caps.begin(), caps.end());
    sizes_.push_back(size);
    hashes_.push_back(hash);
    slots_[slot] = r + 1;
    if (2 * sizes_.size() > slots_.size()) grow();
    frontier_.push_back(r);
    std::ranges::push_heap(frontier_, Later{this});
  }

  [[nodiscard]] bool done() const { return frontier_.empty(); }
  /// The size of the next row to evaluate (the frontier is not empty).
  [[nodiscard]] i64 next_size() const { return sizes_[frontier_.front()]; }
  /// Takes the next row off the frontier; valid until the next reach().
  std::span<const i64> pop() {
    std::ranges::pop_heap(frontier_, Later{this});
    const std::size_t r = frontier_.back();
    frontier_.pop_back();
    return row(r);
  }

 private:
  [[nodiscard]] std::span<const i64> row(std::size_t r) const {
    return {rows_.data() + r * width_, width_};
  }
  /// The slot holding `caps`, else the empty slot where it belongs.
  [[nodiscard]] std::size_t find_slot(std::span<const i64> caps,
                                      u64 hash) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = static_cast<std::size_t>(hash) & mask;
    while (slots_[slot] != 0) {
      const std::size_t r = slots_[slot] - 1;
      if (hashes_[r] == hash && std::ranges::equal(row(r), caps)) break;
      slot = (slot + 1) & mask;
    }
    return slot;
  }
  /// The heap order: row a is evaluated after row b.
  struct Later {
    const Climb* climb;
    bool operator()(std::size_t a, std::size_t b) const {
      const std::vector<i64>& sizes = climb->sizes_;
      if (sizes[a] != sizes[b]) return sizes[a] > sizes[b];
      return std::ranges::lexicographical_compare(climb->row(b),
                                                  climb->row(a));
    }
  };
  void grow() {
    slots_.assign(slots_.size() * 2, 0);
    for (std::size_t r = 0; r < sizes_.size(); ++r) {
      slots_[find_slot(row(r), hashes_[r])] = r + 1;
    }
  }

  std::size_t width_;
  std::vector<i64> rows_;     // row r is [r * width_, (r + 1) * width_)
  std::vector<i64> sizes_;    // per row
  std::vector<u64> hashes_;   // per row: hash_words of the row
  std::vector<std::size_t> slots_;  // power-of-two open-addressing table
  std::vector<std::size_t> frontier_;
};

// The whole climb; every container it built is freed on return.
DseResult climb(const sdf::Graph& graph, const DseOptions& options,
                const DesignSpaceBounds& bounds) {
  DseResult result;
  result.bounds = bounds;

  Rational goal = bounds.max_throughput;
  if (options.throughput_goal.has_value() &&
      *options.throughput_goal < goal) {
    goal = *options.throughput_goal;
  }
  // With quantisation, reaching the top grid cell is as good as reaching the
  // maximum: exploring further cannot produce a new quantised Pareto point.
  const Rational quantized_goal = quantize_down(goal, options.quantization);

  // Throughput cache. The climb reaches each distribution once, so it
  // never repeats a candidate; the cache contributes the seeded
  // max-throughput witness (Sec. 8 dominance — sound only without a
  // binding) and collects this climb's maximal outcomes as witnesses for
  // later explorations that share it.
  std::optional<ThroughputCache> own_cache;
  ThroughputCache* cache = nullptr;
  if (options.use_throughput_cache) {
    if (options.shared_cache != nullptr) {
      BUFFY_REQUIRE(options.binding.empty(),
                    "shared_cache requires an unbound exploration: cached "
                    "values are binding-free simulation outcomes");
      BUFFY_REQUIRE(
          options.shared_cache->max_throughput() == bounds.max_throughput,
          "shared throughput cache was built for a different graph/target "
          "(maximal throughput mismatch)");
      cache = options.shared_cache;
    } else {
      own_cache.emplace(bounds.max_throughput, options.cache_capacity);
      cache = &*own_cache;
    }
    cache->add_max_witness(bounds.max_throughput_distribution.capacities());
  }
  // One solver (engine + warmed visited arena) for the whole exploration.
  state::ThroughputSolver solver(graph);
  // Lane-parallel candidate evaluation (DESIGN.md §15): the wave's
  // cache-missing candidates are packed into lane batches and stepped in
  // lockstep by the SIMD kernel. Per-candidate results are field-for-field
  // identical to the scalar solver's, so the fold below — and with it the
  // Pareto front and every counter — is byte-identical to the scalar path.
  // A processor binding forces the scalar path: the lane kernel simulates
  // unbound execution only.
  const state::SimdBackend lane_backend = state::resolve_backend(options.simd);
  const bool lane_eval = lane_backend != state::SimdBackend::Scalar &&
                         options.binding.empty();
  result.backend = lane_eval ? lane_backend : state::SimdBackend::Scalar;
  const std::size_t lane_width =
      state::resolve_lanes(options.simd_lanes, lane_backend);
  std::optional<state::LaneThroughputSolver> lanes;
  u64 simulations = 0;
  u64 dominance_skips = 0;

  Climb frontier(graph.num_channels());

  const auto ceiling = constrained_ceiling(options, graph.num_channels());
  std::vector<CapacityLattice> lattices;
  lattices.reserve(graph.num_channels());
  for (const sdf::ChannelId c : graph.channel_ids()) {
    lattices.push_back(channel_lattice(graph.channel(c)));
  }
  std::vector<i64> floor_caps = constrained_floor(options, bounds);
  // Kept alive past the warm start for the sampled LP-bound-vs-simulation
  // audit inside the evaluation waves (DESIGN.md §9).
  std::optional<lp::ThroughputCuts> cuts;
  if (options.use_lp_bounds) {
    // LP warm start (DESIGN.md §13): single-backward-edge cycle cuts yield
    // per-channel capacities every distribution with non-zero target
    // throughput must meet, independently of the other channels. Lifting
    // the climb's starting point to them skips candidates that could only
    // ever deadlock; zero-throughput candidates never become Pareto
    // points, so the reported front is unchanged. User ceilings still
    // win: a channel capped below its LP floor is left at the cap (the
    // classic constraint handling reports such boxes).
    cuts.emplace(lp::ThroughputCuts::derive(
        graph, analysis::repetition_vector(graph).counts(), options.target));
    result.lp_cuts = cuts->size();
    const std::vector<i64>& lp_floors = cuts->necessary_floors();
    for (std::size_t c = 0; c < floor_caps.size(); ++c) {
      i64 lifted = std::max(floor_caps[c], lp_floors[c]);
      if (ceiling[c].has_value()) lifted = std::min(lifted, *ceiling[c]);
      if (lifted > floor_caps[c]) {
        result.lp_prunes += static_cast<u64>(lifted - floor_caps[c]);
        floor_caps[c] = lifted;
      }
    }
    if (result.lp_prunes > 0) {
      if (trace::enabled()) {
        i64 size = 0;
        for (const i64 cap : floor_caps) size += cap;
        trace::emit_instant(trace::EventKind::LpPrune, size);
      }
      if (options.progress != nullptr) {
        options.progress->add_lp_prunes(result.lp_prunes);
      }
    }
  }
  const StorageDistribution lb(floor_caps);
  if (!options.max_distribution_size.has_value() ||
      lb.size() <= *options.max_distribution_size) {
    frontier.reach(lb.capacities(), lb.size());
  }

  // Static magnitude certificate (DESIGN.md §16): a uniform per-channel
  // budget of `cert_budget_size` tokens covers every candidate whose
  // total size stays within it — capacities are non-negative, so no
  // single channel of a size-S distribution can exceed S. The climb pops
  // waves in ascending size, so one comparison per wave decides whether
  // the whole wave is inside the certified envelope (and may skip the
  // per-candidate narrow-kernel gate); waves beyond it simply fall back
  // to the dynamic gate. The envelope is sized to the design-space upper
  // bound, which the climb does not normally exceed before reaching its
  // throughput goal.
  std::optional<analysis::BoundsCertificate> cert;
  i64 cert_budget_size = 0;
  if (lane_eval) {
    cert_budget_size = std::max(bounds.ub_size, lb.size());
    analysis::BoundsOptions cert_opts;
    cert_opts.max_steps = options.max_steps_per_run;
    cert_opts.storage_budget.assign(graph.num_channels(), cert_budget_size);
    cert = analysis::derive_bounds(graph, cert_opts);
    result.static_narrow =
        cert->fits_i64 && cert->magnitude_bound <= state::kNarrowLimit;
    lanes.emplace(graph, lane_width, lane_backend, &*cert);
  }

  Rational best_seen(0);
  bool goal_reached = false;
  std::vector<i64> child;  // reused for every child reached
  while (!frontier.done() && !goal_reached) {
    // One batch: every frontier entry of the current minimal size. The
    // sequential algorithm would pop exactly these, in this order, before
    // any of their (strictly larger) children.
    const i64 batch_size = frontier.next_size();
    std::vector<std::vector<i64>> batch;
    while (!frontier.done() && frontier.next_size() == batch_size) {
      const std::span<const i64> caps = frontier.pop();
      batch.emplace_back(caps.begin(), caps.end());
    }
    if (result.distributions_explored + batch.size() >
        options.max_distributions) {
      throw Error("incremental DSE exceeded max_distributions = " +
                  std::to_string(options.max_distributions));
    }

    // Evaluate the batch (throughput + storage dependencies per
    // distribution). A cancellation (deadline or external token) leaves
    // the remaining items unevaluated — the wave stops "from within".
    struct Evaluation {
      state::ThroughputResult run;
      std::vector<sdf::ChannelId> deps;
      bool valid = false;
    };
    std::vector<Evaluation> evals(batch.size());
    // Each candidate is hashed once here; its key serves the dominance
    // scan, the witness feed and the audit sample.
    std::vector<CapsKey> keys;
    keys.reserve(batch.size());
    for (const std::vector<i64>& caps : batch) keys.emplace_back(caps);
    // The wave scans the witnesses as of its start (a lock-free copy).
    // Only the cache's witnesses can answer: a candidate is dominated by
    // no other candidate of its own wave, which all have its size.
    std::optional<ThroughputCache::Snapshot> snap;
    if (cache != nullptr) snap.emplace(cache->snapshot());
    // Max-dominance lookup for one candidate; true when answered (the
    // evaluation is then already recorded in evals[i]). The hit needs no
    // dependencies: the maximal throughput reaches the goal, so the fold
    // stops before this candidate's children would be expanded. Dominance
    // is consulted only without a binding (scheduling anomalies break the
    // Sec. 8 monotonicity it relies on).
    const auto try_cache = [&](std::size_t i) {
      if (cache == nullptr || !options.binding.empty()) return false;
      const std::optional<CachedThroughput> hit =
          snap->find_max_dominated(keys[i]);
      if (!hit.has_value()) return false;
      trace::emit_instant(trace::EventKind::DominanceSkip, batch_size);
      evals[i].run.throughput = hit->throughput;
      evals[i].run.deadlocked = hit->deadlocked;
      evals[i].run.states_stored = hit->states_stored;
      evals[i].run.cycle_start_time = hit->cycle_start_time;
      evals[i].run.period = hit->period;
      evals[i].valid = true;
      ++dominance_skips;
      if (options.progress != nullptr) {
        options.progress->add_points(1);
        options.progress->add_sims_avoided(1);
        options.progress->add_dominance_skips(1);
      }
      // Audit mode re-simulates a deterministic sample of hits,
      // re-verifying the Sec. 8 monotonicity end-to-end (DESIGN.md §9).
      if (audit::enabled() && audit::sample(keys[i].hash())) {
        audit_check_cached_throughput(graph, options.target,
                                      options.max_steps_per_run,
                                      options.binding, batch[i], *hit);
      }
      return true;
    };
    // Books one freshly simulated outcome: witness feed, LP-bound audit
    // sample, progress. Shared by the scalar and lane paths.
    const auto absorb_simulated = [&](std::size_t i) {
      if (cache != nullptr) {
        CachedThroughput value;
        value.throughput = evals[i].run.throughput;
        value.deadlocked = evals[i].run.deadlocked;
        cache->feed_witnesses(keys[i], value);
      }
      // Same deterministic sample as the cache check: the LP cycle-cut
      // bound must sit at or above the fresh simulation (DESIGN.md §13).
      if (cuts.has_value() && audit::enabled() &&
          audit::sample(keys[i].hash())) {
        audit_check_lp_bound(graph, *cuts, batch[i], evals[i].run.throughput,
                             evals[i].run.deadlocked);
      }
      evals[i].valid = true;
      if (options.progress != nullptr) options.progress->add_points(1);
    };
    const auto evaluate = [&](std::size_t i) {
      if (options.cancel.cancelled()) return;  // skip: wave is being cut
      if (try_cache(i)) return;
      const state::Capacities capacities =
          state::Capacities::bounded(batch[i]);
      state::ThroughputOptions run_opts{
          .target = options.target, .max_steps = options.max_steps_per_run};
      run_opts.processor_of = options.binding;
      run_opts.cancel = options.cancel;
      run_opts.progress = options.progress;
      // The throughput run itself collects the storage dependencies: one
      // simulation per candidate, no dedicated dependency re-run.
      run_opts.collect_storage_deps = true;
      try {
        evals[i].run = solver.compute(capacities, run_opts);
        evals[i].deps = std::move(evals[i].run.storage_deps);
        ++simulations;
        if (options.progress != nullptr) {
          options.progress->add_sims_avoided(1);  // the fused dep re-run
        }
      } catch (const exec::Cancelled&) {
        return;  // mid-run cut: a partial state space proves nothing
      }
      absorb_simulated(i);
    };
    // Lane path: one group covers `lane_width` consecutive batch entries.
    // Cache answers stay per-candidate; the group's misses go through the
    // lane solver as one lockstep batch, retiring and refilling lanes as
    // individual candidates finish. A mid-batch
    // cancellation voids the whole group (evals stay invalid), which only
    // shortens the valid prefix the fold below accepts.
    const auto evaluate_group = [&](std::size_t g) {
      if (options.cancel.cancelled()) return;  // skip: wave is being cut
      const std::size_t begin = g * lane_width;
      const std::size_t end = std::min(batch.size(), begin + lane_width);
      std::vector<std::size_t> miss;
      std::vector<std::vector<i64>> miss_caps;
      for (std::size_t i = begin; i < end; ++i) {
        if (!try_cache(i)) {
          miss.push_back(i);
          miss_caps.push_back(batch[i]);
        }
      }
      if (miss.empty()) return;
      state::LaneBatchOptions run_opts{
          .target = options.target, .max_steps = options.max_steps_per_run};
      run_opts.collect_storage_deps = true;
      run_opts.cancel = options.cancel;
      run_opts.progress = options.progress;
      // Same-size wave: every candidate totals batch_size tokens, so the
      // wave is inside the certified budget iff its size is.
      run_opts.within_certificate = batch_size <= cert_budget_size;
      std::vector<state::ThroughputResult> runs;
      try {
        runs = lanes->compute_batch(miss_caps, run_opts);
      } catch (const exec::Cancelled&) {
        return;  // mid-batch cut: partial state spaces prove nothing
      }
      for (std::size_t k = 0; k < miss.size(); ++k) {
        const std::size_t i = miss[k];
        evals[i].run = std::move(runs[k]);
        evals[i].deps = std::move(evals[i].run.storage_deps);
        ++simulations;
        if (options.progress != nullptr) {
          options.progress->add_sims_avoided(1);  // the fused dep re-run
        }
        absorb_simulated(i);
      }
    };
    {
      const trace::Span wave_span(trace::EventKind::Wave,
                                  static_cast<i64>(batch.size()), batch_size);
      if (lane_eval) {
        const std::size_t groups =
            (batch.size() + lane_width - 1) / lane_width;
        for (std::size_t g = 0; g < groups; ++g) evaluate_group(g);
      } else {
        for (std::size_t i = 0; i < batch.size(); ++i) evaluate(i);
      }
    }
    if (options.progress != nullptr) options.progress->add_wave();

    // Fold sequentially in the deterministic pop order. Only the valid
    // prefix is folded: an unevaluated (cancelled) item and everything
    // after it are discarded, so every emitted point is fully verified.
    for (std::size_t i = 0; i < batch.size() && !goal_reached; ++i) {
      if (!evals[i].valid) {
        result.cancelled = true;
        break;
      }
      ++result.distributions_explored;
      const auto& caps = batch[i];
      const auto& run = evals[i].run;
      result.max_states_stored =
          std::max(result.max_states_stored, run.states_stored);

      const Rational quantized =
          quantize_down(run.throughput, options.quantization);
      if (quantized > best_seen) {
        // Processed in size order, so this is the smallest size reaching
        // this (quantised) throughput.
        result.pareto.add(ParetoPoint{StorageDistribution(caps), quantized});
        if (trace::enabled()) {
          trace::emit_pareto_point(batch_size, quantized.to_double());
        }
        best_seen = quantized;
      }
      if (!run.throughput.is_zero() && run.throughput >= goal) {
        goal_reached = true;
        break;
      }
      if (options.quantization.has_value() && !quantized.is_zero() &&
          quantized >= quantized_goal) {
        goal_reached = true;
        break;
      }

      // No space dependency anywhere in the run: larger buffers reproduce
      // the identical execution, so this branch is exhausted. (Without a
      // resource binding this only happens at the maximal throughput.)
      // A dependency channel steps to its next aligned capacity: every
      // capacity below that runs like the current one (DESIGN.md §2).
      for (const sdf::ChannelId c : evals[i].deps) {
        const i64 bumped = lattices[c.index()].next(caps[c.index()]);
        if (ceiling[c.index()].has_value() &&
            bumped > *ceiling[c.index()]) {
          // This memory is full (distributed-memory constraint).
          if (options.progress != nullptr) options.progress->add_pruned(1);
          continue;
        }
        const i64 child_size = batch_size + (bumped - caps[c.index()]);
        if (options.max_distribution_size.has_value() &&
            child_size > *options.max_distribution_size) {
          if (options.progress != nullptr) options.progress->add_pruned(1);
          continue;
        }
        child = caps;
        child[c.index()] = bumped;
        frontier.reach(child, child_size);
      }
    }
    if (result.cancelled) break;
  }

  result.simulations_run = simulations;
  result.dominance_skips = dominance_skips;
  return result;
}

}  // namespace

DseResult explore_incremental(const sdf::Graph& graph,
                              const DseOptions& options,
                              const DesignSpaceBounds& bounds) {
  const auto t0 = std::chrono::steady_clock::now();
  const trace::Span explore_span(trace::EventKind::Exploration, /*engine=*/1,
                                 static_cast<i64>(graph.num_channels()));
  DseResult result = climb(graph, options, bounds);
  // Stamped after the climb's teardown, which is part of the run.
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace buffy::buffer
