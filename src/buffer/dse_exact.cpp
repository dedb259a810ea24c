#include "buffer/dse_exact.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>

#include "base/audit.hpp"
#include "base/diagnostics.hpp"
#include "analysis/bounds.hpp"
#include "analysis/repetition_vector.hpp"
#include "buffer/audit_checks.hpp"
#include "buffer/bounds.hpp"
#include "buffer/throughput_cache.hpp"
#include "lp/sdf_model.hpp"
#include "state/lane_throughput.hpp"
#include "state/simd_kernel.hpp"
#include "state/throughput.hpp"
#include "trace/trace.hpp"

namespace buffy::buffer {

namespace {

// State of one exhaustive exploration.
struct Sweep {
  const sdf::Graph& graph;
  const DseOptions& options;
  const DesignSpaceBounds& bounds;
  std::vector<i64> lb;  // per-channel enumeration floor
  std::vector<i64> ub;  // per-channel enumeration ceiling (Fig. 7 box)
  std::vector<i64> lb_suffix;  // sum of lb over channels >= i
  std::vector<i64> ub_suffix;  // sum of ub over channels >= i
  Rational goal;               // stop improving a size beyond this
  // Names the caller in the max_distributions diagnostic (the Pareto
  // search and the tie enumeration share this machinery).
  const char* op_name = "exhaustive DSE";
  u64 explored = 0;
  u64 max_states = 0;
  u64 simulations = 0;
  u64 box_hits = 0;
  u64 dominance_skips = 0;
  u64 lp_prunes = 0;
  // The channels whose capacity lattice steps by more than 1 (DESIGN.md
  // §2). A candidate is classified, simulated and recorded at its aligned
  // floor, which runs exactly like it, so a box recorded at a floor also
  // answers the unaligned candidates above it. Empty when every step is 1:
  // each candidate is then its own floor, and no floor is copied.
  std::vector<std::pair<std::size_t, CapacityLattice>> stepped;
  std::vector<i64> floor_scratch;  // throughput_of's aligned floor
  ThroughputCache* cache = nullptr;  // null = cache disabled
  // LP cycle cuts (null = LP bounds disabled). A candidate or envelope
  // whose cut bound cannot strictly beat the incumbent is answered without
  // simulating; the visitor updates only on strict improvement, so the
  // front stays byte-identical to the unpruned scan.
  const lp::ThroughputCuts* cuts = nullptr;
  // The scalar solver, reused across every run of the exploration. Set by
  // attach_engines.
  state::ThroughputSolver* solver = nullptr;
  // Lane-parallel leaf evaluation (DESIGN.md §15): non-null when the SIMD
  // lane kernel batches the enumeration's cache-missing leaves. Envelope
  // probes and slice seeds stay scalar — they are evaluated at the moment
  // their value gates the traversal. The solver carries a magnitude
  // certificate whose storage budget is the enumeration box itself
  // (sweep.ub after widening) — every enumerated candidate is inside it
  // by construction, so lane batches skip the dynamic narrow-kernel gate
  // (DESIGN.md §16).
  state::LaneThroughputSolver* lanes = nullptr;

  // Read view of the shared cache for the current slice, plus the
  // outcomes this exploration learned inside it (merged in end_slice).
  std::optional<ThroughputCache::Snapshot> snap;
  std::optional<ThroughputCache::Delta> delta;

  // Slice boundaries: snapshot before, merge after.
  void begin_slice() {
    if (cache != nullptr) snap.emplace(cache->snapshot());
  }
  void end_slice() {
    if (cache == nullptr) return;
    if (!delta->empty()) {
      ThroughputCache::Delta* const deltas[] = {&*delta};
      cache->merge(deltas);
    }
    delta->clear();
  }

  // The aligned floor of `caps`: `caps` itself when no channel steps by
  // more than 1, else written to `out`.
  [[nodiscard]] const std::vector<i64>& floor_of(const std::vector<i64>& caps,
                                                 std::vector<i64>& out) const {
    if (stepped.empty()) return caps;
    out.assign(caps.begin(), caps.end());
    for (const auto& [c, lattice] : stepped) out[c] = lattice.floor(caps[c]);
    return out;
  }

  // Books `candidate` against the exploration budget and tries to answer
  // it from the cache at `key`, its aligned floor: an earlier run's
  // equivalence box first, then the Sec. 8 max rule. Returns the answer,
  // or nullopt when the floor needs a simulation. Every simulated floor
  // lies in its own box, so the boxes also answer exact repeats; a
  // deadlocked candidate is answered by a box or simulated.
  [[nodiscard]] std::optional<Rational> classify(
      const CapsKey& key, const std::vector<i64>& candidate) {
    if (++explored > options.max_distributions) {
      throw Error(std::string(op_name) + " exceeded max_distributions = " +
                  std::to_string(options.max_distributions));
    }
    if (cache != nullptr) {
      // The snapshot covers everything merged before this slice; the
      // delta covers what this exploration has learned inside it —
      // including its own witnesses, so the scan sees exactly the
      // hit/miss pattern of merging each candidate on its own.
      std::optional<CachedThroughput> hit = delta->find_box(*snap, key);
      const bool boxed = hit.has_value();
      if (!hit.has_value()) hit = snap->find_max_dominated(key);
      if (!hit.has_value()) hit = delta->find_max_dominated(key);
      if (hit.has_value()) {
        if (trace::enabled()) {
          i64 size = 0;
          for (const i64 c : candidate) size += c;
          trace::emit_instant(boxed ? trace::EventKind::BoxHit
                                    : trace::EventKind::DominanceSkip,
                              size);
        }
        ++(boxed ? box_hits : dominance_skips);
        if (options.progress != nullptr) {
          options.progress->add_points(1);
          options.progress->add_sims_avoided(1);
          if (boxed) {
            options.progress->add_box_hits(1);
          } else {
            options.progress->add_dominance_skips(1);
          }
        }
        // Audit mode re-simulates a deterministic sample of hits at the
        // candidate as enumerated, not its floor: box hits re-verify the
        // replay argument and the floor equivalence, dominance answers the
        // Sec. 8 monotonicity, all end-to-end (DESIGN.md §9).
        if (audit::enabled() && audit::sample(key.hash())) {
          audit_check_cached_throughput(graph, options.target,
                                        options.max_steps_per_run, {},
                                        candidate, *hit);
        }
        return hit->throughput;
      }
    }
    return std::nullopt;
  }

  // Books one fresh simulation outcome shared by the scalar and lane
  // paths: peak-state fold, cache box record, LP-bound audit sample.
  void absorb_run(const CapsKey& key, const state::ThroughputResult& run) {
    ++simulations;
    // The same deterministic sample cross-checks the LP cycle-cut bound
    // against the fresh simulation (DESIGN.md §9, §13): a bound below
    // reality would have let lp_rules_out discard a reachable point.
    if (cuts != nullptr && audit::enabled() && audit::sample(key.hash())) {
      audit_check_lp_bound(graph, *cuts, key.caps(), run.throughput,
                           run.deadlocked);
    }
    max_states = std::max(max_states, run.states_stored);
    if (cache != nullptr) {
      CachedThroughput value;
      value.throughput = run.throughput;
      value.deadlocked = run.deadlocked;
      value.states_stored = run.states_stored;
      value.cycle_start_time = run.cycle_start_time;
      value.period = run.period;
      delta->record_box(key, run.demand, value);
    }
    if (options.progress != nullptr) options.progress->add_points(1);
  }

  // Scalar simulation of one cache-missing candidate.
  [[nodiscard]] Rational simulate_one(const CapsKey& key) {
    state::ThroughputOptions run_opts{.target = options.target,
                                      .max_steps =
                                          options.max_steps_per_run};
    run_opts.cancel = options.cancel;
    run_opts.progress = options.progress;
    run_opts.collect_box = cache != nullptr;
    const state::ThroughputResult run =
        solver->compute(state::Capacities::bounded(key.caps()), run_opts);
    absorb_run(key, run);
    return run.throughput;
  }

  // Simulates a group of cache-missing candidates as one lockstep lane
  // batch; results land index-for-index.
  [[nodiscard]] std::vector<state::ThroughputResult> simulate_lanes(
      std::span<const CapsKey> keys) {
    std::vector<std::vector<i64>> caps;
    caps.reserve(keys.size());
    for (const CapsKey& key : keys) caps.push_back(key.caps());
    state::LaneBatchOptions run_opts{.target = options.target,
                                     .max_steps = options.max_steps_per_run};
    run_opts.cancel = options.cancel;
    run_opts.progress = options.progress;
    run_opts.within_certificate = true;
    run_opts.collect_box = cache != nullptr;
    std::vector<state::ThroughputResult> runs =
        lanes->compute_batch(caps, run_opts);
    for (std::size_t k = 0; k < keys.size(); ++k) {
      absorb_run(keys[k], runs[k]);
    }
    return runs;
  }

  // The scalar evaluation used by envelope probes and slice seeds (and by
  // every leaf when the lane kernel is off), taken at the aligned floor.
  [[nodiscard]] Rational throughput_of(const std::vector<i64>& caps) {
    const CapsKey key(floor_of(caps, floor_scratch));
    if (const std::optional<Rational> hit = classify(key, caps)) {
      return *hit;
    }
    return simulate_one(key);
  }

  // Books one LP-answered skip (a leaf candidate or an envelope probe that
  // never had to simulate). `size` is the candidate's distribution size.
  void note_lp_prune(i64 size) {
    ++lp_prunes;
    if (trace::enabled()) {
      trace::emit_instant(trace::EventKind::LpPrune, size);
    }
    if (options.progress != nullptr) {
      options.progress->add_lp_prunes(1);
      options.progress->add_sims_avoided(1);
    }
  }

  // True when the cut bound proves no completion at `caps` can strictly
  // beat `incumbent` (or reach it, when `strict`).
  [[nodiscard]] bool lp_rules_out(const std::vector<i64>& caps,
                                  const Rational& incumbent, bool strict,
                                  i64 size) {
    if (cuts == nullptr ||
        !cuts->bounds_below(caps, incumbent, strict)) {
      return false;
    }
    note_lp_prune(size);
    return true;
  }
};

/// Maximal throughput over all distributions of exactly the given size
/// within the box, plus a witness distribution. Early-exits at the goal.
struct SizeOutcome {
  Rational throughput;  // quantised
  StorageDistribution witness;
};

// Lex-ordered leaf queue of the lane path (DESIGN.md §15): every
// surviving leaf — cache-answered or simulation-pending — is queued in
// enumeration order, and once a lane batch's worth accumulated the
// pending ones are simulated in lockstep and the whole queue is folded
// in that same order. Folding in arrival order is what keeps the
// (throughput, witness) outcome — and with it the front — byte-identical
// to the scalar scan; the enumeration may classify up to a queue's worth
// of extra leaves past the sequential stopping point, booked in
// distributions_explored. A leaf is classified and simulated at its
// aligned floor and folded as enumerated. The entries are reused from
// one batch to the next, so a queued leaf allocates nothing.
class LeafQueue {
 public:
  explicit LeafQueue(Sweep& sweep)
      : sweep_(sweep), width_(sweep.lanes->lanes()) {}

  // Queues one leaf; flushes when the queue reaches the lane width.
  // Returns false once the fold requested a stop.
  template <typename Visit>
  [[nodiscard]] bool leaf(const std::vector<i64>& caps, Visit&& visit) {
    if (used_ == entries_.size()) entries_.emplace_back();
    Entry& e = entries_[used_++];
    e.caps.assign(caps.begin(), caps.end());
    const CapsKey key(sweep_.floor_of(e.caps, e.floor));
    e.hash = key.hash();
    e.tput = sweep_.classify(key, e.caps);
    if (!e.tput.has_value()) pending_.push_back(used_ - 1);
    if (used_ < width_) return true;
    return flush(visit);
  }

  // Simulates the pending leaves as one lane batch and folds the queue in
  // arrival order. Call once more after the enumeration for the tail.
  template <typename Visit>
  [[nodiscard]] bool flush(Visit&& visit) {
    if (used_ == 0) return true;
    if (!pending_.empty()) {
      std::vector<CapsKey> keys;
      keys.reserve(pending_.size());
      for (const std::size_t k : pending_) {
        const Entry& e = entries_[k];
        keys.emplace_back(sweep_.stepped.empty() ? e.caps : e.floor, e.hash);
      }
      const std::vector<state::ThroughputResult> runs =
          sweep_.simulate_lanes(keys);
      for (std::size_t k = 0; k < pending_.size(); ++k) {
        entries_[pending_[k]].tput = runs[k].throughput;
      }
    }
    bool keep = true;
    for (std::size_t k = 0; k < used_ && keep; ++k) {
      // Past a stop the sequential scan would not have got here: discard.
      keep = visit(entries_[k].caps, quantize_down(*entries_[k].tput,
                                                   sweep_.options.quantization));
    }
    used_ = 0;
    pending_.clear();
    return keep;
  }

 private:
  struct Entry {
    std::vector<i64> caps;   // the leaf as enumerated
    std::vector<i64> floor;  // its aligned floor (unused when no channel steps)
    u64 hash = 0;  // hash_words of the floor, carried to the batch's records
    std::optional<Rational> tput;
  };

  Sweep& sweep_;
  std::size_t width_;
  std::vector<Entry> entries_;  // the first used_ are queued
  std::size_t used_ = 0;
  std::vector<std::size_t> pending_;
};

// The pointwise upper envelope of every completion of the node
// (channel, remaining): channel c >= `channel` can hold at most
// min(ub[c], remaining - floors of the other open channels). Each valid
// completion is componentwise <= this vector, so by Sec. 8 monotonicity
// its throughput bounds every completion's from above — the engine of
// the branch-and-bound cuts below.
std::vector<i64> envelope_caps(const Sweep& sweep, const std::vector<i64>& caps,
                               std::size_t channel, i64 remaining) {
  const std::size_t m = sweep.lb.size();
  std::vector<i64> env(caps.begin(), caps.end());
  const i64 open_floor = sweep.lb_suffix[channel];
  for (std::size_t c = channel; c < m; ++c) {
    env[c] = std::min(sweep.ub[c], remaining - (open_floor - sweep.lb[c]));
  }
  return env;
}

Rational envelope_throughput(Sweep& sweep, const std::vector<i64>& env) {
  return quantize_down(sweep.throughput_of(env),
                       sweep.options.quantization);
}

// Shared subtree cut: LP cuts first (no simulation), envelope probe
// second. The LP bound dominates the envelope's exact throughput, so an
// LP-answered prune cuts exactly subtrees the probe would also have cut —
// the traversal (and therefore the front) is unchanged, only cheaper.
template <typename Incumbent>
bool subtree_pruned(Sweep& sweep, const std::vector<i64>& caps,
                    std::size_t channel,
                    i64 remaining, const Incumbent& incumbent, bool strict) {
  const std::vector<i64> env = envelope_caps(sweep, caps, channel, remaining);
  i64 env_size = 0;
  for (const i64 c : env) env_size += c;
  if (sweep.lp_rules_out(env, incumbent, strict, env_size)) return true;
  const Rational tput = envelope_throughput(sweep, env);
  return strict ? tput < incumbent : tput <= incumbent;
}

// Visits every distribution of the requested total inside the box, in
// lexicographic capacity order; `leaf(caps)` evaluates one candidate
// (directly, or via a LeafQueue on the lane path) and returns false to
// abort the sweep. `prune(caps, channel, remaining)` may return true to
// skip a whole subtree; `skip_leaf(caps)` may return true to answer a
// single candidate without simulating it. Either may only fire when no
// skipped candidate can change the outcome. `caps[0..channel)` must
// already hold the fixed prefix.
template <typename Leaf, typename Pruner, typename SkipLeaf>
bool enumerate(Sweep& sweep, std::vector<i64>& caps, std::size_t channel,
               i64 remaining,
               Leaf&& leaf, Pruner&& prune, SkipLeaf&& skip_leaf) {
  const std::size_t m = sweep.lb.size();
  if (channel == m) {
    BUFFY_ASSERT(remaining == 0, "enumeration budget mismatch");
    if (skip_leaf(caps)) return true;
    return leaf(caps);
  }
  if (remaining < sweep.lb_suffix[channel] ||
      remaining > sweep.ub_suffix[channel]) {
    return true;  // no completion fits the budget
  }
  // Probe the envelope only where a subtree is worth cutting: at least
  // two open channels and a few tokens of slack, otherwise the probe
  // costs as much as the handful of leaves it could save.
  if (channel + 2 <= m && remaining - sweep.lb_suffix[channel] >= 3 &&
      prune(caps, channel, remaining)) {
    return true;
  }
  // Budget window for this channel so the suffix can still hit `remaining`.
  const i64 rest_lb = sweep.lb_suffix[channel + 1];
  const i64 rest_ub = sweep.ub_suffix[channel + 1];
  const i64 lo = std::max(sweep.lb[channel], remaining - rest_ub);
  const i64 hi = std::min(sweep.ub[channel], remaining - rest_lb);
  for (i64 cap = lo; cap <= hi; ++cap) {
    caps[channel] = cap;
    if (!enumerate(sweep, caps, channel + 1, remaining - cap, leaf, prune,
                   skip_leaf)) {
      return false;
    }
  }
  return true;
}

// Builds the enumerate() leaf evaluator for one scan: scalar when no lane
// solver is wired (classify + simulate one candidate inline), lane-queued
// otherwise. `run(fold)` performs the enumeration with the chosen leaf
// and flushes the queue's tail, so both paths fold every surviving leaf
// in the same lexicographic order.
template <typename Fold, typename Enumerate>
void scan_leaves(Sweep& sweep, Fold&& fold, Enumerate&& run) {
  if (sweep.lanes == nullptr) {
    run([&](const std::vector<i64>& caps) {
      return fold(caps, quantize_down(sweep.throughput_of(caps),
                                      sweep.options.quantization));
    });
    return;
  }
  LeafQueue queue(sweep);
  run([&](const std::vector<i64>& caps) { return queue.leaf(caps, fold); });
  (void)queue.flush(fold);
}

// The maximal throughput of one size: scan in lexicographic order, keep
// the first distribution that strictly improves, stop at the slice goal.
// `seed` (optional) must be a distribution of exactly `size` inside the
// box; its throughput floors the slice (theta* is monotone in the size)
// and arms the branch-and-bound cut from the first node: subtrees whose
// envelope cannot strictly beat the incumbent are skipped wholesale —
// sound by monotonicity, and outcome-identical to the plain scan because
// skipped subtrees contain no improving candidate. `slice_goal` is a
// known unreachable-to-exceed ceiling for this slice — the global goal,
// tightened to theta*(hi) of the enclosing divide-and-conquer interval —
// so reaching it ends the scan with the exact slice maximum.
SizeOutcome max_throughput_for_size(Sweep& sweep, i64 size,
                                    const std::vector<i64>* seed,
                                    const Rational& slice_goal) {
  const trace::Span size_span(trace::EventKind::SizeEval, size);
  sweep.begin_slice();
  SizeOutcome best{Rational(0), StorageDistribution()};
  if (seed != nullptr) {
    best.throughput = quantize_down(sweep.throughput_of(*seed),
                                    sweep.options.quantization);
    best.witness = StorageDistribution(*seed);
  }
  if (best.witness.num_channels() == 0 || best.throughput < slice_goal) {
    std::vector<i64> caps(sweep.lb.size(), 0);
    scan_leaves(
        sweep,
        [&](const std::vector<i64>& found, const Rational& tput) {
          if (best.witness.num_channels() == 0 || tput > best.throughput) {
            best.throughput = tput;
            best.witness = StorageDistribution(found);
          }
          return best.throughput < slice_goal;  // stop at the slice goal
        },
        [&](auto&& leaf) {
          enumerate(
              sweep, caps, 0, size, leaf,
              [&](const std::vector<i64>& prefix, std::size_t channel,
                  i64 remaining) {
                return best.witness.num_channels() != 0 &&
                       subtree_pruned(sweep, prefix, channel, remaining,
                                      best.throughput, /*strict=*/false);
              },
              // LP leaf cut: a candidate whose cut bound cannot strictly
              // beat the incumbent would never have updated `best` — skip
              // its simulation.
              [&](const std::vector<i64>& candidate) {
                return best.witness.num_channels() != 0 &&
                       sweep.lp_rules_out(candidate, best.throughput,
                                          /*strict=*/false, size);
              });
        });
  }
  sweep.end_slice();
  BUFFY_ASSERT(best.witness.num_channels() != 0,
               "no distribution of the requested size inside the box");
  return best;
}

// Builds the enumeration box shared by explore_exhaustive and
// equivalent_minimal_distributions.
void init_box(Sweep& sweep) {
  const std::size_t m = sweep.graph.num_channels();
  for (const sdf::ChannelId c : sweep.graph.channel_ids()) {
    const CapacityLattice lattice = channel_lattice(sweep.graph.channel(c));
    if (lattice.step > 1) sweep.stepped.emplace_back(c.index(), lattice);
  }
  sweep.lb = constrained_floor(sweep.options, sweep.bounds);
  const auto ceiling = constrained_ceiling(sweep.options, m);
  sweep.ub.resize(m);
  for (std::size_t c = 0; c < m; ++c) {
    sweep.ub[c] = std::max(sweep.lb[c],
                           sweep.bounds.max_throughput_distribution[c]);
    if (ceiling[c].has_value()) {
      sweep.ub[c] = std::max(sweep.lb[c], std::min(sweep.ub[c], *ceiling[c]));
    }
  }
  sweep.lb_suffix.assign(m + 1, 0);
  sweep.ub_suffix.assign(m + 1, 0);
  for (std::size_t c = m; c-- > 0;) {
    sweep.lb_suffix[c] = checked_add(sweep.lb_suffix[c + 1], sweep.lb[c]);
    sweep.ub_suffix[c] = checked_add(sweep.ub_suffix[c + 1], sweep.ub[c]);
  }
}

// The exploration's global goal: the maximal throughput quantised down to
// the grid, lowered to any explicit throughput goal.
Rational global_goal(const DseOptions& options,
                     const DesignSpaceBounds& bounds) {
  Rational goal = quantize_down(bounds.max_throughput, options.quantization);
  if (options.throughput_goal.has_value() &&
      *options.throughput_goal < goal) {
    goal = *options.throughput_goal;
  }
  return goal;
}

// The meaningful size interval of the divide and conquer. Sizes beyond the
// max-throughput distribution's cannot improve anything (Sec. 8), so the
// interval is [lb, sz(mtd)] — unless user constraints reshape the box, in
// which case the whole (pre-widening) box is covered.
struct SizeInterval {
  i64 lo = 0;
  i64 hi = 0;
};

SizeInterval size_interval(const Sweep& sweep) {
  SizeInterval sizes;
  sizes.lo = sweep.lb_suffix[0];
  sizes.hi = sweep.options.channel_constraints.empty()
                 ? std::max(sweep.bounds.ub_size, sizes.lo)
                 : sweep.ub_suffix[0];
  if (sweep.options.max_distribution_size.has_value()) {
    sizes.hi = std::min(sizes.hi, *sweep.options.max_distribution_size);
  }
  return sizes;
}

// Completeness of the per-size slices: a minimal distribution may exceed
// the max-throughput distribution on individual channels (one big buffer
// traded for a smaller total), so clamping each channel to the Fig. 7
// witness would miss genuine Pareto points. Widen every channel so any
// composition of `target_size` above the floors is reachable, honouring
// only the user's explicit ceilings, and rebuild the suffix sums. The
// budget window in enumerate() keeps the per-size work finite.
void widen_box_to(Sweep& sweep, i64 target_size) {
  const std::size_t m = sweep.lb.size();
  const auto ceiling = constrained_ceiling(sweep.options, m);
  const i64 lb_total = sweep.lb_suffix[0];
  for (std::size_t c = 0; c < m; ++c) {
    i64 widened =
        std::max(sweep.ub[c], target_size - (lb_total - sweep.lb[c]));
    if (ceiling[c].has_value()) widened = std::min(widened, *ceiling[c]);
    sweep.ub[c] = std::max(sweep.lb[c], widened);
  }
  for (std::size_t c = m; c-- > 0;) {
    sweep.ub_suffix[c] = checked_add(sweep.ub_suffix[c + 1], sweep.ub[c]);
  }
}

// Pads a witness from a smaller slice up to `size` by topping channels up
// toward their ceilings left to right; the result is a valid distribution
// of the target size whose throughput floors the slice.
std::vector<i64> pad_caps(const std::vector<i64>& ub,
                          const std::vector<i64>& witness, i64 size) {
  std::vector<i64> caps = witness;
  i64 extra = size;
  for (const i64 c : caps) extra -= c;
  for (std::size_t c = 0; c < caps.size() && extra > 0; ++c) {
    const i64 add = std::min(ub[c] - caps[c], extra);
    caps[c] += add;
    extra -= add;
  }
  BUFFY_ASSERT(extra == 0, "padded distribution does not fit the box");
  return caps;
}

// Owning storage for the engines a sweep borrows (LP cuts, cache, scalar
// solver, lane solver + magnitude certificate).
struct SweepEngines {
  std::optional<lp::ThroughputCuts> cuts;
  std::optional<ThroughputCache> cache;
  std::optional<state::ThroughputSolver> solver;
  std::optional<analysis::BoundsCertificate> cert;
  std::optional<state::LaneThroughputSolver> lanes;
  bool static_narrow = false;
};

// Wires the engines into the sweep. Call only once the enumeration box is
// final (after widen_box_to): the magnitude certificate's storage budget
// is sweep.ub itself, so lane batches carry the within-certificate
// assertion and the narrow kernel is selected once per graph instead of
// per batch (DESIGN.md §16).
void attach_engines(Sweep& sweep, SweepEngines& eng) {
  const DseOptions& options = sweep.options;
  if (options.use_lp_bounds) {
    eng.cuts.emplace(lp::ThroughputCuts::derive(
        sweep.graph, analysis::repetition_vector(sweep.graph).counts(),
        options.target));
    if (!eng.cuts->empty()) sweep.cuts = &*eng.cuts;
  }
  // The exhaustive engine never applies a processor binding, so Sec. 8
  // monotonicity holds and the max rule is sound.
  if (options.use_throughput_cache) {
    if (options.shared_cache != nullptr) {
      BUFFY_REQUIRE(
          options.shared_cache->max_throughput() ==
              sweep.bounds.max_throughput,
          "shared throughput cache was built for a different graph/target "
          "(maximal throughput mismatch)");
      sweep.cache = options.shared_cache;
    } else {
      eng.cache.emplace(sweep.bounds.max_throughput, options.cache_capacity);
      sweep.cache = &*eng.cache;
    }
    // The Fig. 7 max-throughput distribution is a known witness before the
    // first candidate runs: anything pointwise above it attains the
    // maximal throughput. (Re-seeding a shared cache is a no-op: the
    // witness antichain deduplicates.)
    sweep.cache->add_max_witness(
        sweep.bounds.max_throughput_distribution.capacities());
  }
  sweep.solver = &eng.solver.emplace(sweep.graph);
  const state::SimdBackend lane_backend = state::resolve_backend(options.simd);
  if (lane_backend != state::SimdBackend::Scalar) {
    analysis::BoundsOptions cert_opts;
    cert_opts.max_steps = options.max_steps_per_run;
    cert_opts.storage_budget = sweep.ub;
    eng.cert = analysis::derive_bounds(sweep.graph, cert_opts);
    eng.static_narrow = eng.cert->fits_i64 &&
                        eng.cert->magnitude_bound <= state::kNarrowLimit;
    sweep.lanes = &eng.lanes.emplace(
        sweep.graph, state::resolve_lanes(options.simd_lanes, lane_backend),
        lane_backend, &*eng.cert);
  }
  if (sweep.cache != nullptr) sweep.delta.emplace(sweep.cache->make_delta());
}

}  // namespace

DseResult explore_exhaustive(const sdf::Graph& graph, const DseOptions& options,
                             const DesignSpaceBounds& bounds) {
  const auto t0 = std::chrono::steady_clock::now();
  trace::Span explore_span(trace::EventKind::Exploration, /*engine=*/0,
                           static_cast<i64>(graph.num_channels()));
  DseResult result;
  result.bounds = bounds;

  Sweep sweep{.graph = graph, .options = options, .bounds = bounds};
  init_box(sweep);
  sweep.goal = global_goal(options, bounds);
  const SizeInterval sizes = size_interval(sweep);
  const i64 lo_size = sizes.lo;
  const i64 hi_size = sizes.hi;
  widen_box_to(sweep, hi_size);
  SweepEngines eng;
  attach_engines(sweep, eng);
  result.static_narrow = eng.static_narrow;
  result.backend = state::resolve_backend(options.simd);

  // Divide and conquer over the size dimension (Sec. 9): throughput is
  // monotonic in the size, so an interval whose endpoints agree contains no
  // further Pareto points. Sizes fully evaluated before a deadline fires
  // are genuine (size, max throughput) points, so a cancelled exploration
  // still returns a verified partial front.
  std::map<i64, SizeOutcome> evaluated;
  const auto pad_to = [&](const StorageDistribution& witness, i64 size) {
    return pad_caps(sweep.ub, witness.capacities(), size);
  };
  const auto eval = [&](i64 size, const std::vector<i64>* seed,
                        const Rational& slice_goal) -> const SizeOutcome& {
    auto it = evaluated.find(size);
    if (it == evaluated.end()) {
      it = evaluated
               .emplace(size,
                        max_throughput_for_size(sweep, size, seed, slice_goal))
               .first;
    }
    return it->second;
  };
  const auto prune_interval = [&](i64 lo, i64 hi) {
    if (options.progress != nullptr && hi - lo > 1) {
      options.progress->add_pruned(static_cast<u64>(hi - lo - 1));
    }
  };

  if (hi_size >= lo_size) {
    try {
      eval(lo_size, nullptr, sweep.goal);
      // The max-throughput distribution itself seeds the top slice when it
      // fits (no user constraints reshaping the box, no size cap below
      // it): its throughput is the global goal, so the slice resolves
      // without a scan.
      std::optional<std::vector<i64>> top_seed;
      if (options.channel_constraints.empty() &&
          bounds.ub_size <= hi_size) {
        top_seed = pad_to(bounds.max_throughput_distribution, hi_size);
      }
      eval(hi_size, top_seed.has_value() ? &*top_seed : nullptr, sweep.goal);
      // Explicit work list of (lo, hi) intervals with both endpoints known.
      std::vector<std::pair<i64, i64>> intervals{{lo_size, hi_size}};
      while (!intervals.empty()) {
        const auto [lo, hi] = intervals.back();
        intervals.pop_back();
        if (hi - lo <= 1) continue;
        if (evaluated.at(lo).throughput == evaluated.at(hi).throughput ||
            evaluated.at(lo).throughput >= sweep.goal) {
          prune_interval(lo, hi);
          continue;
        }
        const i64 mid = lo + (hi - lo) / 2;
        // Seed the mid slice with the lo witness padded up to `mid`
        // (theta* is monotone in the size, so it floors the slice), and
        // stop the scan at theta*(hi) (nothing below `hi` can exceed it).
        const std::vector<i64> seed = pad_to(evaluated.at(lo).witness, mid);
        eval(mid, &seed,
             std::min(sweep.goal, evaluated.at(hi).throughput));
        intervals.emplace_back(lo, mid);
        intervals.emplace_back(mid, hi);
      }
    } catch (const exec::Cancelled&) {
      result.cancelled = true;  // keep the completed sizes
    }
    for (const auto& [size, outcome] : evaluated) {
      const std::size_t before = result.pareto.size();
      result.pareto.add(
          ParetoPoint{outcome.witness, outcome.throughput});
      // Sizes are visited in increasing order with monotone throughput,
      // so a growing set means the point was genuinely kept.
      if (trace::enabled() && result.pareto.size() > before) {
        trace::emit_pareto_point(outcome.witness.size(),
                                 outcome.throughput.to_double());
      }
    }
  }

  result.distributions_explored = sweep.explored;
  result.max_states_stored = sweep.max_states;
  result.simulations_run = sweep.simulations;
  result.box_hits = sweep.box_hits;
  result.dominance_skips = sweep.dominance_skips;
  result.lp_prunes = sweep.lp_prunes;
  result.lp_cuts = eng.cuts.has_value() ? eng.cuts->size() : 0;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

SlicePlan exhaustive_slice_plan(const sdf::Graph& graph,
                                const DseOptions& options,
                                const DesignSpaceBounds& bounds) {
  Sweep sweep{.graph = graph, .options = options, .bounds = bounds};
  init_box(sweep);
  SlicePlan plan;
  plan.goal = global_goal(options, bounds);
  const SizeInterval sizes = size_interval(sweep);
  plan.lo_size = sizes.lo;
  plan.hi_size = sizes.hi;
  widen_box_to(sweep, sizes.hi);
  plan.box_lb = sweep.lb;
  plan.box_ub = sweep.ub;
  // The max-throughput distribution itself seeds the top slice when it
  // fits (no user constraints reshaping the box, no size cap below it):
  // its throughput is the global goal, so the slice resolves without a
  // scan.
  if (options.channel_constraints.empty() && bounds.ub_size <= sizes.hi) {
    plan.top_seed = pad_caps(
        sweep.ub, bounds.max_throughput_distribution.capacities(), sizes.hi);
  }
  return plan;
}

std::vector<i64> pad_to_size(const SlicePlan& plan,
                             const std::vector<i64>& witness, i64 size) {
  return pad_caps(plan.box_ub, witness, size);
}

SliceOutcome explore_size_slice(const sdf::Graph& graph,
                                const DseOptions& options,
                                const DesignSpaceBounds& bounds,
                                const SliceRequest& request) {
  BUFFY_REQUIRE(options.threads == 1,
                "DseOptions::threads must be 1: an exploration runs on one "
                "thread");
  Sweep sweep{.graph = graph, .options = options, .bounds = bounds};
  sweep.op_name = "slice evaluation";
  init_box(sweep);
  sweep.goal = global_goal(options, bounds);
  const SizeInterval sizes = size_interval(sweep);
  widen_box_to(sweep, sizes.hi);
  if (request.size < sweep.lb_suffix[0] ||
      request.size > sweep.ub_suffix[0]) {
    throw Error("explore_size_slice: size " + std::to_string(request.size) +
                " lies outside the enumeration box [" +
                std::to_string(sweep.lb_suffix[0]) + ", " +
                std::to_string(sweep.ub_suffix[0]) + "]");
  }
  if (request.seed.has_value()) {
    if (request.seed->size() != graph.num_channels()) {
      throw Error("explore_size_slice: seed must have one capacity per "
                  "channel");
    }
    i64 total = 0;
    for (std::size_t c = 0; c < request.seed->size(); ++c) {
      const i64 cap = (*request.seed)[c];
      if (cap < sweep.lb[c] || cap > sweep.ub[c]) {
        throw Error("explore_size_slice: seed leaves the enumeration box "
                    "on channel " +
                    std::to_string(c));
      }
      total = checked_add(total, cap);
    }
    if (total != request.size) {
      throw Error("explore_size_slice: seed is not a distribution of the "
                  "requested size");
    }
  }
  SweepEngines eng;
  attach_engines(sweep, eng);
  // The router hands the d&c's slice goal; min with the global goal keeps
  // a malformed request from pushing the scan past it.
  const Rational slice_goal = std::min(sweep.goal, request.slice_goal);
  SizeOutcome best = max_throughput_for_size(
      sweep, request.size,
      request.seed.has_value() ? &*request.seed : nullptr, slice_goal);
  SliceOutcome out;
  out.throughput = best.throughput;
  out.witness = std::move(best.witness);
  out.distributions_explored = sweep.explored;
  out.max_states_stored = sweep.max_states;
  out.simulations_run = sweep.simulations;
  out.box_hits = sweep.box_hits;
  out.dominance_skips = sweep.dominance_skips;
  out.lp_prunes = sweep.lp_prunes;
  out.lp_cuts = eng.cuts.has_value() ? eng.cuts->size() : 0;
  out.static_narrow = eng.static_narrow;
  return out;
}

std::vector<StorageDistribution> equivalent_minimal_distributions(
    const sdf::Graph& graph, const DseOptions& options, i64 size,
    const Rational& min_throughput) {
  const DesignSpaceBounds bounds =
      design_space_bounds(graph, options.target, options.max_steps_per_run);
  std::vector<StorageDistribution> found;
  if (bounds.deadlock) return found;

  Sweep sweep{.graph = graph, .options = options, .bounds = bounds};
  sweep.op_name = "tie enumeration";  // names the operation in diagnostics
  init_box(sweep);
  sweep.goal = bounds.max_throughput + Rational(1);  // never early-exit

  // Unlike the Pareto search, tie enumeration must see shapes outside the
  // Fig. 7 box (e.g. Fig. 6's <1,2,3,3> puts 3 tokens where the
  // max-throughput distribution needs fewer): widen to `size` itself.
  widen_box_to(sweep, size);
  if (size < sweep.lb_suffix[0] || size > sweep.ub_suffix[0]) return found;

  SweepEngines eng;
  attach_engines(sweep, eng);
  sweep.begin_slice();
  std::vector<i64> caps(sweep.lb.size(), 0);
  scan_leaves(
      sweep,
      [&](const std::vector<i64>& candidate, const Rational& tput) {
        if (tput >= min_throughput) {
          found.emplace_back(candidate);
        }
        return true;
      },
      [&](auto&& leaf) {
        enumerate(
            sweep, caps, 0, size, leaf,
            // A subtree whose envelope falls short of the tie threshold
            // holds no qualifying distribution (monotonicity) — cut it
            // wholesale.
            [&](const std::vector<i64>& prefix, std::size_t channel,
                i64 remaining) {
              return subtree_pruned(sweep, prefix, channel, remaining,
                                    min_throughput, /*strict=*/true);
            },
            // A candidate provably below the tie threshold never qualifies.
            [&](const std::vector<i64>& candidate) {
              return sweep.lp_rules_out(candidate, min_throughput,
                                        /*strict=*/true, size);
            });
      });
  sweep.end_slice();
  return found;
}

}  // namespace buffy::buffer
