#include "buffer/bounds.hpp"

#include <algorithm>

#include "analysis/max_throughput.hpp"
#include "base/diagnostics.hpp"
#include "state/throughput.hpp"

namespace buffy::buffer {

i64 channel_lower_bound(const sdf::Channel& channel) {
  const i64 p = channel.production;
  const i64 c = channel.consumption;
  const i64 t = channel.initial_tokens;
  if (channel.is_self_loop()) {
    // The firing holds its c input tokens until completion while the p
    // output tokens already claim their space at the start.
    return checked_add(t, p);
  }
  const CapacityLattice lattice = channel_lattice(channel);
  const i64 classic = checked_add(
      checked_sub(checked_add(p, c), lattice.step), lattice.residue);
  return std::max(t, classic);
}

CapacityLattice channel_lattice(const sdf::Channel& channel) {
  const i64 g = gcd(channel.production, channel.consumption);
  return {.step = g, .residue = positive_mod(channel.initial_tokens, g)};
}

StorageDistribution lower_bound_distribution(const sdf::Graph& graph) {
  std::vector<i64> lb;
  lb.reserve(graph.num_channels());
  for (const sdf::ChannelId c : graph.channel_ids()) {
    lb.push_back(channel_lower_bound(graph.channel(c)));
  }
  return StorageDistribution(std::move(lb));
}

DesignSpaceBounds design_space_bounds(const sdf::Graph& graph,
                                      sdf::ActorId target, u64 max_steps,
                                      state::ThroughputSolver* solver) {
  return design_space_bounds(graph, target, analysis::max_throughput(graph),
                             max_steps, solver);
}

DesignSpaceBounds design_space_bounds(const sdf::Graph& graph,
                                      sdf::ActorId target,
                                      const analysis::MaxThroughput& mt,
                                      u64 max_steps,
                                      state::ThroughputSolver* solver) {
  DesignSpaceBounds bounds;
  bounds.per_channel_lb = lower_bound_distribution(graph);
  bounds.lb_size = bounds.per_channel_lb.size();

  if (mt.deadlock) {
    bounds.deadlock = true;
    return bounds;
  }
  bounds.max_throughput = mt.actor_throughput(target);

  // Grow capacities geometrically from the lower bounds until the bounded
  // self-timed execution reaches the MCM-derived maximal throughput; this
  // terminates because throughput is monotonic in the capacities and
  // attains the maximum for sufficiently large ones.
  std::vector<i64> caps = bounds.per_channel_lb.capacities();
  // Start no smaller than one production + one consumption worth per
  // channel to avoid many useless doubling rounds on token-heavy channels.
  for (const sdf::ChannelId cid : graph.channel_ids()) {
    const sdf::Channel& ch = graph.channel(cid);
    caps[cid.index()] = std::max(
        caps[cid.index()],
        checked_add(ch.initial_tokens, checked_add(ch.production,
                                                   ch.consumption)));
  }
  state::ThroughputOptions opts{.target = target, .max_steps = max_steps};
  opts.track_max_occupancy = true;
  for (int round = 0;; ++round) {
    BUFFY_ASSERT(round < 64, "capacity doubling did not reach max throughput");
    const auto run =
        solver != nullptr
            ? solver->compute(state::Capacities::bounded(caps), opts)
            : state::compute_throughput(graph, state::Capacities::bounded(caps),
                                        opts);
    if (!run.deadlocked && run.throughput == bounds.max_throughput) {
      // Trim to the observed occupancy: re-running with these capacities
      // reproduces the identical schedule (no start that happened is
      // blocked, and no additional start becomes possible), so the trimmed
      // distribution still attains the maximal throughput.
      bounds.max_throughput_distribution =
          StorageDistribution(run.max_occupancy);
      bounds.ub_size = bounds.max_throughput_distribution.size();
      return bounds;
    }
    for (i64& c : caps) c = checked_mul(c, 2);
  }
}

}  // namespace buffy::buffer
