// The oracles the differential suites compare against.
//
// oracle_options: a single-thread exploration on the scalar backend with
// the throughput cache and the LP bounds off, so every candidate is
// answered by a full state-space run of the classic solver. perfbench's
// `bench_tool oracle` answers its committed fronts with exactly these
// options.
//
// throughput_at: the throughput of one storage distribution computed
// without the state space. Each channel's capacity becomes a reverse
// channel whose tokens are the free space (DESIGN.md §2: the producer
// claims space at firing start, the consumer releases it at firing end),
// and the maximum cycle ratio of the augmented graph's HSDF expansion
// gives the self-timed throughput (paper Sec. 8).
#pragma once

#include <string>
#include <vector>

#include "analysis/max_throughput.hpp"
#include "base/diagnostics.hpp"
#include "base/rational.hpp"
#include "buffer/dse.hpp"
#include "sdf/graph.hpp"
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

/// Throughput of `target` and the deadlock verdict under one capacity
/// per channel.
struct AnalyticThroughput {
  Rational throughput;
  bool deadlocked = false;
};

/// `caps` holds one capacity per channel, each at least the channel's
/// initial tokens. The HSDF expansion has sum(q) nodes, so keep the
/// repetition vector small.
inline AnalyticThroughput throughput_at(const sdf::Graph& graph,
                                        sdf::ActorId target,
                                        const std::vector<i64>& caps) {
  BUFFY_REQUIRE(caps.size() == graph.num_channels(),
                "throughput_at needs one capacity per channel");
  sdf::Graph bounded = graph;
  for (const sdf::ChannelId id : graph.channel_ids()) {
    const sdf::Channel& c = graph.channel(id);
    const i64 cap = caps[id.index()];
    BUFFY_REQUIRE(cap >= c.initial_tokens,
                  "capacity below the channel's initial tokens");
    sdf::Channel space;
    space.name = c.name + "~space";
    space.src = c.dst;
    space.dst = c.src;
    space.production = c.consumption;
    space.consumption = c.production;
    space.initial_tokens = cap - c.initial_tokens;
    bounded.add_channel(std::move(space));
  }
  const analysis::MaxThroughput mt = analysis::max_throughput(bounded);
  return {mt.actor_throughput(target), mt.deadlock};
}

}  // namespace buffy::testing
