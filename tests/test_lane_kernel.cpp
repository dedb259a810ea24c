// Lane-parallel throughput kernel (DESIGN.md §15): the lane solver must
// reproduce the scalar ThroughputSolver field for field on every candidate
// — throughput, deadlock flag, states stored, cycle anatomy and storage
// dependencies — at every lane width, for both the SWAR and (when the host
// has it) AVX2 backends, under every divergence pattern the retire/refill
// machinery can encounter: mixed cycle/deadlock batches, all lanes
// deadlocking at once, single-lane batches, queues much longer than the
// lane width, and candidates that deadlock at time 0 before a single step.
#include "state/lane_throughput.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "base/audit.hpp"
#include "base/diagnostics.hpp"
#include "exec/cancellation.hpp"
#include "gen/random_graph.hpp"
#include "models/models.hpp"
#include "sdf/builder.hpp"
#include "state/simd_backend.hpp"
#include "state/throughput.hpp"

namespace buffy::state {
namespace {

std::vector<SimdBackend> lane_backends() {
  std::vector<SimdBackend> backends{SimdBackend::Swar};
  if (backend_available(SimdBackend::Avx2)) {
    backends.push_back(SimdBackend::Avx2);
  }
  return backends;
}

std::string describe(const ThroughputResult& r) {
  std::string deps;
  for (const sdf::ChannelId c : r.storage_deps) {
    deps += " " + std::to_string(c.index());
  }
  std::string box;
  for (const i64 d : r.demand) box += " " + std::to_string(d);
  return "deadlocked=" + std::to_string(r.deadlocked) + " tput=" +
         r.throughput.str() + " states=" + std::to_string(r.states_stored) +
         " cycle_start=" + std::to_string(r.cycle_start_time) + " period=" +
         std::to_string(r.period) + " firings=" +
         std::to_string(r.firings_on_cycle) + " time=" +
         std::to_string(r.time_steps) + " deps=[" + deps + " ] box=[" + box +
         " ]";
}

void expect_same(const ThroughputResult& scalar, const ThroughputResult& lane,
                 const std::string& context) {
  EXPECT_EQ(describe(scalar), describe(lane)) << context;
}

// Scalar reference for a candidate list: one ThroughputSolver reused
// across the runs, exactly like the DSE engines use it.
std::vector<ThroughputResult> scalar_reference(
    const sdf::Graph& g, const std::vector<std::vector<i64>>& candidates,
    sdf::ActorId target, bool deps, bool box) {
  ThroughputSolver solver(g);
  ThroughputOptions opts{.target = target};
  opts.collect_storage_deps = deps;
  opts.collect_box = box;
  std::vector<ThroughputResult> results;
  results.reserve(candidates.size());
  for (const std::vector<i64>& caps : candidates) {
    results.push_back(solver.compute(Capacities::bounded(caps), opts));
  }
  return results;
}

void check_batch(const sdf::Graph& g,
                 const std::vector<std::vector<i64>>& candidates,
                 sdf::ActorId target, std::size_t lanes, SimdBackend backend,
                 bool deps, bool box = false) {
  const std::vector<ThroughputResult> expected =
      scalar_reference(g, candidates, target, deps, box);
  LaneThroughputSolver solver(g, lanes, backend);
  LaneBatchOptions opts{.target = target};
  opts.collect_storage_deps = deps;
  opts.collect_box = box;
  const std::vector<ThroughputResult> got =
      solver.compute_batch(candidates, opts);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same(expected[i], got[i],
                "graph=" + g.name() + " candidate=" + std::to_string(i) +
                    " lanes=" + std::to_string(lanes) + " backend=" +
                    backend_name(backend) + " deps=" + std::to_string(deps) +
                    " box=" + std::to_string(box));
  }
}

// A grid of candidates around the interesting region of the paper's
// example: includes deadlocking distributions ({3,2} and below), the Fig. 5
// staircase and over-provisioned ones, so a batch mixes every retirement
// kind.
std::vector<std::vector<i64>> paper_grid() {
  std::vector<std::vector<i64>> candidates;
  for (i64 a = 2; a <= 8; ++a) {
    for (i64 b = 2; b <= 5; ++b) {
      candidates.push_back({a, b});
    }
  }
  return candidates;
}

TEST(LaneKernel, MatchesScalarOnPaperGridEveryWidth) {
  const sdf::Graph g = models::paper_example();
  const sdf::ActorId target = *g.find_actor("c");
  for (const SimdBackend backend : lane_backends()) {
    for (const std::size_t lanes : {1u, 2u, 3u, 8u, 17u, 32u, 64u}) {
      check_batch(g, paper_grid(), target, lanes, backend, false);
      check_batch(g, paper_grid(), target, lanes, backend, true);
    }
  }
}

TEST(LaneKernel, MatchesScalarOnModem) {
  const sdf::Graph g = models::modem();
  const sdf::ActorId target = models::reported_actor(g);
  // Perturb a feasible distribution channel by channel: every candidate
  // bounded, many deadlock, the rest cycle at different times (maximal
  // divergence).
  std::vector<i64> base(g.num_channels());
  for (const sdf::ChannelId c : g.channel_ids()) {
    const sdf::Channel& ch = g.channel(c);
    base[c.index()] = ch.initial_tokens +
                      std::max(ch.production, ch.consumption);
  }
  std::vector<std::vector<i64>> candidates;
  candidates.push_back(base);
  for (std::size_t c = 0; c < base.size(); ++c) {
    std::vector<i64> caps = base;
    caps[c] += 1 + static_cast<i64>(c % 3);
    candidates.push_back(caps);
    caps[c] = g.channel(sdf::ChannelId(c)).initial_tokens;
    candidates.push_back(std::move(caps));
  }
  for (const SimdBackend backend : lane_backends()) {
    check_batch(g, candidates, target, 8, backend, true);
    check_batch(g, candidates, target, 32, backend, false);
  }
}

TEST(LaneKernel, AllLanesDeadlock) {
  const sdf::Graph g = models::paper_example();
  const sdf::ActorId target = *g.find_actor("c");
  const std::vector<std::vector<i64>> candidates(8, std::vector<i64>{3, 2});
  for (const SimdBackend backend : lane_backends()) {
    check_batch(g, candidates, target, 8, backend, true);
  }
}

TEST(LaneKernel, InstantDeadlockAtTimeZero) {
  // cap 0 on the only channel: the producer cannot claim space and the
  // consumer has no tokens — deadlock before any step. The lane must
  // retire at init and hand the lane to the next candidate.
  sdf::GraphBuilder b("t0");
  const sdf::ActorId a = b.actor("a", 1);
  const sdf::ActorId c = b.actor("c", 1);
  b.channel("ch", a, 1, c, 1, 0);
  const sdf::Graph g = b.build();
  const std::vector<std::vector<i64>> candidates{{0}, {1}, {0}, {2}};
  for (const SimdBackend backend : lane_backends()) {
    check_batch(g, candidates, c, 2, backend, true);
  }
}

TEST(LaneKernel, SingleLaneBatches) {
  const sdf::Graph g = models::paper_example();
  const sdf::ActorId target = *g.find_actor("c");
  for (const SimdBackend backend : lane_backends()) {
    check_batch(g, {{4, 2}}, target, 1, backend, true);
    check_batch(g, {{4, 2}}, target, 32, backend, true);
    check_batch(g, paper_grid(), target, 1, backend, true);
  }
}

TEST(LaneKernel, RefillOrderIsDeterministicAcrossWidths) {
  // The same candidate queue must produce the identical result array at
  // every lane width (refill pulls from the queue in index order and
  // retires lanes in ascending lane order), pinning the determinism the
  // DSE fold relies on.
  const sdf::Graph g = models::paper_example();
  const sdf::ActorId target = *g.find_actor("c");
  const std::vector<std::vector<i64>> candidates = paper_grid();
  for (const SimdBackend backend : lane_backends()) {
    LaneBatchOptions opts{.target = target};
    opts.collect_storage_deps = true;
    std::vector<std::string> reference;
    LaneThroughputSolver wide(g, 64, backend);
    for (const ThroughputResult& r : wide.compute_batch(candidates, opts)) {
      reference.push_back(describe(r));
    }
    for (const std::size_t lanes : {1u, 2u, 5u, 8u, 16u}) {
      LaneThroughputSolver solver(g, lanes, backend);
      const std::vector<ThroughputResult> got =
          solver.compute_batch(candidates, opts);
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(describe(got[i]), reference[i])
            << "lanes=" << lanes << " candidate=" << i;
      }
    }
  }
}

TEST(LaneKernel, MatchesScalarOnRandomGraphs) {
  for (const u64 seed : {7u, 23u, 77u, 1234u, 90210u}) {
    gen::RandomGraphOptions gopts;
    gopts.num_actors = 3 + seed % 4;
    gopts.max_repetition = 3;
    gopts.max_execution_time = 4;
    gopts.seed = seed;
    const sdf::Graph g = gen::random_graph(gopts);
    const sdf::ActorId target(g.num_actors() - 1);
    std::vector<std::vector<i64>> candidates;
    for (i64 bump = 0; bump < 6; ++bump) {
      std::vector<i64> caps(g.num_channels());
      for (const sdf::ChannelId c : g.channel_ids()) {
        const sdf::Channel& ch = g.channel(c);
        caps[c.index()] = ch.initial_tokens +
                          std::max(ch.production, ch.consumption) +
                          (bump + static_cast<i64>(c.index())) % 3;
      }
      candidates.push_back(std::move(caps));
    }
    for (const SimdBackend backend : lane_backends()) {
      check_batch(g, candidates, target, 8, backend, true);
      check_batch(g, candidates, target, 8, backend, false, /*box=*/true);
    }
  }
}

TEST(LaneKernel, WideGraphMagnitudesMatchScalar) {
  // Execution times above kNarrowLimit disqualify the graph from the
  // narrow i32 kernel; every batch must run on the full-range i64 tables
  // and still match the scalar solver field for field (including the
  // deadlock-at-zero retirement of the cap-0 candidate). Widths 16-64
  // cover the i64 kernel's wide strides; 70 candidates fill a 64-lane
  // batch and refill lanes from the tail.
  sdf::GraphBuilder b("wide_exec");
  const sdf::ActorId a = b.actor("a", kNarrowLimit * 4);
  const sdf::ActorId c = b.actor("c", kNarrowLimit * 2 + 123);
  b.channel("ch", a, 1, c, 1, 0);
  const sdf::Graph g = b.build();
  std::vector<std::vector<i64>> candidates;
  for (i64 cap = 0; cap < 70; ++cap) candidates.push_back({cap});
  for (const SimdBackend backend : lane_backends()) {
    for (const std::size_t lanes : {2, 8, 16, 32, 64}) {
      check_batch(g, candidates, c, lanes, backend, true);
      check_batch(g, candidates, c, lanes, backend, false);
    }
  }
}

TEST(LaneKernel, EquivalenceBoxesMatchScalarAtBothWidthsEveryStride) {
  // Each lane's demand floors (DESIGN.md §7) — and with them its blocked
  // set, the channels whose demand exceeds their capacity — must equal
  // the scalar solver's, with and without storage dependencies, on the
  // narrow i32 kernel (small magnitudes) and on the full-range i64 kernel
  // (an execution time above kNarrowLimit), at every stride 8..64.
  const sdf::Graph paper = models::paper_example();
  sdf::GraphBuilder b("wide_loop");
  const sdf::ActorId a = b.actor("a", kNarrowLimit + 5);
  const sdf::ActorId m = b.actor("m", 3);
  const sdf::ActorId c = b.actor("c", kNarrowLimit * 2 + 1);
  b.channel("am", a, 2, m, 3, 0);
  b.channel("mc", m, 1, c, 2, 0);
  b.channel("ca", c, 3, a, 1, 3);
  const sdf::Graph wide = b.build();
  std::vector<std::vector<i64>> wide_grid;
  for (i64 am = 2; am <= 6; ++am) {
    for (i64 mc = 1; mc <= 4; ++mc) {
      for (i64 ca = 3; ca <= 5; ++ca) wide_grid.push_back({am, mc, ca});
    }
  }
  for (const SimdBackend backend : lane_backends()) {
    for (const std::size_t lanes : {8u, 16u, 24u, 32u, 40u, 48u, 56u, 64u}) {
      for (const bool deps : {false, true}) {
        check_batch(paper, paper_grid(), *paper.find_actor("c"), lanes,
                    backend, deps, /*box=*/true);
        check_batch(wide, wide_grid, c, lanes, backend, deps, /*box=*/true);
      }
    }
  }
  // The boxes are not trivial: some candidate blocks on a channel.
  const std::vector<ThroughputResult> runs =
      scalar_reference(wide, wide_grid, c, false, true);
  bool blocks = false;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::size_t ch = 0; ch < wide_grid[i].size(); ++ch) {
      blocks = blocks || runs[i].demand[ch] > wide_grid[i][ch];
    }
  }
  EXPECT_TRUE(blocks);
}

TEST(LaneKernel, WideCandidateCapsFallBackPerBatch) {
  // A narrow-eligible graph runs on the wide tables whenever a batch
  // carries a capacity above the envelope, and returns to the narrow
  // tables on the next batch — same solver, identical results either way.
  // The feedback loop keeps the execution short no matter how large the
  // forward capacity is, so the huge caps only flip the width election.
  sdf::GraphBuilder b("narrow_graph");
  const sdf::ActorId a = b.actor("a", 2);
  const sdf::ActorId c = b.actor("c", 3);
  b.channel("fwd", a, 1, c, 1, 0);
  b.channel("back", c, 1, a, 1, 1);
  const sdf::Graph g = b.build();
  const sdf::ActorId target = c;
  const std::vector<std::vector<i64>> wide_batch{
      {kNarrowLimit * 2, 2}, {4, 2}, {kNarrowLimit + 1, 3}};
  const auto narrow_grid = [] {
    std::vector<std::vector<i64>> grid;
    for (i64 fwd = 0; fwd <= 3; ++fwd) {
      for (i64 back = 1; back <= 2; ++back) grid.push_back({fwd, back});
    }
    return grid;
  };
  for (const SimdBackend backend : lane_backends()) {
    LaneThroughputSolver solver(g, 8, backend);
    LaneBatchOptions opts{.target = target};
    opts.collect_storage_deps = true;
    const auto check = [&](const std::vector<std::vector<i64>>& batch,
                           const std::string& label) {
      const std::vector<ThroughputResult> expected =
          scalar_reference(g, batch, target, true, false);
      const std::vector<ThroughputResult> got =
          solver.compute_batch(batch, opts);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_same(expected[i], got[i],
                    label + " candidate=" + std::to_string(i) + " backend=" +
                        backend_name(backend));
      }
    };
    check(wide_batch, "wide");
    check(narrow_grid(), "narrow-after-wide");
    check(wide_batch, "wide-after-narrow");
  }
}

TEST(LaneKernel, MaxStepsThrowsLikeScalar) {
  const sdf::Graph g = models::paper_example();
  const sdf::ActorId target = *g.find_actor("c");
  LaneThroughputSolver solver(g, 4, SimdBackend::Swar);
  LaneBatchOptions opts{.target = target};
  opts.max_steps = 3;  // the cycle needs more than 3 completions
  const std::vector<std::vector<i64>> candidates{{7, 3}};
  EXPECT_THROW(solver.compute_batch(candidates, opts), Error);
  // The solver stays reusable after the throw.
  opts.max_steps = 100'000;
  const auto results = solver.compute_batch(candidates, opts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].throughput, Rational(1, 4));
}

TEST(LaneKernel, CancellationThrows) {
  const sdf::Graph g = models::paper_example();
  const sdf::ActorId target = *g.find_actor("c");
  LaneThroughputSolver solver(g, 4, SimdBackend::Swar);
  const exec::CancellationToken token = exec::CancellationToken::cancellable();
  token.cancel();
  LaneBatchOptions opts{.target = target};
  opts.cancel = token;
  const std::vector<std::vector<i64>> candidates{{4, 2}};
  EXPECT_THROW(solver.compute_batch(candidates, opts), exec::Cancelled);
}

TEST(LaneKernel, RejectsScalarBackendAndBadLaneCounts) {
  const sdf::Graph g = models::paper_example();
  EXPECT_THROW(LaneThroughputSolver(g, 4, SimdBackend::Scalar), Error);
  EXPECT_THROW(LaneThroughputSolver(g, 0, SimdBackend::Swar), Error);
  EXPECT_THROW(LaneThroughputSolver(g, 65, SimdBackend::Swar), Error);
}

TEST(LaneKernel, BackendResolutionAndNames) {
  EXPECT_STREQ(backend_name(SimdBackend::Swar), "swar");
  EXPECT_EQ(parse_backend("avx2"), SimdBackend::Avx2);
  EXPECT_EQ(parse_backend("bogus"), std::nullopt);
  EXPECT_TRUE(backend_available(SimdBackend::Swar));
  const SimdBackend resolved = resolve_backend(SimdBackend::Auto);
  EXPECT_TRUE(resolved == SimdBackend::Swar || resolved == SimdBackend::Avx2);
  EXPECT_EQ(default_lanes(SimdBackend::Swar), default_lanes(SimdBackend::Avx2))
      << "equal defaults keep exhaustive enumeration counters "
         "backend-independent";
  EXPECT_EQ(resolve_lanes(0, SimdBackend::Swar),
            default_lanes(SimdBackend::Swar));
  EXPECT_EQ(resolve_lanes(200, SimdBackend::Swar), kMaxLanes);
}

// The feedback pair used by the narrow-boundary tests: tiny magnitudes,
// so only the candidate capacities decide the width election, and the
// back edge keeps every execution short regardless of the forward cap.
sdf::Graph feedback_pair() {
  sdf::GraphBuilder b("narrow_boundary");
  const sdf::ActorId a = b.actor("a", 2);
  const sdf::ActorId c = b.actor("c", 3);
  b.channel("fwd", a, 1, c, 1, 0);
  b.channel("back", c, 1, a, 1, 1);
  return b.build();
}

TEST(LaneKernelNarrowBoundary, CapacityAtKNarrowLimitAndNeighbours) {
  // The dynamic gate is `cap <= kNarrowLimit`: a capacity exactly at the
  // limit still runs narrow, one above falls back to the wide tables.
  // Results must match the scalar solver at the limit, one below, one
  // above, and in a mixed batch whose lanes straddle the gate.
  const sdf::Graph g = feedback_pair();
  const sdf::ActorId target(1);
  const std::vector<std::vector<i64>> straddle{{kNarrowLimit - 1, 1},
                                               {kNarrowLimit, 1},
                                               {kNarrowLimit + 1, 1},
                                               {2, 1}};
  for (const SimdBackend backend : lane_backends()) {
    for (const std::vector<i64>& caps : straddle) {
      check_batch(g, {caps}, target, 2, backend, true);
    }
    check_batch(g, straddle, target, 2, backend, true);
    check_batch(g, straddle, target, 8, backend, false);
  }
}

TEST(LaneKernelNarrowBoundary, ExecutionTimeAtGateEdgeElectsKernel) {
  // Graph magnitudes at the gate edge: execution time == kNarrowLimit is
  // still narrow-eligible, one above is not. Certificates mirror the
  // election (static_narrow), and both widths match the scalar solver.
  for (const i64 exec : {kNarrowLimit - 1, kNarrowLimit, kNarrowLimit + 1}) {
    sdf::GraphBuilder b("edge_exec");
    const sdf::ActorId a = b.actor("a", exec);
    const sdf::ActorId c = b.actor("c", 3);
    b.channel("fwd", a, 1, c, 1, 0);
    b.channel("back", c, 1, a, 1, 1);
    const sdf::Graph g = b.build();
    const analysis::BoundsCertificate cert = analysis::derive_bounds(g);
    ASSERT_TRUE(cert.fits_i64);
    EXPECT_EQ(cert.magnitude_bound >= exec, true);
    for (const SimdBackend backend : lane_backends()) {
      LaneThroughputSolver solver(g, 4, backend, &cert);
      EXPECT_EQ(solver.static_narrow(), exec <= kNarrowLimit)
          << "exec=" << exec << " backend=" << backend_name(backend);
      check_batch(g, {{1, 1}, {2, 1}, {3, 2}}, c, 4, backend, true);
    }
  }
}

TEST(LaneKernelNarrowBoundary, CertificateSkipsGateWithIdenticalResults) {
  // A certified solver running a within_certificate batch must produce
  // exactly what the uncertified solver (dynamic gate) produces on the
  // same candidates — the certificate is a pure gating shortcut.
  const sdf::Graph g = feedback_pair();
  const sdf::ActorId target(1);
  const analysis::BoundsCertificate cert = analysis::derive_bounds(g);
  ASSERT_TRUE(cert.fits_i64);
  // Candidates inside the certified budget, in channel-index order.
  std::vector<std::vector<i64>> batch;
  for (i64 fwd = 0; fwd <= std::min<i64>(3, cert.storage_budget[0]); ++fwd) {
    batch.push_back({fwd, std::min<i64>(2, cert.storage_budget[1])});
  }
  for (const SimdBackend backend : lane_backends()) {
    LaneThroughputSolver certified(g, 4, backend, &cert);
    ASSERT_TRUE(certified.static_narrow()) << backend_name(backend);
    LaneThroughputSolver dynamic(g, 4, backend);
    EXPECT_FALSE(dynamic.static_narrow());
    LaneBatchOptions opts{.target = target};
    opts.collect_storage_deps = true;
    opts.within_certificate = true;
    const std::vector<ThroughputResult> certified_results =
        certified.compute_batch(batch, opts);
    LaneBatchOptions plain{.target = target};
    plain.collect_storage_deps = true;
    const std::vector<ThroughputResult> dynamic_results =
        dynamic.compute_batch(batch, plain);
    ASSERT_EQ(certified_results.size(), dynamic_results.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_same(dynamic_results[i], certified_results[i],
                  "certified vs dynamic, candidate " + std::to_string(i) +
                      " backend " + backend_name(backend));
    }
  }
}

TEST(LaneKernelNarrowBoundary, AuditCatchesFalseWithinCertificateClaims) {
  // BUFFY_AUDIT re-runs the retired dynamic gate against the caller's
  // within_certificate claim: a candidate outside the certified budget
  // (but still narrow-safe) and a candidate beyond kNarrowLimit must
  // both fail the `static-narrow-certificate` audit instead of running
  // on envelopes the certificate never proved.
  const sdf::Graph g = feedback_pair();
  const sdf::ActorId target(1);
  const analysis::BoundsCertificate cert = analysis::derive_bounds(g);
  LaneThroughputSolver solver(g, 4, SimdBackend::Swar, &cert);
  ASSERT_TRUE(solver.static_narrow());
  LaneBatchOptions opts{.target = target};
  opts.within_certificate = true;

  const audit::ScopedAudit audit_on(/*denominator=*/1);
  // Outside the budget box, inside the narrow envelope: only the
  // covers() cross-check can catch it.
  const std::vector<std::vector<i64>> outside_budget{
      {cert.storage_budget[0] + 1, 1}};
  EXPECT_THROW(solver.compute_batch(outside_budget, opts), audit::AuditError);
  // Beyond the narrow envelope itself: the width recheck catches it.
  const std::vector<std::vector<i64>> beyond_narrow{{kNarrowLimit + 1, 1}};
  EXPECT_THROW(solver.compute_batch(beyond_narrow, opts), audit::AuditError);
  // The same batches without the claim run fine (wide tables), audited.
  LaneBatchOptions honest{.target = target};
  EXPECT_NO_THROW(solver.compute_batch(outside_budget, honest));
  EXPECT_NO_THROW(solver.compute_batch(beyond_narrow, honest));
}

}  // namespace
}  // namespace buffy::state
