// The BUFFY_AUDIT self-audit layer (DESIGN.md §9): the mode flag and
// sampling policy, a clean end-to-end audited exploration, and — the core
// of the suite — tamper tests that corrupt one internal structure at a
// time and assert the audit catches each with a precise diagnostic.
#include <gtest/gtest.h>

#include "analysis/repetition_vector.hpp"
#include "base/audit.hpp"
#include "buffer/audit_checks.hpp"
#include "buffer/dse.hpp"
#include "buffer/throughput_cache.hpp"
#include "lp/sdf_model.hpp"
#include "models/models.hpp"
#include "service/cache_registry.hpp"
#include "service/requests.hpp"
#include "state/engine.hpp"
#include "state/throughput.hpp"
#include "state/visited_table.hpp"

namespace buffy {
namespace {

TEST(Audit, DisabledByDefaultAndScopedRestore) {
  ASSERT_FALSE(audit::enabled());
  const u64 denominator = audit::sample_denominator();
  {
    const audit::ScopedAudit audit_on(/*denominator=*/1);
    EXPECT_TRUE(audit::enabled());
    EXPECT_EQ(audit::sample_denominator(), 1u);
    EXPECT_TRUE(audit::sample(12345));  // denominator 1 samples everything
  }
  EXPECT_FALSE(audit::enabled());
  EXPECT_EQ(audit::sample_denominator(), denominator);
}

TEST(Audit, SamplingIsDeterministic) {
  audit::set_sample_denominator(8);
  for (const u64 h : {u64{0}, u64{1}, u64{0xdeadbeef}}) {
    EXPECT_EQ(audit::sample(h), audit::sample(h));
  }
  audit::set_sample_denominator(1);
  EXPECT_TRUE(audit::sample(0xdeadbeef));
  audit::set_sample_denominator(8);
}

TEST(Audit, ErrorCarriesInvariantAndDetail) {
  try {
    audit::fail("some-invariant", "the detail");
    FAIL() << "expected AuditError";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.invariant(), "some-invariant");
    EXPECT_STREQ(e.what(), "audit violation [some-invariant]: the detail");
  }
}

// --- end-to-end: a healthy exploration audits clean ---------------------

TEST(Audit, AuditedExplorationReportsNoViolations) {
  const audit::ScopedAudit audit_on(/*denominator=*/1);
  const u64 before = audit::checks_performed();
  const sdf::Graph g = models::samplerate_converter();
  buffer::DseOptions opts{.target = models::reported_actor(g)};
  const auto r = buffer::explore(g, opts);
  EXPECT_FALSE(r.pareto.empty());
  // The run actually audited something (engine invariants, table hashes,
  // sampled cache re-simulation, front ordering), not vacuously passed.
  EXPECT_GT(audit::checks_performed(), before);
}

TEST(Audit, BothEnginesAuditCleanOnPaperExample) {
  const audit::ScopedAudit audit_on(/*denominator=*/1);
  const sdf::Graph g = models::paper_example();
  for (const auto engine :
       {buffer::DseEngine::Incremental, buffer::DseEngine::Exhaustive}) {
    buffer::DseOptions opts{.target = models::reported_actor(g),
                            .engine = engine};
    EXPECT_NO_THROW((void)buffer::explore(g, opts));
  }
}

// --- tamper: engine capacity bound --------------------------------------

TEST(AuditTamper, CorruptOccupancyTriggersCapacityDiagnostic) {
  const sdf::Graph g = models::paper_example();
  std::vector<i64> caps(g.num_channels(), 10);
  state::Engine engine(g, state::Capacities::bounded(caps));
  engine.reset();
  EXPECT_NO_THROW(engine.audit_verify_invariants());
  // Forge one channel's claimed occupancy past its capacity: exactly one
  // invariant (the capacity bound, on that channel) must fire.
  engine.corrupt_occupancy_for_test(sdf::ChannelId(0), 100);
  try {
    engine.audit_verify_invariants();
    FAIL() << "expected AuditError";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.invariant(), "engine-capacity-bound");
    EXPECT_NE(std::string(e.what()).find("channel 0"), std::string::npos)
        << e.what();
  }
}

TEST(AuditTamper, NegativeOccupancyTriggersTokenCoverDiagnostic) {
  const sdf::Graph g = models::paper_example();
  std::vector<i64> caps(g.num_channels(), 10);
  state::Engine engine(g, state::Capacities::bounded(caps));
  engine.reset();
  // Forge occupancy BELOW the stored tokens: the claimed-space invariant
  // (not the capacity bound) must be the one that fires.
  engine.corrupt_occupancy_for_test(sdf::ChannelId(0), -100);
  try {
    engine.audit_verify_invariants();
    FAIL() << "expected AuditError";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.invariant(), "engine-occupancy-covers-tokens");
  }
}

// --- tamper: visited-table hash ------------------------------------------

TEST(AuditTamper, CorruptVisitedHashTriggersHashDiagnostic) {
  state::VisitedTable table;
  table.reset(/*record_words=*/3);
  for (i64 base = 0; base < 4; ++base) {
    const std::span<i64> rec = table.stage();
    rec[0] = base;
    rec[1] = base + 1;
    rec[2] = base + 2;
    ASSERT_EQ(table.find_or_insert({base, base, static_cast<u64>(base)}),
              nullptr);
  }
  EXPECT_NO_THROW(table.audit_verify());
  table.corrupt_hash_for_test(2);
  try {
    table.audit_verify();
    FAIL() << "expected AuditError";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.invariant(), "visited-table-hash");
    EXPECT_NE(std::string(e.what()).find("record 2"), std::string::npos)
        << e.what();
  }
}

// --- tamper: front memo entry ---------------------------------------------

TEST(AuditTamper, CorruptMemoEntryTriggersMemoizedFrontMismatch) {
  // A memo hit answers a repeat without an engine; the sampled audit
  // re-explores uncached and compares the front members byte for byte.
  const sdf::Graph g = models::samplerate_converter();
  const buffer::DseOptions opts{.target = models::reported_actor(g)};
  const buffer::DseResult result = buffer::explore(g, opts);
  service::JsonValue answer = service::JsonValue::object();
  service::set_front(answer, result.bounds, result.pareto);
  answer.set("distributions_explored",
             service::JsonValue::integer(
                 static_cast<i64>(result.distributions_explored)));
  service::FrontMemo memo;
  memo.store("inc", answer);

  // Healthy entry: the memoized answer matches a fresh exploration.
  const u64 before = audit::checks_performed();
  auto hit = memo.find("inc");
  ASSERT_TRUE(hit.has_value());
  EXPECT_NO_THROW(service::audit_check_memoized_front(g, opts, *hit));
  EXPECT_GT(audit::checks_performed(), before);

  // Tampered entry: the same check must report the mismatch.
  ASSERT_TRUE(memo.corrupt_for_test("inc", 1));
  hit = memo.find("inc");
  ASSERT_TRUE(hit.has_value());
  try {
    service::audit_check_memoized_front(g, opts, *hit);
    FAIL() << "expected AuditError";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.invariant(), "memoized-front");
    EXPECT_NE(std::string(e.what()).find("distributions_explored"),
              std::string::npos)
        << e.what();
  }
}

// --- tamper: equivalence box ----------------------------------------------

TEST(AuditTamper, CorruptBoxTriggersSimulationMismatch) {
  // A box hit goes through the same sampled cross-check as an exact hit:
  // healthy, the recorded outcome matches a fresh simulation of any point
  // inside the box; corrupted, the check reports the mismatch.
  const sdf::Graph g = models::paper_example();
  const sdf::ActorId target = models::reported_actor(g);
  const std::vector<i64> caps{4, 3};
  state::ThroughputOptions run_opts{.target = target};
  run_opts.collect_box = true;
  const state::ThroughputResult run = state::compute_throughput(
      g, state::Capacities::bounded(caps), run_opts);
  ASSERT_FALSE(run.deadlocked);

  buffer::ThroughputCache cache(run.throughput);
  buffer::CachedThroughput value;
  value.throughput = run.throughput;
  value.states_stored = run.states_stored;
  value.cycle_start_time = run.cycle_start_time;
  value.period = run.period;
  buffer::ThroughputCache::Delta writer = cache.make_delta();
  writer.record_box(caps, run.demand, value);
  std::vector<buffer::ThroughputCache::Delta*> deltas{&writer};
  cache.merge(deltas);

  buffer::ThroughputCache::Delta reader = cache.make_delta();
  auto hit = reader.find_box(cache.snapshot(), caps);
  ASSERT_TRUE(hit.has_value());
  EXPECT_NO_THROW(buffer::audit_check_cached_throughput(
      g, target, 100'000, {}, caps, *hit));

  ASSERT_TRUE(cache.corrupt_box_for_test(caps, Rational(1, 7)));
  hit = reader.find_box(cache.snapshot(), caps);
  ASSERT_TRUE(hit.has_value());
  try {
    buffer::audit_check_cached_throughput(g, target, 100'000, {}, caps,
                                          *hit);
    FAIL() << "expected AuditError";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.invariant(), "cache-vs-simulation");
  }
}

// --- tamper: bogus dominance witness -------------------------------------

TEST(AuditTamper, BogusMaxWitnessTriggersSimulationMismatch) {
  const sdf::Graph g = models::paper_example();
  const sdf::ActorId target = models::reported_actor(g);
  // Claim an absurd maximal throughput with a tiny witness: every
  // dominance "hit" derived from it asserts a throughput the fresh
  // simulation cannot reproduce.
  buffer::ThroughputCache cache(Rational(1));
  std::vector<i64> witness(g.num_channels(), 4);
  cache.add_max_witness(witness);
  const auto hit = cache.snapshot().find_max_dominated(witness);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->throughput, Rational(1));
  try {
    buffer::audit_check_cached_throughput(g, target, 100'000, {}, witness,
                                          *hit);
    FAIL() << "expected AuditError";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.invariant(), "cache-vs-simulation");
  }
}

// --- tamper: LP cycle-cut bound ------------------------------------------

TEST(AuditTamper, LpBoundBelowSimulationTriggersLpDiagnostic) {
  // samplerate_converter: the single-rate subgraph has a token-carrying
  // cycle, so derive() actually produces a cut to tamper against.
  const sdf::Graph g = models::samplerate_converter();
  const sdf::ActorId target = models::reported_actor(g);
  const auto cuts = lp::ThroughputCuts::derive(
      g, analysis::repetition_vector(g).counts(), target);
  ASSERT_FALSE(cuts.empty());

  // Generous capacities: the LP floors plus headroom, so the multi-rate
  // graph actually runs instead of deadlocking.
  std::vector<i64> caps = cuts.necessary_floors();
  for (i64& c : caps) c += 64;
  const state::ThroughputResult run = state::compute_throughput(
      g, state::Capacities::bounded(caps),
      state::ThroughputOptions{.target = target});
  ASSERT_FALSE(run.deadlocked);

  // Healthy: the derived bound dominates what the simulation achieved.
  EXPECT_NO_THROW(buffer::audit_check_lp_bound(g, cuts, caps, run.throughput,
                                               run.deadlocked));
  // A deadlocked run satisfies any bound (throughput is zero by fiat).
  EXPECT_NO_THROW(
      buffer::audit_check_lp_bound(g, cuts, caps, Rational(0), true));

  // Tampered: claim the simulation beat the analytic bound. The check
  // must name the invariant — this is the failure mode where an unsound
  // cut silently prunes reachable Pareto points.
  try {
    buffer::audit_check_lp_bound(g, cuts, caps, Rational(1'000'000),
                                 /*deadlocked=*/false);
    FAIL() << "expected AuditError";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.invariant(), "lp-bound-vs-simulation");
    EXPECT_NE(std::string(e.what()).find("upper bound"), std::string::npos)
        << e.what();
  }
}

// --- tamper: Pareto front ordering ---------------------------------------

TEST(AuditTamper, CorruptParetoThroughputTriggersMonotoneDiagnostic) {
  const sdf::Graph g = models::samplerate_converter();
  buffer::DseOptions opts{.target = models::reported_actor(g)};
  auto result = buffer::explore(g, opts);
  ASSERT_GE(result.pareto.size(), 2u);
  EXPECT_NO_THROW(buffer::audit_verify_monotone_front(result.pareto));
  // Drag the last point's throughput below its predecessor's: the front
  // is no longer strictly increasing and the check must name the pair.
  result.pareto.corrupt_throughput_for_test(result.pareto.size() - 1,
                                            Rational(0));
  try {
    buffer::audit_verify_monotone_front(result.pareto);
    FAIL() << "expected AuditError";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.invariant(), "pareto-monotone");
  }
}

// --- tamper: memoized graph analysis -------------------------------------

TEST(AuditTamper, CorruptMemoizedBoundTriggersMemoizedAnalysisDiagnostic) {
  const sdf::Graph g = models::paper_example();
  const sdf::ActorId target = models::reported_actor(g);
  const service::GraphKey key = service::graph_key(g, g.actor(target).name);
  service::CacheRegistry registry(/*max_graphs=*/4, /*entries_per_graph=*/0);
  (void)registry.acquire(key, g, target);  // computes and memoizes

  const audit::ScopedAudit audit_on(/*denominator=*/1);
  // Healthy memo: every hit re-derives the MCM and bounds and agrees.
  const u64 before = audit::checks_performed();
  EXPECT_NO_THROW((void)registry.acquire(key, g, target));
  EXPECT_NO_THROW((void)registry.peek(key, g, target));
  EXPECT_GT(audit::checks_performed(), before);

  // Tampered memo: both hit paths must report the corrupted bound.
  ASSERT_TRUE(registry.corrupt_analysis_for_test(key, 1));
  for (const bool via_peek : {false, true}) {
    try {
      if (via_peek) {
        (void)registry.peek(key, g, target);
      } else {
        (void)registry.acquire(key, g, target);
      }
      FAIL() << "expected AuditError";
    } catch (const audit::AuditError& e) {
      EXPECT_EQ(e.invariant(), "memoized-analysis");
      EXPECT_NE(std::string(e.what()).find("re-derived"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace buffy
