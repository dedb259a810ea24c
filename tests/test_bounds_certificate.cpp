// Static magnitude certificates (DESIGN.md §16): derive_bounds must
// produce exact, independently verified envelopes for every bundled model
// and every pinned property-sweep graph; verify_certificate must reject
// every tampered field; and the certificate must be invisible in DSE
// results — fronts are byte-identical with certificates on or off, under
// BUFFY_AUDIT, which re-runs the retired narrow-kernel gate as a
// cross-check on every certified batch.
#include "analysis/bounds.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "base/audit.hpp"
#include "buffer/dse.hpp"
#include "gen/random_graph.hpp"
#include "io/dsl.hpp"
#include "models/models.hpp"
#include "oracle.hpp"
#include "sdf/builder.hpp"
#include "state/simd_backend.hpp"
#include "state/simd_kernel.hpp"

namespace buffy::analysis {
namespace {

std::vector<u64> load_seeds() {
  const std::string path = std::string(GOLDEN_DIR) + "/property_seeds.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<u64> seeds;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    seeds.push_back(static_cast<u64>(std::stoull(line)));
  }
  return seeds;
}

// Same family as tests/test_property_differential.cpp, so the sweep runs
// the certificate machinery over the identical pinned graph population.
gen::RandomGraphOptions graph_options(u64 seed) {
  gen::RandomGraphOptions opts;
  opts.num_actors = 3 + static_cast<std::size_t>(seed % 4);
  opts.max_repetition = 3;
  opts.max_execution_time = 4;
  opts.seed = seed;
  return opts;
}

std::string repro(u64 seed, const sdf::Graph& graph) {
  return "repro: seed " + std::to_string(seed) + ", graph:\n" +
         io::write_dsl(graph);
}

std::vector<models::NamedModel> all_models() {
  std::vector<models::NamedModel> all = models::table2_models();
  for (models::NamedModel& m : models::extended_models()) {
    all.push_back(std::move(m));
  }
  return all;
}

TEST(BoundsCertificate, EveryBundledModelIsExactAndVerified) {
  for (const models::NamedModel& m : all_models()) {
    const BoundsCertificate cert = derive_bounds(m.graph);
    EXPECT_TRUE(cert.consistent) << m.display_name;
    EXPECT_TRUE(cert.fits_i64) << m.display_name << ": "
                               << cert.overflow_detail;
    EXPECT_TRUE(cert.overflow_detail.empty()) << m.display_name;
    EXPECT_TRUE(cert.matches(m.graph)) << m.display_name;
    const std::vector<std::string> violations =
        verify_certificate(m.graph, cert);
    EXPECT_TRUE(violations.empty())
        << m.display_name << ": " << (violations.empty() ? "" : violations[0]);
    // The audited occupancy invariant pins peak == budget per channel.
    ASSERT_EQ(cert.channel_peak.size(), m.graph.num_channels());
    for (std::size_t c = 0; c < cert.channel_peak.size(); ++c) {
      EXPECT_EQ(cert.channel_peak[c], cert.storage_budget[c])
          << m.display_name << " channel " << c;
    }
    // The single-number gate dominates every raw magnitude it folds.
    EXPECT_GE(cert.magnitude_bound, cert.max_execution_time);
    EXPECT_GE(cert.magnitude_bound, cert.max_rate);
    EXPECT_GE(cert.magnitude_bound, cert.max_initial_tokens);
    EXPECT_GE(cert.timestamp_bound, cert.max_execution_time);
    EXPECT_GE(cert.step_sum_bound, cert.max_rate);
  }
}

TEST(BoundsCertificate, VerifierRejectsEveryTamperedField) {
  const sdf::Graph g = models::paper_example();
  const BoundsCertificate honest = derive_bounds(g);
  ASSERT_TRUE(verify_certificate(g, honest).empty());

  const auto tampered = [&](auto mutate) {
    BoundsCertificate cert = honest;
    mutate(cert);
    return verify_certificate(g, cert);
  };
  EXPECT_FALSE(tampered([](BoundsCertificate& c) { c.graph_name = "x"; })
                   .empty());
  EXPECT_FALSE(tampered([](BoundsCertificate& c) { c.num_channels += 1; })
                   .empty());
  EXPECT_FALSE(tampered([](BoundsCertificate& c) { c.repetitions[0] += 1; })
                   .empty());
  EXPECT_FALSE(tampered([](BoundsCertificate& c) { c.channel_peak[0] += 1; })
                   .empty());
  EXPECT_FALSE(
      tampered([](BoundsCertificate& c) { c.magnitude_bound -= 1; }).empty());
  EXPECT_FALSE(
      tampered([](BoundsCertificate& c) { c.step_sum_bound -= 1; }).empty());
  EXPECT_FALSE(
      tampered([](BoundsCertificate& c) { c.period_work -= 1; }).empty());
  EXPECT_FALSE(
      tampered([](BoundsCertificate& c) { c.timestamp_bound -= 1; }).empty());
  EXPECT_FALSE(
      tampered([](BoundsCertificate& c) { c.lp_coeff_bound -= 1; }).empty());
  EXPECT_FALSE(tampered([](BoundsCertificate& c) {
                 c.fits_i64 = false;
                 c.overflow_detail = "forged";
               }).empty());
}

TEST(BoundsCertificate, CoversChecksTheBudgetBox) {
  const sdf::Graph g = models::paper_example();
  const BoundsCertificate cert = derive_bounds(g);
  ASSERT_EQ(cert.storage_budget.size(), 2u);
  std::vector<i64> inside = cert.storage_budget;
  EXPECT_TRUE(cert.covers(inside));
  inside[0] -= 1;
  EXPECT_TRUE(cert.covers(inside));
  std::vector<i64> outside = cert.storage_budget;
  outside[1] += 1;
  EXPECT_FALSE(cert.covers(outside));
  EXPECT_FALSE(cert.covers(std::vector<i64>{1}));  // wrong arity
}

TEST(BoundsCertificate, ExplicitBudgetIsEchoedAndEnveloped) {
  const sdf::Graph g = models::paper_example();
  BoundsOptions opts;
  opts.storage_budget = {7, 5};
  const BoundsCertificate cert = derive_bounds(g, opts);
  EXPECT_EQ(cert.storage_budget, opts.storage_budget);
  EXPECT_EQ(cert.channel_peak, opts.storage_budget);
  EXPECT_GE(cert.magnitude_bound, 7);
  EXPECT_TRUE(verify_certificate(g, cert).empty());
}

TEST(BoundsCertificate, InconsistentGraphHasNoEnvelopes) {
  // 2*q(a) = 3*q(c) from one channel, q(a) = q(c) from the other: no
  // repetition vector, so no finite envelope holds and the certificate
  // must say so without throwing.
  sdf::GraphBuilder b("inconsistent");
  const sdf::ActorId a = b.actor("a", 1);
  const sdf::ActorId c = b.actor("c", 1);
  b.channel("x", a, 2, c, 3, 0);
  b.channel("y", c, 1, a, 1, 0);
  const sdf::Graph g = b.build();
  const BoundsCertificate cert = derive_bounds(g);
  EXPECT_FALSE(cert.consistent);
  EXPECT_FALSE(cert.fits_i64);
  EXPECT_FALSE(cert.overflow_detail.empty());
  EXPECT_TRUE(cert.repetitions.empty());
  // The verifier accepts an honest statement of inconsistency …
  EXPECT_TRUE(verify_certificate(g, cert).empty());
  // … and rejects a forged claim of consistency.
  BoundsCertificate forged = cert;
  forged.consistent = true;
  EXPECT_FALSE(verify_certificate(g, forged).empty());
}

TEST(BoundsCertificate, OversizedMagnitudesSaturateInsteadOfThrowing) {
  // A near-INT64_MAX execution time overflows the timestamp envelope
  // (max_steps * exec); derive_bounds must saturate and report, never
  // throw — admission layers depend on the no-throw contract.
  sdf::GraphBuilder b("huge");
  const sdf::ActorId a = b.actor("a", std::numeric_limits<i64>::max() / 2);
  const sdf::ActorId c = b.actor("c", 1);
  b.channel("fwd", a, 1, c, 1, 0);
  b.channel("back", c, 1, a, 1, 1);
  const sdf::Graph g = b.build();
  const BoundsCertificate cert = derive_bounds(g);
  EXPECT_TRUE(cert.consistent);
  EXPECT_FALSE(cert.fits_i64);
  EXPECT_FALSE(cert.overflow_detail.empty());
  EXPECT_EQ(cert.timestamp_bound, std::numeric_limits<i64>::max());
  EXPECT_TRUE(verify_certificate(g, cert).empty());
}

TEST(BoundsCertificate, SweepGraphsDeriveExactVerifiedCertificates) {
  for (const u64 seed : load_seeds()) {
    const sdf::Graph graph = gen::random_graph(graph_options(seed));
    const BoundsCertificate cert = derive_bounds(graph);
    ASSERT_TRUE(cert.consistent) << repro(seed, graph);
    ASSERT_TRUE(cert.fits_i64) << repro(seed, graph);
    const std::vector<std::string> violations =
        verify_certificate(graph, cert);
    ASSERT_TRUE(violations.empty())
        << repro(seed, graph) << (violations.empty() ? "" : violations[0]);
    // The small-graph family sits far inside the narrow envelope, so the
    // lane kernels run certified across the whole DSE sweep below.
    ASSERT_LE(cert.magnitude_bound, state::kNarrowLimit) << repro(seed, graph);
  }
}

// The certificate is a pure gating optimization: with BUFFY_AUDIT
// re-running the retired dynamic gate on every certified batch, both
// engines must reproduce the oracle's front byte for byte, and the
// certified runs must report static_narrow. A single audit failure (a
// batch the certificate wrongly admitted to the narrow kernel) throws and
// fails the test. The oracle runs outside the audit scope: it has no lane
// batches to cross-check.
TEST(BoundsCertificate, AuditedSweepCertifiedFrontsMatchTheOracle) {
  std::size_t narrow_runs = 0;
  for (const u64 seed : load_seeds()) {
    const sdf::Graph graph = gen::random_graph(graph_options(seed));
    const sdf::ActorId target(graph.num_actors() - 1);
    for (const buffer::DseEngine engine :
         {buffer::DseEngine::Exhaustive, buffer::DseEngine::Incremental}) {
      const buffer::DseResult oracle =
          buffer::explore(graph, testing::oracle_options(target, engine));
      buffer::DseOptions opts;
      opts.target = target;
      opts.engine = engine;
      opts.simd = state::SimdBackend::Swar;
      opts.simd_lanes = 1 + seed % state::kMaxLanes;
      const audit::ScopedAudit audit_on(/*denominator=*/16);
      const buffer::DseResult certified = buffer::explore(graph, opts);
      ASSERT_EQ(certified.pareto.str(), oracle.pareto.str())
          << repro(seed, graph) << "engine "
          << (engine == buffer::DseEngine::Exhaustive ? "exh" : "inc");
      EXPECT_FALSE(oracle.static_narrow);
      if (certified.static_narrow) ++narrow_runs;
    }
  }
  // The sweep family fits the narrow envelope (asserted above), so the
  // certified path must actually engage — a sweep that never selected
  // the narrow kernel statically would audit nothing.
  EXPECT_GT(narrow_runs, 0u);
}

}  // namespace
}  // namespace buffy::analysis
