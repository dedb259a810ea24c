// The exec/ runtime: pool sanity, cancellation (explicit + deadline) and
// progress counters — plus the DSE-level guarantees built on them (a
// cancelled exploration stops within the current wave and returns only
// verified points).
#include <gtest/gtest.h>

#include <atomic>

#include "buffer/dse.hpp"
#include "exec/cancellation.hpp"
#include "exec/progress.hpp"
#include "exec/thread_pool.hpp"
#include "models/models.hpp"
#include "state/throughput.hpp"

namespace buffy::exec {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.submit([&count]() { count.fetch_add(1); });
    }
  }  // destructor drains the queues
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  bool ran = false;
  pool.submit([&ran]() { ran = true; });
  EXPECT_TRUE(ran);  // no thread to wait for: submit itself ran it
}

TEST(ThreadPool, StopIsIdempotentAndSubmitAfterStopRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> pooled{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&pooled]() { pooled.fetch_add(1); });
  }
  pool.stop();
  EXPECT_EQ(pooled.load(), 100);  // stop() drains before joining
  pool.stop();                    // second stop is a no-op

  // The shutdown window is lossless: a submit that lands after the
  // workers exited runs inline on the caller instead of being dropped.
  bool ran_inline = false;
  pool.submit([&ran_inline]() { ran_inline = true; });
  EXPECT_TRUE(ran_inline);
}

TEST(Cancellation, TokenOutlivesThePoolThatRanIt) {
  // Cancellation state is owned by the tokens, not the pool: observing or
  // cancelling a token must stay valid after the pool that executed the
  // cancelled work has been destroyed (the DSE deadline path does exactly
  // this when a caller keeps its token past explore()).
  const CancellationToken token = CancellationToken::cancellable();
  CancellationToken worker_copy;
  {
    ThreadPool pool(2);
    pool.submit([&] { worker_copy = token.with_deadline(60'000); });
    for (int i = 1; i < 8; ++i) {
      pool.submit([&] { (void)token.cancelled(); });
    }
  }  // pool drained and destroyed; token and the worker-made child must
     // still work
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(worker_copy.cancelled());  // child chains to the parent
}

TEST(Cancellation, DefaultTokenNeverCancels) {
  const CancellationToken none;
  EXPECT_FALSE(none.can_cancel());
  EXPECT_FALSE(none.cancelled());
  none.cancel();  // no-op
  EXPECT_FALSE(none.cancelled());
  EXPECT_NO_THROW(none.checkpoint());
}

TEST(Cancellation, ExplicitCancelIsSeenByCopies) {
  const CancellationToken token = CancellationToken::cancellable();
  const CancellationToken copy = token;
  EXPECT_FALSE(copy.cancelled());
  token.cancel();
  EXPECT_TRUE(copy.cancelled());
  EXPECT_THROW(copy.checkpoint(), Cancelled);
}

TEST(Cancellation, DeadlineExpires) {
  const CancellationToken token = CancellationToken{}.with_deadline(0);
  EXPECT_TRUE(token.cancelled());
  const CancellationToken later = CancellationToken{}.with_deadline(60'000);
  EXPECT_FALSE(later.cancelled());
}

TEST(Cancellation, ChildSeesParentCancellation) {
  const CancellationToken parent = CancellationToken::cancellable();
  const CancellationToken child = parent.with_deadline(60'000);
  EXPECT_FALSE(child.cancelled());
  parent.cancel();
  EXPECT_TRUE(child.cancelled());
}

TEST(Progress, CountersAccumulateAcrossThreads) {
  Progress progress;
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.submit([&] {
        progress.add_points(1);
        progress.add_states(2);
        progress.add_pruned(3);
      });
    }
  }  // destructor drains the queues
  const ProgressSnapshot snap = progress.snapshot();
  EXPECT_EQ(snap.points_explored, 1000u);
  EXPECT_EQ(snap.states_visited, 2000u);
  EXPECT_EQ(snap.pruned_by_bound, 3000u);
  EXPECT_FALSE(snap.cancelled);
  EXPECT_GE(snap.seconds, 0.0);
}

TEST(Progress, JsonHasEveryCounter) {
  Progress progress;
  progress.add_points(7);
  progress.mark_cancelled();
  const std::string json = progress.snapshot().json();
  EXPECT_NE(json.find("\"points_explored\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"states_visited\""), std::string::npos);
  EXPECT_NE(json.find("\"pruned_by_bound\""), std::string::npos);
  EXPECT_NE(json.find("\"pareto_points\""), std::string::npos);
  EXPECT_NE(json.find("\"waves\""), std::string::npos);
  EXPECT_NE(json.find("\"seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"cancelled\": true"), std::string::npos);
}

TEST(ThroughputCancellation, CancelledRunThrows) {
  const sdf::Graph g = models::h263_decoder();
  state::ThroughputOptions opts{.target = models::reported_actor(g)};
  opts.cancel = CancellationToken{}.with_deadline(0);
  std::vector<i64> caps(g.num_channels(), 600);
  EXPECT_THROW((void)state::compute_throughput(
                   g, state::Capacities::bounded(caps), opts),
               Cancelled);
}

// --- DSE-level cancellation semantics ---------------------------------

TEST(DseCancellation, PreCancelledTokenStopsWithinTheFirstWave) {
  const sdf::Graph g = models::samplerate_converter();
  buffer::DseOptions opts{.target = models::reported_actor(g)};
  opts.cancel = CancellationToken::cancellable();
  opts.cancel.cancel();
  Progress progress;
  opts.progress = &progress;
  const auto r = explore(g, opts);
  // The first wave was cut before its single candidate was evaluated:
  // nothing explored, nothing reported, and the cut is flagged.
  EXPECT_TRUE(r.cancelled);
  EXPECT_TRUE(r.pareto.empty());
  EXPECT_EQ(r.distributions_explored, 0u);
  EXPECT_TRUE(progress.snapshot().cancelled);
  EXPECT_EQ(progress.snapshot().points_explored, 0u);
}

TEST(DseCancellation, DeadlineReturnsVerifiedPartialFront) {
  // H.263 explores a dense front that takes well over the deadline even
  // under the lane kernel (~100ms on a fast host); the deadline must cut
  // it and still return only fully verified Pareto points.
  const sdf::Graph g = models::h263_decoder();
  buffer::DseOptions opts{.target = models::reported_actor(g)};
  opts.deadline_ms = 20;
  const auto r = explore(g, opts);
  EXPECT_TRUE(r.cancelled);
  for (const buffer::ParetoPoint& p : r.pareto.points()) {
    const auto run = state::compute_throughput(
        g, p.distribution.capacities(), opts.target);
    EXPECT_EQ(run.throughput, p.throughput) << p.distribution.str();
  }
}

TEST(DseCancellation, ExhaustiveDeadlineReturnsVerifiedPartialFront) {
  const sdf::Graph g = models::h263_decoder();
  buffer::DseOptions opts{.target = models::reported_actor(g),
                          .engine = buffer::DseEngine::Exhaustive};
  opts.deadline_ms = 20;
  const auto r = explore(g, opts);
  EXPECT_TRUE(r.cancelled);
  for (const buffer::ParetoPoint& p : r.pareto.points()) {
    const auto run = state::compute_throughput(
        g, p.distribution.capacities(), opts.target);
    EXPECT_EQ(run.throughput, p.throughput) << p.distribution.str();
  }
}

}  // namespace
}  // namespace buffy::exec
