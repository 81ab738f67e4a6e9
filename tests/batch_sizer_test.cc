// Copyright (c) hdc authors. Apache-2.0 license.
//
// Latency-aware adaptive batch sizing (core/batch_sizer.h): the
// grow/shrink/back-off rules as exact unit tests, and the CrawlContext
// integration — auto rounds against a latency-feedback server follow the
// sizer, auto rounds against an in-process server keep the deterministic
// PR 3 rule. All timing runs on a FakeClock: every decision is asserted
// exactly, nothing sleeps.
#include "core/batch_sizer.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "core/crawl_context.h"
#include "core/rank_shrink.h"
#include "server/decorators.h"
#include "server/local_server.h"
#include "util/clock.h"

namespace hdc {
namespace {

using std::chrono::duration_cast;
using std::chrono::duration;
using std::chrono::nanoseconds;

AdaptiveBatchOptions Options(double target = 0.2) {
  AdaptiveBatchOptions options;
  options.target_round_seconds = target;
  options.congestion_fraction = 0.5;
  options.max_round = 64;
  return options;
}

TEST(AdaptiveBatchSizerTest, StartsAtDeclaredParallelism) {
  EXPECT_EQ(AdaptiveBatchSizer(Options(), 4).limit(), 4u);
  EXPECT_EQ(AdaptiveBatchSizer(Options(), 0).limit(), 1u)
      << "parallelism is clamped to >= 1";
  AdaptiveBatchOptions small = Options();
  small.max_round = 2;
  EXPECT_EQ(AdaptiveBatchSizer(small, 8).limit(), 2u)
      << "the ceiling applies from the start";
}

TEST(AdaptiveBatchSizerTest, FastFullRoundsDoubleUpToTheCeiling) {
  AdaptiveBatchSizer sizer(Options(/*target=*/0.2), 4);
  // Full rounds well under target/2 keep doubling: 4 -> 8 -> 16 -> 32 -> 64.
  for (size_t expected : {8u, 16u, 32u, 64u}) {
    sizer.RecordRound(sizer.limit(), /*rtt=*/0.05, /*wait_total=*/0);
    EXPECT_EQ(sizer.limit(), expected);
  }
  // At the ceiling, further fast rounds change nothing.
  sizer.RecordRound(64, 0.05, 0);
  EXPECT_EQ(sizer.limit(), 64u);
  EXPECT_EQ(sizer.grow_events(), 4u);
}

TEST(AdaptiveBatchSizerTest, PartialRoundsNeverGrowTheLimit) {
  AdaptiveBatchSizer sizer(Options(0.2), 4);
  sizer.RecordRound(/*round_size=*/2, /*rtt=*/0.01, 0);
  EXPECT_EQ(sizer.limit(), 4u)
      << "a half-empty round says nothing about a bigger one";
}

TEST(AdaptiveBatchSizerTest, SlowRoundsHalve) {
  AdaptiveBatchSizer sizer(Options(0.2), 16);
  sizer.RecordRound(16, /*rtt=*/0.5, 0);  // > 2 * target
  EXPECT_EQ(sizer.limit(), 8u);
  sizer.RecordRound(8, 0.5, 0);
  EXPECT_EQ(sizer.limit(), 4u);
  EXPECT_EQ(sizer.shrink_events(), 2u);
  // Rounds inside the comfort band leave the limit alone.
  sizer.RecordRound(4, 0.2, 0);
  EXPECT_EQ(sizer.limit(), 4u);
}

TEST(AdaptiveBatchSizerTest, LimitNeverDropsBelowOne) {
  AdaptiveBatchSizer sizer(Options(0.2), 1);
  sizer.RecordRound(1, 10.0, 0);
  EXPECT_EQ(sizer.limit(), 1u);
}

TEST(AdaptiveBatchSizerTest, CongestionBacksOffBeforeLatencyGrows) {
  AdaptiveBatchSizer sizer(Options(0.2), 8);
  // Fast round — would normally double — but most of its round-trip was
  // spent queued behind other tenants: back off instead.
  sizer.RecordRound(8, /*rtt=*/0.05, /*wait_total=*/0.04);
  EXPECT_EQ(sizer.limit(), 4u);
  EXPECT_EQ(sizer.congestion_backoffs(), 1u);
  EXPECT_EQ(sizer.grow_events(), 0u);

  // The wait signal is cumulative: an unchanged total means the *next*
  // round waited 0, so a fast full round grows again.
  sizer.RecordRound(4, 0.05, 0.04);
  EXPECT_EQ(sizer.limit(), 8u);
  EXPECT_EQ(sizer.grow_events(), 1u);
}

TEST(AdaptiveBatchSizerTest, QueueWaitResetOnReconnectIsNotMuted) {
  AdaptiveBatchSizer sizer(Options(0.2), 4);
  // A long session accumulates 0.48s of cumulative queue wait across many
  // rounds whose individual deltas stayed uncongested.
  for (int round = 1; round <= 6; ++round) {
    sizer.RecordRound(4, 0.19, 0.08 * round);
  }
  ASSERT_EQ(sizer.congestion_backoffs(), 0u);
  ASSERT_EQ(sizer.limit(), 4u);
  // Reconnect: the fresh session's cumulative reading restarts below the
  // old total. Its 0.04s IS this round's wait — on a 0.05s round-trip
  // that is congestion and must back off, not be clamped to zero.
  sizer.RecordRound(4, 0.05, 0.04);
  EXPECT_EQ(sizer.congestion_backoffs(), 1u);
  EXPECT_EQ(sizer.limit(), 2u);
}

TEST(AdaptiveBatchSizerTest, ShardedHintBacksOffOnTheStragglerShard) {
  AdaptiveBatchSizer sizer(Options(0.2), 8);
  // Four shards; only shard 2 is congested. Its per-round wait delta is
  // 0.04s on a 0.05s round-trip — congestion on its own, even though the
  // other three shards report zero and would dilute a summed-or-averaged
  // signal below the 0.5 * rtt threshold.
  ServerLoadHint hint;
  hint.latency_feedback = true;
  hint.shard_queue_wait_seconds = {0.0, 0.0, 0.04, 0.0};
  hint.queue_wait_total_seconds = 0.04;
  sizer.RecordRound(8, /*rtt_seconds=*/0.05, hint);
  EXPECT_EQ(sizer.congestion_backoffs(), 1u);
  EXPECT_EQ(sizer.limit(), 4u);

  // The straggler catches up: no new wait anywhere, a fast full round
  // grows again. The per-shard baselines must have been remembered, or
  // the unchanged cumulative 0.04 would read as fresh congestion.
  hint.shard_queue_wait_seconds = {0.0, 0.0, 0.04, 0.0};
  sizer.RecordRound(4, 0.05, hint);
  EXPECT_EQ(sizer.congestion_backoffs(), 1u);
  EXPECT_EQ(sizer.limit(), 8u);

  // One shard reconnects (its cumulative reading restarts low): the fresh
  // reading is that shard's wait since reconnect, not a zero delta.
  hint.shard_queue_wait_seconds = {0.0, 0.0, 0.03, 0.0};
  sizer.RecordRound(8, 0.05, hint);
  EXPECT_EQ(sizer.congestion_backoffs(), 2u);
  EXPECT_EQ(sizer.limit(), 4u);
}

TEST(AdaptiveBatchSizerTest, EmptyShardVectorFallsBackToTheAggregate) {
  AdaptiveBatchSizer sizer(Options(0.2), 4);
  // A hint without per-shard waits (every unsharded server) must behave
  // exactly like the scalar overload, including the reconnect rule.
  ServerLoadHint hint;
  hint.latency_feedback = true;
  hint.queue_wait_total_seconds = 0.04;
  sizer.RecordRound(4, 0.05, hint);
  EXPECT_EQ(sizer.congestion_backoffs(), 1u);
  EXPECT_EQ(sizer.limit(), 2u);
}

TEST(AdaptiveBatchSizerTest, ZeroRttRoundsNeverCountAsCongested) {
  AdaptiveBatchSizer sizer(Options(0.2), 2);
  // rtt == 0 (e.g. a FakeClock that was not advanced): the congestion
  // ratio is undefined, so the round must fall through to growth.
  sizer.RecordRound(2, 0.0, /*wait_total=*/1.0);
  EXPECT_EQ(sizer.limit(), 4u);
  EXPECT_EQ(sizer.congestion_backoffs(), 0u);
}

// --- CrawlContext integration -----------------------------------------------

/// Wraps an in-process server and fakes the transport signals: every
/// IssueBatch advances the injected FakeClock by a scripted round-trip,
/// and load_hint() reports latency feedback plus a scripted queue-wait
/// total — a remote backend without sockets.
class FakeLatencyServer : public ServerDecorator {
 public:
  FakeLatencyServer(HiddenDbServer* base, FakeClock* clock)
      : ServerDecorator(base), clock_(clock) {}

  Status IssueBatch(const std::vector<Query>& queries,
                    std::vector<Response>* responses) override {
    clock_->Advance(rtt_);
    politeness_wait_total_ += politeness_per_round_;
    return base_->IssueBatch(queries, responses);
  }

  ServerLoadHint load_hint() const override {
    ServerLoadHint hint;
    hint.latency_feedback = true;
    hint.queue_wait_total_seconds = queue_wait_total_;
    hint.politeness_wait_total_seconds = politeness_wait_total_;
    return hint;
  }

  void set_rtt(nanoseconds rtt) { rtt_ = rtt; }
  void set_queue_wait_total(double seconds) { queue_wait_total_ = seconds; }
  /// Politeness sleep simulated inside each IssueBatch (the cumulative
  /// total grows by this much per round).
  void set_politeness_per_round(double seconds) {
    politeness_per_round_ = seconds;
  }

 private:
  FakeClock* clock_;
  nanoseconds rtt_{0};
  double queue_wait_total_ = 0;
  double politeness_per_round_ = 0;
  double politeness_wait_total_ = 0;
};

class SizerContextFixture : public ::testing::Test {
 protected:
  SizerContextFixture() {
    SchemaPtr schema = Schema::NumericBounded({{0, 1000}});
    auto data = std::make_shared<Dataset>(schema);
    for (Value v = 0; v < 200; ++v) data->Add(Tuple({v * 5}));
    LocalServerOptions options;
    options.max_parallelism = 2;
    server_ = std::make_unique<LocalServer>(data, /*k=*/4, nullptr, options);
    remote_ = std::make_unique<FakeLatencyServer>(server_.get(), &clock_);
    state_ = std::make_shared<CrawlState>(
        schema, "rank-shrink", FrontierItem::Kind::kRank);
  }

  std::vector<Query> Rounds(size_t n) {
    std::vector<Query> batch;
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(Query::FullSpace(server_->schema())
                          .WithNumericRange(0, static_cast<Value>(i) * 10,
                                            static_cast<Value>(i) * 10 + 9));
    }
    return batch;
  }

  FakeClock clock_;
  std::unique_ptr<LocalServer> server_;
  std::unique_ptr<FakeLatencyServer> remote_;
  std::shared_ptr<CrawlState> state_;
};

TEST_F(SizerContextFixture, AutoRoundsFollowTheSizerAgainstLatencyFeedback) {
  CrawlOptions options;
  options.batch_size = 0;  // auto
  options.clock = &clock_;
  options.adaptive_batch = Options(/*target=*/0.2);
  CrawlContext ctx(remote_.get(), state_.get(), options);
  ASSERT_NE(ctx.batch_sizer(), nullptr);

  // Seed limit = batch_parallelism = 2; a wide frontier is capped there.
  EXPECT_EQ(ctx.RoundSize(100), 2u);

  // Fast full round (50ms < target/2): the limit doubles.
  remote_->set_rtt(std::chrono::milliseconds(50));
  std::vector<Response> responses;
  ctx.IssueBatch(Rounds(2), &responses);
  EXPECT_EQ(ctx.RoundSize(100), 4u);

  // Another fast full round: 8.
  ctx.IssueBatch(Rounds(4), &responses);
  EXPECT_EQ(ctx.RoundSize(100), 8u);
  EXPECT_EQ(ctx.RoundSize(3), 3u) << "a narrow frontier is never padded";

  // A slow round (500ms > 2 * target) halves the limit.
  remote_->set_rtt(std::chrono::milliseconds(500));
  ctx.IssueBatch(Rounds(8), &responses);
  EXPECT_EQ(ctx.RoundSize(100), 4u);

  // A congested round — the server reports 40ms of its 50ms round-trip
  // was queue wait — backs off again.
  remote_->set_rtt(std::chrono::milliseconds(50));
  remote_->set_queue_wait_total(0.040);
  ctx.IssueBatch(Rounds(4), &responses);
  EXPECT_EQ(ctx.RoundSize(100), 2u);
  EXPECT_EQ(ctx.batch_sizer()->congestion_backoffs(), 1u);
}

TEST_F(SizerContextFixture, PolitenessSleepIsNotCountedAsLatency) {
  CrawlOptions options;
  options.batch_size = 0;
  options.clock = &clock_;
  options.adaptive_batch = Options(/*target=*/0.2);
  CrawlContext ctx(remote_.get(), state_.get(), options);
  ASSERT_EQ(ctx.RoundSize(100), 2u);

  // The round takes 5.05s of wall clock, but 5s of it was the politeness
  // pacer sleeping (the server's cumulative politeness total advances by
  // 5s during the call). Effective transport latency is 50ms: the limit
  // must GROW, not collapse to 1.
  remote_->set_rtt(std::chrono::milliseconds(5050));
  remote_->set_politeness_per_round(5.0);
  std::vector<Response> responses;
  ctx.IssueBatch(Rounds(2), &responses);
  EXPECT_EQ(ctx.RoundSize(100), 4u)
      << "a deliberate pacing delay must not shrink rounds";
  EXPECT_EQ(ctx.batch_sizer()->shrink_events(), 0u);
}

TEST_F(SizerContextFixture, InProcessAutoKeepsTheDeterministicRule) {
  CrawlOptions options;
  options.batch_size = 0;
  CrawlContext ctx(server_.get(), state_.get(), options);
  EXPECT_EQ(ctx.batch_sizer(), nullptr)
      << "no latency feedback => no adaptive sizing";
  EXPECT_EQ(ctx.RoundSize(100), 2u) << "frontier capped by parallelism";
  EXPECT_EQ(ctx.RoundSize(1), 1u);
}

TEST_F(SizerContextFixture, FixedBatchSizeIgnoresTheSizer) {
  CrawlOptions options;
  options.batch_size = 4;
  CrawlContext ctx(remote_.get(), state_.get(), options);
  EXPECT_EQ(ctx.batch_sizer(), nullptr);
  EXPECT_EQ(ctx.RoundSize(100), 4u);
}

}  // namespace
}  // namespace hdc
