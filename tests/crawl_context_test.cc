// Copyright (c) hdc authors. Apache-2.0 license.
//
// Direct tests of the crawl framework plumbing (CrawlContext): budget
// accounting, oracle pruning, interruption semantics, the progress trace
// seen from beneath the context, and collection filters — independent of
// any specific algorithm.
#include "core/crawl_context.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "core/crawl_sink.h"
#include "core/rank_shrink.h"
#include "server/decorators.h"
#include "server/local_server.h"

namespace hdc {
namespace {

/// One query as a one-member CrawlContext::IssueBatch round.
CrawlContext::Outcome IssueOne(CrawlContext* ctx, const Query& query,
                               Response* response) {
  std::vector<Response> responses;
  const CrawlContext::Outcome outcome = ctx->IssueBatch({query}, &responses)[0];
  *response = std::move(responses[0]);
  return outcome;
}

class ContextFixture : public ::testing::Test {
 protected:
  ContextFixture() {
    SchemaPtr schema = Schema::NumericBounded({{0, 100}});
    auto data = std::make_shared<Dataset>(schema);
    for (Value v = 0; v < 20; ++v) data->Add(Tuple({v * 5}));
    server_ = std::make_unique<LocalServer>(data, /*k=*/4);
    state_ = std::make_shared<CrawlState>(
        schema, "rank-shrink", FrontierItem::Kind::kRank);
  }

  Query Full() { return Query::FullSpace(server_->schema()); }

  std::unique_ptr<LocalServer> server_;
  std::shared_ptr<CrawlState> state_;
};

TEST_F(ContextFixture, BudgetBoundaryIsExact) {
  CrawlOptions options;
  options.max_queries = 2;
  CrawlContext ctx(server_.get(), state_.get(), options);
  Response r;
  EXPECT_EQ(IssueOne(&ctx, Full(), &r), CrawlContext::Outcome::kOverflow);
  EXPECT_EQ(IssueOne(&ctx, Full().WithNumericRange(0, 0, 10), &r),
            CrawlContext::Outcome::kResolved);
  // Third issue must be refused without touching the server.
  EXPECT_EQ(IssueOne(&ctx, Full(), &r), CrawlContext::Outcome::kStop);
  EXPECT_TRUE(ctx.stopped());
  EXPECT_EQ(server_->queries_served(), 2u);
  EXPECT_EQ(ctx.run_queries(), 2u);
  EXPECT_EQ(state_->queries_issued, 2u);
}

TEST_F(ContextFixture, OraclePruningCostsNothing) {
  FunctionOracle deny_all([](const Query&) { return false; });
  CrawlOptions options;
  options.oracle = &deny_all;
  CrawlContext ctx(server_.get(), state_.get(), options);
  Response r;
  EXPECT_EQ(IssueOne(&ctx, Full(), &r), CrawlContext::Outcome::kPrunedEmpty);
  EXPECT_TRUE(r.resolved());
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(server_->queries_served(), 0u);
  EXPECT_EQ(ctx.run_queries(), 0u);
  EXPECT_FALSE(ctx.stopped());
}

TEST_F(ContextFixture, SeenRowsAccumulateAcrossResponses) {
  CrawlContext ctx(server_.get(), state_.get(), {});
  Response r;
  ASSERT_EQ(IssueOne(&ctx, Full(), &r), CrawlContext::Outcome::kOverflow);
  EXPECT_EQ(state_->seen_rows.size(), 4u);  // k tuples seen
  ASSERT_EQ(IssueOne(&ctx, Full(), &r), CrawlContext::Outcome::kOverflow);
  EXPECT_EQ(state_->seen_rows.size(), 4u);  // same k rows, no growth
  ASSERT_EQ(IssueOne(&ctx, Full().WithNumericRange(0, 0, 10), &r),
            CrawlContext::Outcome::kResolved);
  EXPECT_GE(state_->seen_rows.size(), 4u);
}

TEST_F(ContextFixture, CollectResponseAppendsWholeBag) {
  CrawlContext ctx(server_.get(), state_.get(), {});
  Response r;
  ASSERT_EQ(IssueOne(&ctx, Full().WithNumericRange(0, 0, 10), &r),
            CrawlContext::Outcome::kResolved);
  ctx.CollectResponse(r);
  EXPECT_EQ(state_->extracted.size(), 3u);  // values 0, 5, 10
}

TEST_F(ContextFixture, CollectFilteredAppliesPredicate) {
  CrawlContext ctx(server_.get(), state_.get(), {});
  std::vector<ReturnedTuple> bag = {
      {Tuple({5}), 1}, {Tuple({50}), 10}, {Tuple({95}), 19}};
  ctx.CollectFiltered(bag, Full().WithNumericRange(0, 0, 60));
  EXPECT_EQ(state_->extracted.size(), 2u);
}

TEST_F(ContextFixture, SetFatalStopsAndSticks) {
  CrawlContext ctx(server_.get(), state_.get(), {});
  ctx.SetFatal(Status::Unsolvable("test"));
  EXPECT_TRUE(ctx.stopped());
  EXPECT_TRUE(state_->fatal.IsUnsolvable());
  Response r;
  EXPECT_EQ(IssueOne(&ctx, Full(), &r), CrawlContext::Outcome::kStop);
  EXPECT_EQ(server_->queries_served(), 0u);

  // A fresh context over the same state starts stopped.
  CrawlContext again(server_.get(), state_.get(), {});
  EXPECT_TRUE(again.stopped());
}

// The Figure 13 progress trace is recorded at the server boundary: a
// ProgressRecorder directly beneath the context sees every answered query,
// and its rows_seen tracks the state's seen-rows metric exactly.
TEST_F(ContextFixture, ProgressRecorderBeneathContextSeesEveryQuery) {
  ProgressRecorder recorder;
  ObservedServer observed(server_.get(), std::ref(recorder));
  CrawlContext ctx(&observed, state_.get(), {});
  Response r;
  ASSERT_EQ(IssueOne(&ctx, Full(), &r), CrawlContext::Outcome::kOverflow);
  ASSERT_EQ(recorder.samples().size(), 1u);
  EXPECT_EQ(recorder.samples()[0].rows_seen, state_->seen_rows.size());
  ASSERT_EQ(IssueOne(&ctx, Full().WithNumericRange(0, 0, 10), &r),
            CrawlContext::Outcome::kResolved);
  ctx.CollectResponse(r);
  const std::vector<ProgressSample>& trace = recorder.samples();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].query_index, 1u);
  EXPECT_FALSE(trace[0].resolved);
  EXPECT_EQ(trace[0].returned, 4u);
  EXPECT_EQ(trace[0].rows_seen, 4u);
  EXPECT_EQ(trace[1].query_index, 2u);
  EXPECT_TRUE(trace[1].resolved);
  EXPECT_EQ(trace[1].returned, 3u);
  EXPECT_EQ(trace[1].rows_seen, state_->seen_rows.size());
}

TEST_F(ContextFixture, ExternalFailureBecomesInterrupt) {
  class FailingServer : public HiddenDbServer {
   public:
    explicit FailingServer(HiddenDbServer* base) : base_(base) {}
    Status IssueBatch(const std::vector<Query>&,
                      std::vector<Response>* responses) override {
      responses->clear();
      return Status::Internal("boom");
    }
    uint64_t k() const override { return base_->k(); }
    const SchemaPtr& schema() const override { return base_->schema(); }

   private:
    HiddenDbServer* base_;
  };

  FailingServer failing(server_.get());
  CrawlContext ctx(&failing, state_.get(), {});
  Response r;
  EXPECT_EQ(IssueOne(&ctx, Full(), &r), CrawlContext::Outcome::kStop);
  EXPECT_TRUE(ctx.stopped());
  EXPECT_EQ(ctx.interrupt().code(), Status::Code::kInternal);
  // Not fatal: the state stays clean for a resume.
  EXPECT_TRUE(state_->fatal.ok());
}

TEST_F(ContextFixture, BatchAppliesBudgetPerMember) {
  CrawlOptions options;
  options.max_queries = 2;
  CrawlContext ctx(server_.get(), state_.get(), options);
  std::vector<Query> queries = {Full().WithNumericRange(0, 0, 10),
                                Full().WithNumericRange(0, 11, 20),
                                Full().WithNumericRange(0, 21, 30)};
  std::vector<Response> responses;
  auto outcomes = ctx.IssueBatch(queries, &responses);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0], CrawlContext::Outcome::kResolved);
  EXPECT_EQ(outcomes[1], CrawlContext::Outcome::kResolved);
  // The third member crosses the run budget: refused before the server.
  EXPECT_EQ(outcomes[2], CrawlContext::Outcome::kStop);
  EXPECT_TRUE(ctx.stopped());
  EXPECT_EQ(server_->queries_served(), 2u);
  EXPECT_EQ(ctx.run_queries(), 2u);
  EXPECT_EQ(state_->queries_issued, 2u);
}

TEST_F(ContextFixture, BatchPrunesPerMemberWithoutSpendingQueries) {
  // Prune everything left of 50; pruned members must not consume budget.
  FunctionOracle deny_low([](const Query& q) { return q.lo(0) >= 50; });
  CrawlOptions options;
  options.oracle = &deny_low;
  CrawlContext ctx(server_.get(), state_.get(), options);
  std::vector<Query> queries = {Full().WithNumericRange(0, 0, 40),
                                Full().WithNumericRange(0, 50, 60),
                                Full().WithNumericRange(0, 10, 20)};
  std::vector<Response> responses;
  auto outcomes = ctx.IssueBatch(queries, &responses);
  EXPECT_EQ(outcomes[0], CrawlContext::Outcome::kPrunedEmpty);
  EXPECT_EQ(outcomes[1], CrawlContext::Outcome::kResolved);
  EXPECT_EQ(outcomes[2], CrawlContext::Outcome::kPrunedEmpty);
  EXPECT_TRUE(responses[0].resolved());
  EXPECT_EQ(responses[0].size(), 0u);
  EXPECT_EQ(server_->queries_served(), 1u);
  EXPECT_EQ(ctx.run_queries(), 1u);
  EXPECT_FALSE(ctx.stopped());
}

TEST_F(ContextFixture, BatchProgressIsRecordedInIssueOrder) {
  ProgressRecorder recorder;
  ObservedServer observed(server_.get(), std::ref(recorder));
  CrawlContext ctx(&observed, state_.get(), {});
  std::vector<Query> queries = {Full(), Full().WithNumericRange(0, 0, 10)};
  std::vector<Response> responses;
  auto outcomes = ctx.IssueBatch(queries, &responses);
  EXPECT_EQ(outcomes[0], CrawlContext::Outcome::kOverflow);
  EXPECT_EQ(outcomes[1], CrawlContext::Outcome::kResolved);
  const std::vector<ProgressSample>& trace = recorder.samples();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].query_index, 1u);
  EXPECT_FALSE(trace[0].resolved);
  EXPECT_EQ(trace[0].returned, 4u);
  EXPECT_EQ(trace[1].query_index, 2u);
  EXPECT_TRUE(trace[1].resolved);
  EXPECT_EQ(trace[1].returned, 3u);
  EXPECT_EQ(trace[1].rows_seen, state_->seen_rows.size());
}

TEST_F(ContextFixture, BatchStopsSuffixOnServerFailure) {
  // A budget decorator that pays for one member then refuses the rest.
  BudgetServer budget(server_.get(), 1);
  CrawlContext ctx(&budget, state_.get(), {});
  std::vector<Query> queries = {Full().WithNumericRange(0, 0, 10),
                                Full().WithNumericRange(0, 11, 20),
                                Full().WithNumericRange(0, 21, 30)};
  std::vector<Response> responses;
  auto outcomes = ctx.IssueBatch(queries, &responses);
  EXPECT_EQ(outcomes[0], CrawlContext::Outcome::kResolved);
  EXPECT_EQ(outcomes[1], CrawlContext::Outcome::kStop);
  EXPECT_EQ(outcomes[2], CrawlContext::Outcome::kStop);
  EXPECT_TRUE(ctx.stopped());
  EXPECT_TRUE(ctx.interrupt().IsResourceExhausted());
  // The answered prefix is recorded; the suffix cost nothing.
  EXPECT_EQ(ctx.run_queries(), 1u);
  EXPECT_EQ(server_->queries_served(), 1u);
  // Not fatal: the state stays clean for a resume.
  EXPECT_TRUE(state_->fatal.ok());
}

TEST_F(ContextFixture, SingleElementBatchMatchesIssue) {
  CrawlContext ctx(server_.get(), state_.get(), {});
  std::vector<Response> batch_responses;
  auto outcomes =
      ctx.IssueBatch({Full().WithNumericRange(0, 0, 10)}, &batch_responses);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0], CrawlContext::Outcome::kResolved);
  EXPECT_EQ(batch_responses[0].size(), 3u);
  EXPECT_EQ(ctx.run_queries(), 1u);
}

TEST_F(ContextFixture, TupleSinkFiresOnBothCollectPaths) {
  size_t delivered = 0;
  CallbackSink sink([&delivered](const Tuple&) { ++delivered; });
  CrawlOptions options;
  options.sink = &sink;
  CrawlContext ctx(server_.get(), state_.get(), options);
  Response r;
  ASSERT_EQ(IssueOne(&ctx, Full().WithNumericRange(0, 0, 10), &r),
            CrawlContext::Outcome::kResolved);
  ctx.CollectResponse(r);
  EXPECT_EQ(delivered, 3u);
  std::vector<ReturnedTuple> bag = {{Tuple({90}), 18}};
  ctx.CollectFiltered(bag, Full());
  EXPECT_EQ(delivered, 4u);
}

}  // namespace
}  // namespace hdc
