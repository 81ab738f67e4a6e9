// Copyright (c) hdc authors. Apache-2.0 license.
#include "server/decorators.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "server/local_server.h"
#include "server/politeness.h"

namespace hdc {
namespace {

std::shared_ptr<Dataset> TinyData() {
  SchemaPtr schema = Schema::NumericBounded({{0, 100}});
  auto d = std::make_shared<Dataset>(schema);
  for (Value v = 0; v < 20; ++v) d->Add(Tuple({v * 5}));
  return d;
}

TEST(CountingServerTest, CountsForwardedQueries) {
  LocalServer base(TinyData(), 4);
  CountingServer counting(&base);
  Response r;
  Query full = Query::FullSpace(base.schema());
  ASSERT_TRUE(counting.Issue(full, &r).ok());
  ASSERT_TRUE(counting.Issue(full.WithNumericRange(0, 0, 10), &r).ok());
  EXPECT_EQ(counting.queries(), 2u);
  counting.Reset();
  EXPECT_EQ(counting.queries(), 0u);
}

TEST(CountingServerTest, ObserverSeesEachCountedOutcome) {
  LocalServer base(TinyData(), 4);
  std::vector<Response> seen;
  ObservedServer observed(&base, [&seen](const Query&, const Response& resp) {
    seen.push_back(resp);
  });
  CountingServer counting(&observed);
  Response r;
  Query full = Query::FullSpace(base.schema());
  ASSERT_TRUE(counting.Issue(full, &r).ok());                            // overflow
  ASSERT_TRUE(counting.Issue(full.WithNumericRange(0, 0, 10), &r).ok()); // 3 tuples
  EXPECT_EQ(counting.queries(), 2u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_FALSE(seen[0].resolved());
  EXPECT_EQ(seen[0].size(), 4u);
  EXPECT_TRUE(seen[1].resolved());
  EXPECT_EQ(seen[1].size(), 3u);
}

TEST(BudgetServerTest, ExhaustsAndRefills) {
  LocalServer base(TinyData(), 4);
  BudgetServer budget(&base, /*max_queries=*/2);
  Response r;
  Query full = Query::FullSpace(base.schema());
  EXPECT_TRUE(budget.Issue(full, &r).ok());
  EXPECT_TRUE(budget.Issue(full, &r).ok());
  EXPECT_EQ(budget.remaining(), 0u);
  Status s = budget.Issue(full, &r);
  EXPECT_TRUE(s.IsResourceExhausted());
  // The refused query must not have reached the base server.
  EXPECT_EQ(base.queries_served(), 2u);

  budget.Refill(1);
  EXPECT_TRUE(budget.Issue(full, &r).ok());
  EXPECT_EQ(base.queries_served(), 3u);
}

TEST(ObservedServerTest, CallbackSeesEveryResponse) {
  LocalServer base(TinyData(), 4);
  int calls = 0;
  uint64_t tuples = 0;
  ObservedServer observed(&base, [&](const Query&, const Response& resp) {
    ++calls;
    tuples += resp.size();
  });
  Response r;
  Query full = Query::FullSpace(base.schema());
  ASSERT_TRUE(observed.Issue(full, &r).ok());
  ASSERT_TRUE(observed.Issue(full.WithNumericRange(0, 0, 10), &r).ok());
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(tuples, 7u);
}

TEST(DecoratorTest, ForwardsMetadata) {
  LocalServer base(TinyData(), 4);
  CountingServer counting(&base);
  BudgetServer budget(&counting, 100);
  EXPECT_EQ(budget.k(), 4u);
  EXPECT_TRUE(*budget.schema() == *base.schema());
}

// --- Batch semantics -------------------------------------------------------

std::vector<Query> ThreeDisjointRanges(const SchemaPtr& schema) {
  Query full = Query::FullSpace(schema);
  return {full.WithNumericRange(0, 0, 30), full.WithNumericRange(0, 31, 60),
          full.WithNumericRange(0, 61, 100)};
}

TEST(BatchContractTest, SingleElementBatchEqualsIssue) {
  LocalServer base(TinyData(), 4);
  Query q = Query::FullSpace(base.schema()).WithNumericRange(0, 0, 10);
  Response single;
  ASSERT_TRUE(base.Issue(q, &single).ok());

  LocalServer fresh(TinyData(), 4);
  std::vector<Response> batched;
  ASSERT_TRUE(fresh.IssueBatch({q}, &batched).ok());
  ASSERT_EQ(batched.size(), 1u);
  EXPECT_EQ(batched[0].overflow, single.overflow);
  ASSERT_EQ(batched[0].size(), single.size());
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(batched[0].tuples[i].hidden_id, single.tuples[i].hidden_id);
  }
}

TEST(CountingServerTest, BatchCountsPerMember) {
  LocalServer base(TinyData(), 4);
  std::vector<Response> seen;
  ObservedServer observed(&base, [&seen](const Query&, const Response& resp) {
    seen.push_back(resp);
  });
  CountingServer counting(&observed);
  std::vector<Response> responses;
  ASSERT_TRUE(
      counting.IssueBatch(ThreeDisjointRanges(base.schema()), &responses)
          .ok());
  EXPECT_EQ(counting.queries(), 3u);
  ASSERT_EQ(seen.size(), 3u);
  // Observed members appear in issue order: member i is responses[i].
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(seen[i].resolved(), responses[i].resolved());
    EXPECT_EQ(seen[i].size(), responses[i].size());
  }
}

TEST(BudgetServerTest, BatchTruncatesAtTheBudgetBoundary) {
  LocalServer base(TinyData(), 4);
  BudgetServer budget(&base, /*max_queries=*/2);
  std::vector<Response> responses;
  Status s = budget.IssueBatch(ThreeDisjointRanges(base.schema()),
                               &responses);
  EXPECT_TRUE(s.IsResourceExhausted());
  // The affordable prefix was answered and paid for; the third member
  // never reached the base server.
  EXPECT_EQ(responses.size(), 2u);
  EXPECT_EQ(budget.remaining(), 0u);
  EXPECT_EQ(base.queries_served(), 2u);

  // A refill lets the caller resubmit exactly the unanswered suffix.
  budget.Refill(5);
  std::vector<Query> suffix = {ThreeDisjointRanges(base.schema())[2]};
  ASSERT_TRUE(budget.IssueBatch(suffix, &responses).ok());
  EXPECT_EQ(responses.size(), 1u);
  EXPECT_EQ(base.queries_served(), 3u);
  EXPECT_EQ(budget.remaining(), 4u);
}

TEST(BudgetServerTest, ExhaustedBudgetRefusesWholeBatch) {
  LocalServer base(TinyData(), 4);
  BudgetServer budget(&base, 0);
  std::vector<Response> responses;
  Status s = budget.IssueBatch(ThreeDisjointRanges(base.schema()),
                               &responses);
  EXPECT_TRUE(s.IsResourceExhausted());
  EXPECT_TRUE(responses.empty());
  EXPECT_EQ(base.queries_served(), 0u);
}

TEST(FlakyServerTest, BatchFailsAtThePeriodicMember) {
  LocalServer base(TinyData(), 4);
  FlakyServer flaky(&base, /*period=*/3);
  std::vector<Response> responses;
  // Members 1 and 2 are clean attempts; member 3 trips the period.
  Status s = flaky.IssueBatch(ThreeDisjointRanges(base.schema()),
                              &responses);
  EXPECT_EQ(s.code(), Status::Code::kInternal);
  EXPECT_EQ(responses.size(), 2u);
  EXPECT_EQ(flaky.attempts(), 3u);
  EXPECT_EQ(flaky.failures(), 1u);
  // The dropped connection consumed no quota.
  EXPECT_EQ(base.queries_served(), 2u);

  // Next batch starts a fresh attempt count; period 3 trips again on its
  // third member.
  ASSERT_EQ(flaky.IssueBatch(ThreeDisjointRanges(base.schema()), &responses)
                .code(),
            Status::Code::kInternal);
  EXPECT_EQ(responses.size(), 2u);
  EXPECT_EQ(flaky.failures(), 2u);
}

TEST(FlakyServerTest, BatchAttemptAccountingMatchesIssueWhenBaseRefuses) {
  // A one-element batch over a refusing base must leave the same attempt
  // counter as Issue: the refused member reached the flaky layer, so its
  // attempt counts, and the next periodic failure must fire at the same
  // point in both conversations.
  LocalServer base_a(TinyData(), 4);
  BudgetServer empty_a(&base_a, 0);
  FlakyServer sequential(&empty_a, /*period=*/2);
  Response r;
  Query full = Query::FullSpace(base_a.schema());
  EXPECT_TRUE(sequential.Issue(full, &r).IsResourceExhausted());
  EXPECT_EQ(sequential.attempts(), 1u);

  LocalServer base_b(TinyData(), 4);
  BudgetServer empty_b(&base_b, 0);
  FlakyServer batched(&empty_b, /*period=*/2);
  std::vector<Response> responses;
  EXPECT_TRUE(batched.IssueBatch({full}, &responses).IsResourceExhausted());
  EXPECT_TRUE(responses.empty());
  EXPECT_EQ(batched.attempts(), sequential.attempts());

  // After a refill both conversations hit the period-2 drop on the very
  // next attempt.
  empty_a.Refill(10);
  empty_b.Refill(10);
  EXPECT_EQ(sequential.Issue(full, &r).code(), Status::Code::kInternal);
  EXPECT_EQ(batched.IssueBatch({full}, &responses).code(),
            Status::Code::kInternal);
  EXPECT_EQ(sequential.failures(), 1u);
  EXPECT_EQ(batched.failures(), 1u);
}

TEST(RetryingServerTest, BatchRetriesTheFailingMemberInPlace) {
  LocalServer base(TinyData(), 4);
  FlakyServer flaky(&base, /*period=*/3);
  RetryingServer retrying(&flaky, /*max_retries=*/2,
                          /*keep_attempts_trace=*/true);
  std::vector<Response> responses;
  ASSERT_TRUE(
      retrying.IssueBatch(ThreeDisjointRanges(base.schema()), &responses)
          .ok());
  EXPECT_EQ(responses.size(), 3u);
  EXPECT_EQ(retrying.retries_performed(), 1u);
  // attempts_trace distinguishes the retried member from clean ones.
  ASSERT_EQ(retrying.attempts_trace().size(), 3u);
  EXPECT_EQ(retrying.attempts_trace()[0], 1u);
  EXPECT_EQ(retrying.attempts_trace()[1], 1u);
  EXPECT_EQ(retrying.attempts_trace()[2], 2u);  // dropped once, then clean
  EXPECT_EQ(retrying.last_attempts(), 2u);
}

TEST(RetryingServerTest, AttemptsSurfacePerQueryOnIssueToo) {
  LocalServer base(TinyData(), 4);
  FlakyServer flaky(&base, /*period=*/2);
  RetryingServer retrying(&flaky, /*max_retries=*/3,
                          /*keep_attempts_trace=*/true);
  Response r;
  Query full = Query::FullSpace(base.schema());
  ASSERT_TRUE(retrying.Issue(full, &r).ok());  // clean (attempt 1)
  EXPECT_EQ(retrying.last_attempts(), 1u);
  ASSERT_TRUE(retrying.Issue(full, &r).ok());  // attempt 2 fails, 3 clean
  EXPECT_EQ(retrying.last_attempts(), 2u);
  ASSERT_EQ(retrying.attempts_trace(),
            (std::vector<uint32_t>{1u, 2u}));
}

// Which wrapper order meters retries: counting *below* the retry layer
// sees every attempt; counting *above* it sees only ultimate successes.
TEST(RetryingServerTest, WrapperOrderDecidesWhetherRetriesAreMetered) {
  // RetryingServer(CountingServer(FlakyServer(base))): every forwarded
  // attempt that reaches the flaky transport cleanly is counted.
  {
    LocalServer base(TinyData(), 4);
    FlakyServer flaky(&base, /*period=*/2);
    CountingServer counting(&flaky);
    RetryingServer retrying(&counting, /*max_retries=*/3);
    Response r;
    Query full = Query::FullSpace(base.schema());
    ASSERT_TRUE(retrying.Issue(full, &r).ok());
    ASSERT_TRUE(retrying.Issue(full, &r).ok());
    // 3 attempts total (1 clean, 1 dropped, 1 clean); the drop failed
    // before the counting layer's base answered, so 2 count.
    EXPECT_EQ(counting.queries(), 2u);
    EXPECT_EQ(flaky.attempts(), 3u);
  }
  // CountingServer(RetryingServer(FlakyServer(base))): retries are
  // absorbed below; each query counts once however many attempts it took.
  {
    LocalServer base(TinyData(), 4);
    FlakyServer flaky(&base, /*period=*/2);
    RetryingServer retrying(&flaky, /*max_retries=*/3);
    CountingServer counting(&retrying);
    Response r;
    Query full = Query::FullSpace(base.schema());
    ASSERT_TRUE(counting.Issue(full, &r).ok());
    ASSERT_TRUE(counting.Issue(full, &r).ok());
    EXPECT_EQ(counting.queries(), 2u);
    EXPECT_EQ(flaky.attempts(), 3u);
  }
}

TEST(QueryLogServerTest, BatchMembersAreLoggedInIssueOrder) {
  LocalServer base(TinyData(), 4);
  std::ostringstream batched_log;
  QueryLogServer batched(&base, &batched_log);
  std::vector<Response> responses;
  ASSERT_TRUE(
      batched.IssueBatch(ThreeDisjointRanges(base.schema()), &responses)
          .ok());
  EXPECT_EQ(batched.logged(), 3u);

  LocalServer fresh(TinyData(), 4);
  std::ostringstream sequential_log;
  QueryLogServer sequential(&fresh, &sequential_log);
  Response r;
  for (const Query& q : ThreeDisjointRanges(fresh.schema())) {
    ASSERT_TRUE(sequential.Issue(q, &r).ok());
  }
  EXPECT_EQ(batched_log.str(), sequential_log.str())
      << "a batch must leave the same audit trail as the sequential "
      << "conversation";
}

TEST(ObservedServerTest, BatchCallbackFiresPerMemberInOrder) {
  LocalServer base(TinyData(), 4);
  std::vector<size_t> sizes;
  ObservedServer observed(&base, [&](const Query&, const Response& resp) {
    sizes.push_back(resp.size());
  });
  std::vector<Response> responses;
  ASSERT_TRUE(
      observed.IssueBatch(ThreeDisjointRanges(base.schema()), &responses)
          .ok());
  ASSERT_EQ(sizes.size(), 3u);
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(sizes[i], responses[i].size());
  }
}

TEST(BatchContractTest, StackedDecoratorsComposeOverBatches) {
  // The canonical metered stack, batched: budget truncation above,
  // counting below, audit log at the base.
  LocalServer base(TinyData(), 4);
  std::ostringstream log;
  QueryLogServer logged(&base, &log);
  CountingServer counting(&logged);
  BudgetServer budget(&counting, /*max_queries=*/2);

  std::vector<Response> responses;
  Status s = budget.IssueBatch(ThreeDisjointRanges(base.schema()),
                               &responses);
  EXPECT_TRUE(s.IsResourceExhausted());
  EXPECT_EQ(responses.size(), 2u);
  EXPECT_EQ(counting.queries(), 2u);
  EXPECT_EQ(logged.logged(), 2u);
  EXPECT_EQ(base.queries_served(), 2u);
}

TEST(PolitenessModelTest, QuotaBoundDominatesWhenTight) {
  PolitenessModel model;
  model.queries_per_day = 1000;
  model.per_query_latency_ms = 1000;  // 1s per query
  auto est = model.EstimateDuration(10000);
  EXPECT_DOUBLE_EQ(est.days_quota_bound, 10.0);
  EXPECT_NEAR(est.hours_latency_bound, 10000.0 / 3600.0, 1e-9);
  EXPECT_DOUBLE_EQ(est.days_total, 10.0);
}

TEST(PolitenessModelTest, LatencyBoundDominatesWithoutQuota) {
  PolitenessModel model;
  model.queries_per_day = 0;  // unlimited
  model.per_query_latency_ms = 2000;
  auto est = model.EstimateDuration(43200);  // 86400s = 1 day of latency
  EXPECT_DOUBLE_EQ(est.days_quota_bound, 0.0);
  EXPECT_NEAR(est.days_total, 1.0, 1e-9);
}

}  // namespace
}  // namespace hdc
