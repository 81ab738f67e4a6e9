// Copyright (c) hdc authors. Apache-2.0 license.
//
// Failure injection: flaky connections, retry policies, and the crawl
// framework's interruption semantics (transient failures never lose work
// and never poison the resumable state). Covers both transient flavours:
// kInternal (server hiccup) and kUnavailable (transport outage, the typed
// error net/remote_server.h surfaces).
#include <gtest/gtest.h>

#include <memory>

#include "core/rank_shrink.h"
#include "core/slice_cover.h"
#include "gen/synthetic.h"
#include "server/decorators.h"
#include "server/local_server.h"

namespace hdc {
namespace {

/// FlakyServer's transport-layer sibling: every `period`-th attempt fails
/// with kUnavailable *before* reaching the wrapped server, like a dropped
/// loopback connection. Members are attempted one at a time, which keeps
/// the per-attempt counting exact — batch semantics are covered by the real
/// transport in remote_transport_test.cc.
class OutageServer : public ServerDecorator {
 public:
  OutageServer(HiddenDbServer* base, uint64_t period)
      : ServerDecorator(base), period_(period) {}

  Status IssueBatch(const std::vector<Query>& queries,
                    std::vector<Response>* responses) override {
    responses->clear();
    for (const Query& query : queries) {
      ++attempts_;
      if (period_ > 0 && attempts_ % period_ == 0) {
        return Status::Unavailable("simulated transport outage");
      }
      Response response;
      Status s = base_->Issue(query, &response);
      if (!s.ok()) return s;
      responses->push_back(std::move(response));
    }
    return Status::OK();
  }

  uint64_t attempts() const { return attempts_; }

 private:
  uint64_t period_;
  uint64_t attempts_ = 0;
};

std::shared_ptr<Dataset> NumericData() {
  SyntheticNumericOptions gen;
  gen.d = 2;
  gen.n = 600;
  gen.value_range = 300;
  gen.seed = 51;
  return std::make_shared<Dataset>(GenerateSyntheticNumeric(gen));
}

TEST(FlakyServerTest, FailsEveryNthAttempt) {
  auto data = NumericData();
  LocalServer base(data, 8);
  FlakyServer flaky(&base, /*period=*/3);
  Response r;
  Query full = Query::FullSpace(base.schema());
  EXPECT_TRUE(flaky.Issue(full, &r).ok());
  EXPECT_TRUE(flaky.Issue(full, &r).ok());
  EXPECT_EQ(flaky.Issue(full, &r).code(), Status::Code::kInternal);
  EXPECT_TRUE(flaky.Issue(full, &r).ok());
  EXPECT_EQ(flaky.attempts(), 4u);
  EXPECT_EQ(flaky.failures(), 1u);
  // Failures happen before the wrapped server: no quota consumed.
  EXPECT_EQ(base.queries_served(), 3u);
}

TEST(FlakyServerTest, PeriodZeroNeverFails) {
  auto data = NumericData();
  LocalServer base(data, 8);
  FlakyServer flaky(&base, 0);
  Response r;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(flaky.Issue(Query::FullSpace(base.schema()), &r).ok());
  }
  EXPECT_EQ(flaky.failures(), 0u);
}

TEST(RetryingServerTest, AbsorbsTransientFailures) {
  auto data = NumericData();
  LocalServer base(data, 8);
  FlakyServer flaky(&base, /*period=*/2);  // every 2nd attempt fails
  RetryingServer retrying(&flaky, /*max_retries=*/3);
  Response r;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(retrying.Issue(Query::FullSpace(base.schema()), &r).ok());
  }
  EXPECT_GT(retrying.retries_performed(), 0u);
}

TEST(RetryingServerTest, GivesUpAfterMaxRetries) {
  auto data = NumericData();
  LocalServer base(data, 8);
  FlakyServer always_down(&base, /*period=*/1);  // every attempt fails
  RetryingServer retrying(&always_down, /*max_retries=*/4);
  Response r;
  Status s = retrying.Issue(Query::FullSpace(base.schema()), &r);
  EXPECT_EQ(s.code(), Status::Code::kInternal);
  EXPECT_EQ(retrying.retries_performed(), 4u);
  EXPECT_EQ(always_down.attempts(), 5u);  // 1 try + 4 retries
}

TEST(RetryingServerTest, RetriesTransportOutages) {
  auto data = NumericData();
  LocalServer base(data, 8);
  OutageServer outage(&base, /*period=*/2);  // every 2nd attempt drops
  RetryingServer retrying(&outage, /*max_retries=*/3);
  Response r;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(retrying.Issue(Query::FullSpace(base.schema()), &r).ok())
        << "kUnavailable is transient and must be retried like kInternal";
  }
  EXPECT_GT(retrying.retries_performed(), 0u);
}

TEST(RetryingServerTest, TransientPredicateCoversBothFlavours) {
  EXPECT_TRUE(Status::Internal("x").IsTransient());
  EXPECT_TRUE(Status::Unavailable("x").IsTransient());
  EXPECT_FALSE(Status::ResourceExhausted("x").IsTransient());
  EXPECT_FALSE(Status::FailedPrecondition("x").IsTransient());
  EXPECT_FALSE(Status::OK().IsTransient());
}

TEST(FailureInjectionTest, TransportOutageInterruptsButStaysResumable) {
  auto data = NumericData();
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());
  LocalServer base(data, k);
  OutageServer outage(&base, /*period=*/9);  // no retry layer

  RankShrink crawler;
  CrawlResult result = crawler.Crawl(&outage);
  int interruptions = 0;
  while (!result.status.ok() && interruptions < 10000) {
    ASSERT_TRUE(result.status.IsUnavailable()) << result.status.ToString();
    ASSERT_NE(result.resume_state, nullptr)
        << "a transport outage must leave the crawl resumable";
    ++interruptions;
    result = crawler.Resume(&outage, result.resume_state);
  }
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(interruptions, 0);
  EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data));
  EXPECT_EQ(result.queries_issued, base.queries_served());
}

TEST(RetryingServerTest, DoesNotRetryBudgetExhaustion) {
  auto data = NumericData();
  LocalServer base(data, 8);
  BudgetServer budget(&base, 0);
  RetryingServer retrying(&budget, 5);
  Response r;
  Status s = retrying.Issue(Query::FullSpace(base.schema()), &r);
  EXPECT_TRUE(s.IsResourceExhausted());
  EXPECT_EQ(retrying.retries_performed(), 0u)
      << "a quota does not come back by asking again";
}

TEST(FailureInjectionTest, CrawlThroughRetryingServerIsExact) {
  auto data = NumericData();
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());
  LocalServer base(data, k);
  FlakyServer flaky(&base, /*period=*/5);
  RetryingServer retrying(&flaky, /*max_retries=*/2);

  RankShrink crawler;
  CrawlResult result = crawler.Crawl(&retrying);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data));
  EXPECT_GT(flaky.failures(), 0u);
}

TEST(FailureInjectionTest, UnhandledFailureInterruptsButStaysResumable) {
  auto data = NumericData();
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());
  LocalServer base(data, k);
  FlakyServer flaky(&base, /*period=*/7);  // no retry layer

  RankShrink crawler;
  CrawlResult result = crawler.Crawl(&flaky);
  int interruptions = 0;
  while (!result.status.ok() && interruptions < 10000) {
    ASSERT_EQ(result.status.code(), Status::Code::kInternal)
        << result.status.ToString();
    ASSERT_NE(result.resume_state, nullptr)
        << "a transient failure must leave the crawl resumable";
    ++interruptions;
    result = crawler.Resume(&flaky, result.resume_state);
  }
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(interruptions, 0);
  EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data));
  // Every 7th *attempt* failed, but no issued query was wasted: the work
  // item was simply retried on resume.
  EXPECT_EQ(result.queries_issued, base.queries_served());
}

TEST(FailureInjectionTest, CategoricalCrawlSurvivesFlakiness) {
  SyntheticCategoricalOptions gen;
  gen.domain_sizes = {6, 8, 5};
  gen.n = 700;
  gen.seed = 52;
  auto data = std::make_shared<Dataset>(GenerateSyntheticCategorical(gen));
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());
  LocalServer base(data, k);
  FlakyServer flaky(&base, /*period=*/4);
  RetryingServer retrying(&flaky, /*max_retries=*/3);

  SliceCoverCrawler crawler(/*lazy=*/true);
  CrawlResult result = crawler.Crawl(&retrying);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data));
}

}  // namespace
}  // namespace hdc
