// Copyright (c) hdc authors. Apache-2.0 license.
#include "server/local_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "gen/synthetic.h"
#include "util/random.h"

namespace hdc {
namespace {

std::shared_ptr<Dataset> OneDimData() {
  SchemaPtr schema = Schema::NumericBounded({{0, 100}});
  auto d = std::make_shared<Dataset>(schema);
  for (Value v : {10, 20, 30, 35, 45, 55, 55, 55}) d->Add(Tuple({v}));
  return d;
}

TEST(LocalServerTest, ResolvedReturnsEntireBag) {
  LocalServer server(OneDimData(), /*k=*/4);
  Query q = Query::FullSpace(server.schema()).WithNumericRange(0, 0, 30);
  Response r;
  ASSERT_TRUE(server.Issue(q, &r).ok());
  EXPECT_FALSE(r.overflow);
  EXPECT_EQ(r.size(), 3u);
}

TEST(LocalServerTest, OverflowReturnsExactlyK) {
  LocalServer server(OneDimData(), /*k=*/4);
  Query q = Query::FullSpace(server.schema());
  Response r;
  ASSERT_TRUE(server.Issue(q, &r).ok());
  EXPECT_TRUE(r.overflow);
  EXPECT_EQ(r.size(), 4u);
}

TEST(LocalServerTest, BoundaryExactlyKResolves) {
  LocalServer server(OneDimData(), /*k=*/8);
  Query q = Query::FullSpace(server.schema());
  Response r;
  ASSERT_TRUE(server.Issue(q, &r).ok());
  EXPECT_FALSE(r.overflow) << "|q(D)| == k must resolve, not overflow";
  EXPECT_EQ(r.size(), 8u);
}

TEST(LocalServerTest, RepeatedQueryReturnsSameTuples) {
  LocalServer server(OneDimData(), /*k=*/4);
  Query q = Query::FullSpace(server.schema());
  Response r1, r2;
  ASSERT_TRUE(server.Issue(q, &r1).ok());
  ASSERT_TRUE(server.Issue(q, &r2).ok());
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1.tuples[i].hidden_id, r2.tuples[i].hidden_id);
  }
}

TEST(LocalServerTest, OverflowKeepsHighestPriorityTuples) {
  auto data = OneDimData();
  // Priorities by id descending: ids 0..3 have highest priorities.
  LocalServer server(data, /*k=*/3, MakeIdOrderPolicy(/*ascending=*/true));
  Query q = Query::FullSpace(server.schema());
  Response r;
  ASSERT_TRUE(server.Issue(q, &r).ok());
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.tuples[0].hidden_id, 0u);
  EXPECT_EQ(r.tuples[1].hidden_id, 1u);
  EXPECT_EQ(r.tuples[2].hidden_id, 2u);
}

TEST(LocalServerTest, EmptyRegionResolvesEmpty) {
  LocalServer server(OneDimData(), /*k=*/4);
  Query q = Query::FullSpace(server.schema()).WithNumericRange(0, 90, 100);
  Response r;
  ASSERT_TRUE(server.Issue(q, &r).ok());
  EXPECT_FALSE(r.overflow);
  EXPECT_EQ(r.size(), 0u);
}

TEST(LocalServerTest, StatsAccumulate) {
  LocalServer server(OneDimData(), /*k=*/4);
  Response r;
  Query full = Query::FullSpace(server.schema());
  ASSERT_TRUE(server.Issue(full, &r).ok());
  ASSERT_TRUE(
      server.Issue(full.WithNumericRange(0, 0, 30), &r).ok());
  EXPECT_EQ(server.queries_served(), 2u);
  EXPECT_EQ(server.overflow_count(), 1u);
  EXPECT_EQ(server.tuples_returned(), 7u);
  server.ResetStats();
  EXPECT_EQ(server.queries_served(), 0u);
}

TEST(LocalServerTest, CountMatchesIsExact) {
  LocalServer server(OneDimData(), /*k=*/2);
  Query q = Query::FullSpace(server.schema()).WithNumericRange(0, 55, 55);
  EXPECT_EQ(server.CountMatches(q), 3u);
}

TEST(LocalServerTest, IsCrawlableComparesMultiplicityToK) {
  auto data = OneDimData();  // max multiplicity 3 (value 55)
  EXPECT_TRUE(LocalServer(data, 3).IsCrawlable());
  EXPECT_FALSE(LocalServer(data, 2).IsCrawlable());
}

TEST(LocalServerTest, CategoricalPredicates) {
  SchemaPtr schema = Schema::Categorical({3, 2});
  auto d = std::make_shared<Dataset>(schema);
  d->Add(Tuple({1, 1}));
  d->Add(Tuple({1, 2}));
  d->Add(Tuple({2, 1}));
  LocalServer server(d, /*k=*/10);
  Response r;
  Query q = Query::FullSpace(schema).WithCategoricalEquals(0, 1);
  ASSERT_TRUE(server.Issue(q, &r).ok());
  EXPECT_EQ(r.size(), 2u);
  q = q.WithCategoricalEquals(1, 2);
  ASSERT_TRUE(server.Issue(q, &r).ok());
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.tuples[0].tuple, Tuple({1, 2}));
}

TEST(LocalServerTest, SchemaAccessor) {
  auto data = OneDimData();
  LocalServer server(data, 4);
  EXPECT_EQ(server.k(), 4u);
  EXPECT_TRUE(*server.schema() == *data->schema());
}

// --- Batched execution -----------------------------------------------------

std::vector<Query> RandomBatch(const SchemaPtr& schema, size_t count,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Query q = Query::FullSpace(schema);
    if (rng.Bernoulli(0.5)) {
      q = q.WithCategoricalEquals(0, rng.UniformInt(1, 5));
    }
    if (rng.Bernoulli(0.7)) {
      Value lo = rng.UniformInt(0, 49);
      q = q.WithNumericRange(2, lo, rng.UniformInt(lo, 49));
    }
    batch.push_back(std::move(q));
  }
  return batch;
}

std::shared_ptr<Dataset> BatchTestData() {
  SyntheticMixedOptions gen;
  gen.domain_sizes = {5, 9};
  gen.num_numeric = 2;
  gen.n = 2000;
  gen.value_range = 50;
  gen.seed = 77;
  return std::make_shared<Dataset>(GenerateSyntheticMixed(gen));
}

TEST(LocalServerTest, ParallelBatchMatchesSequentialResponsesAndStats) {
  auto data = BatchTestData();
  LocalServer sequential(data, 16);
  LocalServerOptions parallel_options;
  parallel_options.max_parallelism = 4;
  LocalServer parallel(data, 16, nullptr, parallel_options);

  const std::vector<Query> batch = RandomBatch(data->schema(), 64, 99);
  std::vector<Response> seq_responses, par_responses;
  ASSERT_TRUE(sequential.IssueBatch(batch, &seq_responses).ok());
  ASSERT_TRUE(parallel.IssueBatch(batch, &par_responses).ok());

  ASSERT_EQ(seq_responses.size(), batch.size());
  ASSERT_EQ(par_responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(par_responses[i].overflow, seq_responses[i].overflow) << i;
    ASSERT_EQ(par_responses[i].size(), seq_responses[i].size()) << i;
    for (size_t j = 0; j < seq_responses[i].size(); ++j) {
      ASSERT_EQ(par_responses[i].tuples[j].hidden_id,
                seq_responses[i].tuples[j].hidden_id)
          << "member " << i << ", tuple " << j;
    }
  }
  // Statistics must be order-independent and loss-free.
  EXPECT_EQ(parallel.queries_served(), sequential.queries_served());
  EXPECT_EQ(parallel.tuples_returned(), sequential.tuples_returned());
  EXPECT_EQ(parallel.overflow_count(), sequential.overflow_count());
}

TEST(LocalServerTest, ParallelBatchesBackToBackStayConsistent) {
  // Repeated concurrent batches against one server: the stress shape the
  // ThreadSanitizer CI job runs.
  auto data = BatchTestData();
  LocalServerOptions options;
  options.max_parallelism = 8;
  LocalServer server(data, 16, nullptr, options);
  uint64_t expected_queries = 0;
  for (int round = 0; round < 10; ++round) {
    const std::vector<Query> batch =
        RandomBatch(data->schema(), 32, 1000 + round);
    std::vector<Response> responses;
    ASSERT_TRUE(server.IssueBatch(batch, &responses).ok());
    ASSERT_EQ(responses.size(), batch.size());
    expected_queries += batch.size();
  }
  EXPECT_EQ(server.queries_served(), expected_queries);
}

TEST(LocalServerTest, ParallelismNeverExceedsBatchSize) {
  // A parallel server answering a one-element batch must not spawn idle
  // workers or change behaviour.
  auto data = OneDimData();
  LocalServerOptions options;
  options.max_parallelism = 16;
  LocalServer server(data, 4, nullptr, options);
  std::vector<Response> responses;
  ASSERT_TRUE(
      server.IssueBatch({Query::FullSpace(server.schema())}, &responses)
          .ok());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].overflow);
  EXPECT_EQ(responses[0].size(), 4u);
  EXPECT_EQ(server.queries_served(), 1u);
}

}  // namespace
}  // namespace hdc
