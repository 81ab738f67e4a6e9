// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/rank_shrink.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "fixed_priority_policy.h"
#include "gen/synthetic.h"
#include "server/decorators.h"
#include "server/local_server.h"
#include "test_util.h"

namespace hdc {
namespace {

using testing_util::ExpectExactExtraction;
using testing_util::FixedPriorityPolicy;

TEST(RankShrinkTest, RejectsCategoricalSchema) {
  RankShrink crawler;
  EXPECT_FALSE(crawler.ValidateSchema(*Schema::Categorical({3})).ok());
  EXPECT_TRUE(crawler.ValidateSchema(*Schema::Numeric(2)).ok());
}

TEST(RankShrinkTest, WorksOnUnboundedDomains) {
  SchemaPtr schema = Schema::Numeric(1);
  auto data = std::make_shared<Dataset>(schema);
  for (Value v : {-1000000, -5, 0, 3, 3, 999999999}) data->Add(Tuple({v}));
  LocalServer server(data, /*k=*/2);
  RankShrink crawler;
  CrawlResult result = crawler.Crawl(&server);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data));
}

// The paper's running example (Figure 3): k = 4,
// D = {10, 20, 30, 35, 45, 55, 55, 55}. Priorities are arranged so the
// server answers q1 with {t4, t6, t7, t8} and q2 with {t1, t2, t4, t5},
// exactly as in Section 2.2. The algorithm must finish with 6 queries:
// q1 (overflow), 3-way split at 55; q2 (overflow), 2-way split at 20;
// then q3, q4, q5, q6 all resolved.
TEST(RankShrinkTest, PaperFigure3Example) {
  SchemaPtr schema = Schema::Numeric(1);
  auto data = std::make_shared<Dataset>(schema);
  //            t1  t2  t3  t4  t5  t6  t7  t8
  for (Value v : {10, 20, 30, 35, 45, 55, 55, 55}) data->Add(Tuple({v}));
  // Top-4 priorities: t4, t6, t7, t8. Among {t1..t5}, t3 is lowest so q2
  // returns {t1, t2, t4, t5}.
  auto policy = std::make_unique<FixedPriorityPolicy>(
      std::vector<uint64_t>{50, 51, 10, 100, 52, 101, 102, 103});

  LocalServer server(data, /*k=*/4, std::move(policy));
  ProgressRecorder recorder;
  ObservedServer observed(&server, std::ref(recorder));
  RankShrink crawler;
  CrawlResult result = crawler.Crawl(&observed);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data));
  EXPECT_EQ(result.queries_issued, 6u);

  int overflows = 0, resolved = 0;
  for (const ProgressSample& e : recorder.samples()) {
    e.resolved ? ++resolved : ++overflows;
  }
  EXPECT_EQ(overflows, 2);
  EXPECT_EQ(resolved, 4);
}

// A 2-d instance in the spirit of Figure 4: duplicates concentrated on the
// vertical line A1 = 80 force a 3-way split whose middle slab is settled as
// a 1-d problem on A2.
TEST(RankShrinkTest, TwoDimensionalWithDuplicateColumn) {
  SchemaPtr schema = Schema::Numeric(2);
  auto data = std::make_shared<Dataset>(schema);
  // Six tuples on the line A1=80 with distinct A2, four off-line tuples.
  for (Value a2 : {5, 15, 25, 35, 45, 55}) data->Add(Tuple({80, a2}));
  data->Add(Tuple({10, 50}));
  data->Add(Tuple({30, 20}));
  data->Add(Tuple({60, 40}));
  data->Add(Tuple({95, 60}));
  LocalServer server(data, /*k=*/4);
  RankShrink crawler;
  CrawlResult result = crawler.Crawl(&server);
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data));
}

TEST(RankShrinkTest, HandlesAllIdenticalTuples) {
  SchemaPtr schema = Schema::Numeric(1);
  auto data = std::make_shared<Dataset>(schema);
  for (int i = 0; i < 7; ++i) data->Add(Tuple({42}));
  LocalServer server(data, /*k=*/8);
  RankShrink crawler;
  CrawlResult result = crawler.Crawl(&server);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.extracted.size(), 7u);
  EXPECT_EQ(result.queries_issued, 1u);  // the first query resolves
}

TEST(RankShrinkTest, DuplicateSlabJustBelowK) {
  SchemaPtr schema = Schema::Numeric(1);
  auto data = std::make_shared<Dataset>(schema);
  for (int i = 0; i < 4; ++i) data->Add(Tuple({7}));  // multiplicity == k
  for (Value v = 100; v < 120; ++v) data->Add(Tuple({v}));
  LocalServer server(data, /*k=*/4);
  RankShrink crawler;
  CrawlResult result = crawler.Crawl(&server);
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data));
}

TEST(RankShrinkTest, DetectsUnsolvableInstance) {
  SchemaPtr schema = Schema::Numeric(1);
  auto data = std::make_shared<Dataset>(schema);
  for (int i = 0; i < 5; ++i) data->Add(Tuple({7}));  // multiplicity k+1
  LocalServer server(data, /*k=*/4);
  RankShrink crawler;
  CrawlResult result = crawler.Crawl(&server);
  EXPECT_TRUE(result.status.IsUnsolvable()) << result.status.ToString();
}

TEST(RankShrinkTest, SmallKValues) {
  // k < 4 makes Case 1 unreachable (every split is 3-way); the algorithm
  // must still terminate and be exact.
  for (uint64_t k : {1u, 2u, 3u}) {
    SyntheticNumericOptions gen;
    gen.d = 2;
    gen.n = 60;
    gen.value_range = 40;
    gen.seed = 90 + k;
    Dataset data = GenerateSyntheticNumeric(gen);
    if (data.MaxPointMultiplicity() > k) continue;
    RankShrink crawler;
    ExpectExactExtraction(&crawler, data, k);
  }
}

TEST(RankShrinkTest, CostWithinTheorem1Bound) {
  // Lemma 2: cost <= alpha * d * n / k with alpha = 20 (the proof's
  // constant); allow headroom for the +1-ish terms on small inputs.
  for (size_t d : {1u, 2u, 3u}) {
    SyntheticNumericOptions gen;
    gen.d = d;
    gen.n = 4000;
    gen.value_range = 2000;
    gen.value_skew = 0.4;  // some ties to exercise 3-way splits
    gen.seed = 7 * d + 1;
    Dataset data = GenerateSyntheticNumeric(gen);
    const uint64_t k = 64;
    ASSERT_LE(data.MaxPointMultiplicity(), k);

    RankShrink crawler;
    CrawlResult result = ExpectExactExtraction(&crawler, data, k);
    const double bound =
        20.0 * static_cast<double>(d) * static_cast<double>(gen.n) /
            static_cast<double>(k) +
        8.0 * static_cast<double>(d) + 8.0;
    EXPECT_LE(static_cast<double>(result.queries_issued), bound)
        << "d=" << d;
  }
}

TEST(RankShrinkTest, AblatedFractionsStillExact) {
  SyntheticNumericOptions gen;
  gen.d = 2;
  gen.n = 800;
  gen.value_range = 300;
  gen.value_skew = 0.8;
  gen.seed = 55;
  Dataset data = GenerateSyntheticNumeric(gen);
  const uint64_t k = 16;
  ASSERT_LE(data.MaxPointMultiplicity(), k);

  for (double rank_fraction : {0.25, 0.5, 0.75}) {
    for (double three_way_fraction : {0.0, 0.125, 0.25}) {
      RankShrinkOptions options;
      options.rank_fraction = rank_fraction;
      options.three_way_fraction = three_way_fraction;
      RankShrink crawler(options);
      ExpectExactExtraction(&crawler, data, k);
    }
  }
}

TEST(RankShrinkTest, StateAlgorithmTag) {
  CrawlState state(Schema::Numeric(1), "rank-shrink",
                      FrontierItem::Kind::kRank);
  EXPECT_EQ(state.algorithm(), "rank-shrink");
  EXPECT_TRUE(state.Finished());
}

}  // namespace
}  // namespace hdc
