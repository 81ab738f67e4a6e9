// Copyright (c) hdc authors. Apache-2.0 license.
//
// End-to-end crawls of the three paper-scale datasets, mirroring the setup
// of Section 6 (local server, random tuple priorities). These are the
// heavyweight tests: full cardinalities, multiple algorithms, exact
// multiset verification.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "core/crawlers.h"
#include "gen/adult_gen.h"
#include "gen/nsf_gen.h"
#include "gen/yahoo_gen.h"
#include "server/decorators.h"
#include "server/local_server.h"

namespace hdc {
namespace {

TEST(IntegrationTest, AdultNumericRankShrinkAtK256) {
  auto data = std::make_shared<Dataset>(GenerateAdultNumeric());
  LocalServer server(data, /*k=*/256);
  RankShrink crawler;
  CrawlResult result = crawler.Crawl(&server);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data));
  // Lemma 2 with alpha = 20: 20 * 6 * 45222 / 256 ~ 21k; real data costs
  // far less, but assert at least the proven envelope.
  EXPECT_LE(result.queries_issued, 22000u);
  EXPECT_GE(result.queries_issued,
            data->size() / 256);  // trivial n/k lower bound
}

TEST(IntegrationTest, NsfLazySliceCoverAtK256) {
  auto data = std::make_shared<Dataset>(GenerateNsf());
  LocalServer server(data, /*k=*/256);
  SliceCoverCrawler crawler(/*lazy=*/true);
  CrawlResult result = crawler.Crawl(&server);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data));
}

TEST(IntegrationTest, NsfDfsAtK1024) {
  auto data = std::make_shared<Dataset>(GenerateNsf());
  LocalServer server(data, /*k=*/1024);
  DfsCrawler crawler;
  CrawlResult result = crawler.Crawl(&server);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data));
}

TEST(IntegrationTest, YahooHybridAtK256) {
  auto data = std::make_shared<Dataset>(GenerateYahoo());
  LocalServer server(data, /*k=*/256);
  HybridCrawler crawler;
  CrawlResult result = crawler.Crawl(&server);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data));
}

TEST(IntegrationTest, YahooUnsolvableAtK64) {
  // Section 6: "there is no reported value for Yahoo at k = 64 because it
  // has more than 64 identical tuples".
  auto data = std::make_shared<Dataset>(GenerateYahoo());
  LocalServer server(data, /*k=*/64);
  EXPECT_FALSE(server.IsCrawlable());
  HybridCrawler crawler;
  CrawlResult result = crawler.Crawl(&server);
  EXPECT_TRUE(result.status.IsUnsolvable()) << result.status.ToString();
}

TEST(IntegrationTest, AdultHybridAtK64) {
  auto data = std::make_shared<Dataset>(GenerateAdult());
  LocalServer server(data, /*k=*/64);
  ASSERT_TRUE(server.IsCrawlable());
  HybridCrawler crawler;
  CrawlResult result = crawler.Crawl(&server);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data));
}

TEST(IntegrationTest, FactoryCrawlsEachDataset) {
  struct Case {
    Dataset data;
    uint64_t k;
  };
  AdultGeneratorOptions small_adult;
  small_adult.num_tuples = 8000;
  std::vector<Case> cases;
  cases.push_back({GenerateAdultNumeric(small_adult), 128});
  cases.push_back({GenerateAdult(small_adult), 128});
  for (auto& c : cases) {
    auto data = std::make_shared<Dataset>(c.data);
    LocalServer server(data, c.k);
    auto crawler = MakeOptimalCrawler(*data->schema());
    CrawlResult result = crawler->Crawl(&server);
    ASSERT_TRUE(result.status.ok())
        << crawler->name() << ": " << result.status.ToString();
    EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data));
  }
}

TEST(IntegrationTest, ProgressivenessIsRoughlyLinear) {
  // Figure 13's observation: tuples are output roughly in proportion to
  // queries spent. Assert a loose version: at half the queries, at least a
  // quarter of the rows have been seen.
  auto data = std::make_shared<Dataset>(GenerateYahoo());
  LocalServer server(data, /*k=*/256);
  ProgressRecorder recorder;
  ObservedServer observed(&server, std::ref(recorder));
  HybridCrawler crawler;
  CrawlResult result = crawler.Crawl(&observed);
  ASSERT_TRUE(result.status.ok());
  const std::vector<ProgressSample>& trace = recorder.samples();
  ASSERT_FALSE(trace.empty());
  const ProgressSample& mid = trace[trace.size() / 2];
  EXPECT_GE(mid.rows_seen, data->size() / 4);
}

}  // namespace
}  // namespace hdc
