// Copyright (c) hdc authors. Apache-2.0 license.
//
// Batched crawling semantics. The contract under test: batch_size == 1
// reproduces the strictly sequential server conversation byte for byte
// (audit-log diff), and any batch_size yields the identical extraction
// and the identical query count — batching may only reorder the
// conversation, never grow or shrink it.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/crawlers.h"
#include "gen/synthetic.h"
#include "paper_categorical_example.h"
#include "server/decorators.h"
#include "server/local_server.h"

namespace hdc {
namespace {

struct BatchCase {
  std::string label;
  std::function<std::unique_ptr<Crawler>()> make_crawler;
  std::function<Dataset()> make_data;
  uint64_t k;
};

std::vector<BatchCase> MakeCases() {
  std::vector<BatchCase> cases;
  cases.push_back(
      {"rank_shrink", [] { return std::make_unique<RankShrink>(); },
       [] {
         SyntheticNumericOptions gen;
         gen.d = 2;
         gen.n = 800;
         gen.value_range = 400;
         gen.seed = 21;
         return GenerateSyntheticNumeric(gen);
       },
       8});
  cases.push_back(
      {"binary_shrink", [] { return std::make_unique<BinaryShrink>(); },
       [] {
         SyntheticNumericOptions gen;
         gen.d = 2;
         gen.n = 400;
         gen.value_range = 128;
         gen.seed = 22;
         return GenerateSyntheticNumeric(gen);
       },
       8});
  cases.push_back(
      {"dfs", [] { return std::make_unique<DfsCrawler>(); },
       [] {
         SyntheticCategoricalOptions gen;
         gen.domain_sizes = {5, 6, 4};
         gen.n = 600;
         gen.seed = 23;
         return GenerateSyntheticCategorical(gen);
       },
       8});
  cases.push_back(
      {"slice_cover",
       [] { return std::make_unique<SliceCoverCrawler>(false); },
       [] {
         SyntheticCategoricalOptions gen;
         gen.domain_sizes = {5, 6, 4};
         gen.n = 600;
         gen.seed = 24;
         return GenerateSyntheticCategorical(gen);
       },
       8});
  cases.push_back(
      {"lazy_slice_cover",
       [] { return std::make_unique<SliceCoverCrawler>(true); },
       [] {
         SyntheticCategoricalOptions gen;
         gen.domain_sizes = {5, 6, 4};
         gen.n = 600;
         gen.seed = 25;
         return GenerateSyntheticCategorical(gen);
       },
       8});
  cases.push_back(
      {"hybrid", [] { return std::make_unique<HybridCrawler>(); },
       [] {
         SyntheticMixedOptions gen;
         gen.domain_sizes = {4, 5};
         gen.num_numeric = 1;
         gen.n = 700;
         gen.value_range = 100;
         gen.seed = 26;
         return GenerateSyntheticMixed(gen);
       },
       8});
  return cases;
}

/// Full crawl of `test_case` at `batch_size`; returns {result, query log}.
std::pair<CrawlResult, std::string> LoggedCrawl(const BatchCase& test_case,
                                                const Dataset& data,
                                                uint64_t k,
                                                uint32_t batch_size,
                                                unsigned max_parallelism = 1) {
  auto shared = std::make_shared<Dataset>(data);
  LocalServerOptions server_options;
  server_options.max_parallelism = max_parallelism;
  LocalServer base(shared, k, nullptr, server_options);
  std::ostringstream log;
  ObservedServer logged(&base, AuditLog(&log));
  auto crawler = test_case.make_crawler();
  CrawlOptions options;
  options.batch_size = batch_size;
  CrawlResult result = crawler->Crawl(&logged, options);
  return {std::move(result), log.str()};
}

/// Log lines with the leading sequence index stripped — the order-free view
/// of the conversation.
std::vector<std::string> IndexFreeLines(const std::string& log) {
  std::vector<std::string> lines;
  std::istringstream in(log);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line.substr(line.find('\t') + 1));
  }
  return lines;
}

class BatchCrawlTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BatchCrawlTest, BatchSizeOneIsTheSequentialConversation) {
  const BatchCase test_case = MakeCases()[GetParam()];
  const Dataset data = test_case.make_data();
  const uint64_t k = std::max(test_case.k, data.MaxPointMultiplicity());

  // Default options (batch_size defaults to 1) vs explicit batch_size = 1:
  // the audit-log transcript must be byte-identical — batching is
  // invisible until it is asked for.
  auto [default_result, default_log] = LoggedCrawl(test_case, data, k, 1);
  ASSERT_TRUE(default_result.status.ok())
      << test_case.label << ": " << default_result.status.ToString();

  auto shared = std::make_shared<Dataset>(data);
  LocalServer base(shared, k);
  std::ostringstream log;
  ObservedServer logged(&base, AuditLog(&log));
  auto crawler = test_case.make_crawler();
  CrawlResult result = crawler->Crawl(&logged);  // default CrawlOptions
  ASSERT_TRUE(result.status.ok());

  EXPECT_EQ(default_log, log.str())
      << test_case.label << ": batch_size = 1 must not change the exact "
      << "query sequence";
  EXPECT_EQ(default_result.queries_issued, result.queries_issued);
}

TEST_P(BatchCrawlTest, AnyBatchSizeYieldsIdenticalExtractionAndCost) {
  const BatchCase test_case = MakeCases()[GetParam()];
  const Dataset data = test_case.make_data();
  const uint64_t k = std::max(test_case.k, data.MaxPointMultiplicity());

  auto [reference, reference_log] = LoggedCrawl(test_case, data, k, 1);
  ASSERT_TRUE(reference.status.ok())
      << test_case.label << ": " << reference.status.ToString();
  EXPECT_TRUE(Dataset::MultisetEquals(reference.extracted, data));
  std::vector<std::string> reference_lines = IndexFreeLines(reference_log);
  std::sort(reference_lines.begin(), reference_lines.end());

  for (uint32_t batch_size : {4u, 32u}) {
    auto [result, log] = LoggedCrawl(test_case, data, k, batch_size);
    ASSERT_TRUE(result.status.ok())
        << test_case.label << " @ batch " << batch_size << ": "
        << result.status.ToString();
    EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, data))
        << test_case.label << " @ batch " << batch_size;
    EXPECT_EQ(result.queries_issued, reference.queries_issued)
        << test_case.label << " @ batch " << batch_size
        << ": batching must not change the paper's cost metric";
    std::vector<std::string> lines = IndexFreeLines(log);
    std::sort(lines.begin(), lines.end());
    EXPECT_EQ(lines, reference_lines)
        << test_case.label << " @ batch " << batch_size
        << ": a batched crawl may reorder the conversation, not change it";
  }
}

TEST_P(BatchCrawlTest, ParallelServerMatchesSequentialConversation) {
  const BatchCase test_case = MakeCases()[GetParam()];
  const Dataset data = test_case.make_data();
  const uint64_t k = std::max(test_case.k, data.MaxPointMultiplicity());

  auto [reference, reference_log] = LoggedCrawl(test_case, data, k, 1);
  ASSERT_TRUE(reference.status.ok());

  auto [result, log] =
      LoggedCrawl(test_case, data, k, /*batch_size=*/16,
                  /*max_parallelism=*/4);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, data))
      << test_case.label;
  EXPECT_EQ(result.queries_issued, reference.queries_issued)
      << test_case.label;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, BatchCrawlTest,
                         ::testing::Range<size_t>(0, 6),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return MakeCases()[info.param].label;
                         });

// The paper's Figures 5/6 worked example: the equivalence gate the issue
// asks for, on the exact instance whose query count the paper walks
// through.
TEST(BatchCrawlTest, PaperCategoricalExampleEquivalentAcrossBatchSizes) {
  using testing_util::PaperFigure5Dataset;
  using testing_util::kPaperFigure5K;
  auto data = PaperFigure5Dataset();

  for (const bool lazy : {false, true}) {
    uint64_t reference_queries = 0;
    size_t reference_extracted = 0;
    for (uint32_t batch_size : {1u, 4u, 32u}) {
      LocalServer server(data, kPaperFigure5K);
      SliceCoverCrawler crawler(lazy);
      CrawlOptions options;
      options.batch_size = batch_size;
      CrawlResult result = crawler.Crawl(&server, options);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data));
      if (batch_size == 1) {
        reference_queries = result.queries_issued;
        reference_extracted = result.extracted.size();
      } else {
        EXPECT_EQ(result.queries_issued, reference_queries)
            << (lazy ? "lazy" : "eager") << " @ batch " << batch_size;
        EXPECT_EQ(result.extracted.size(), reference_extracted);
      }
    }
  }
}

}  // namespace
}  // namespace hdc
