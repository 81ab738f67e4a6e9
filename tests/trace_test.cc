// Copyright (c) hdc authors. Apache-2.0 license.
//
// The progress trace drives the progressiveness reproduction (Figure 13).
// It is recorded at the server boundary by a ProgressRecorder on an
// ObservedServer directly beneath the crawler, and must be complete,
// monotone and consistent with the final result — across resumes and
// batched rounds too.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "core/crawlers.h"
#include "gen/synthetic.h"
#include "server/decorators.h"
#include "server/local_server.h"

namespace hdc {
namespace {

CrawlResult TracedCrawl(Crawler* crawler, std::shared_ptr<Dataset> data,
                        uint64_t k, ProgressRecorder* recorder,
                        const CrawlOptions& options = {}) {
  LocalServer server(std::move(data), k);
  ObservedServer observed(&server, std::ref(*recorder));
  CrawlResult result = crawler->Crawl(&observed, options);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  return result;
}

void CheckTraceInvariants(const CrawlResult& result,
                          const ProgressRecorder& recorder, size_t n) {
  const std::vector<ProgressSample>& trace = recorder.samples();
  ASSERT_EQ(trace.size(), result.queries_issued);
  uint64_t prev_seen = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    const ProgressSample& e = trace[i];
    EXPECT_EQ(e.query_index, i + 1);
    EXPECT_GE(e.rows_seen, prev_seen) << "rows_seen must be monotone";
    EXPECT_LE(e.rows_seen - prev_seen, e.returned)
        << "a query reveals at most the rows it returned";
    prev_seen = e.rows_seen;
  }
  EXPECT_EQ(trace.back().rows_seen, result.rows_seen)
      << "the recorder beneath the crawler counts the crawl's seen rows";
  EXPECT_EQ(result.tuples_collected, n);
  EXPECT_EQ(result.rows_seen, n)
      << "a complete crawl has seen every physical row";
}

TEST(TraceTest, RankShrinkTraceInvariants) {
  SyntheticNumericOptions gen;
  gen.d = 2;
  gen.n = 900;
  gen.value_range = 300;
  gen.seed = 42;
  auto data = std::make_shared<Dataset>(GenerateSyntheticNumeric(gen));
  RankShrink crawler;
  // Batched rounds too: every member of every round is recorded.
  for (const uint32_t batch_size : {1u, 8u}) {
    CrawlOptions options;
    options.batch_size = batch_size;
    ProgressRecorder recorder;
    CrawlResult result = TracedCrawl(&crawler, data, 8, &recorder, options);
    CheckTraceInvariants(result, recorder, gen.n);
  }
}

TEST(TraceTest, LazySliceCoverTraceInvariants) {
  SyntheticCategoricalOptions gen;
  gen.domain_sizes = {6, 8, 10};
  gen.n = 900;
  gen.seed = 43;
  auto data = std::make_shared<Dataset>(GenerateSyntheticCategorical(gen));
  SliceCoverCrawler crawler(/*lazy=*/true);
  ProgressRecorder recorder;
  CrawlResult result = TracedCrawl(&crawler, data, 64, &recorder);
  CheckTraceInvariants(result, recorder, gen.n);
}

TEST(TraceTest, HybridTraceInvariants) {
  SyntheticMixedOptions gen;
  gen.domain_sizes = {4, 4};
  gen.num_numeric = 2;
  gen.n = 900;
  gen.value_range = 200;
  gen.seed = 44;
  auto data = std::make_shared<Dataset>(GenerateSyntheticMixed(gen));
  HybridCrawler crawler;
  ProgressRecorder recorder;
  CrawlResult result = TracedCrawl(&crawler, data, 8, &recorder);
  CheckTraceInvariants(result, recorder, gen.n);
}

TEST(TraceTest, TraceSurvivesResume) {
  SyntheticNumericOptions gen;
  gen.d = 1;
  gen.n = 500;
  gen.value_range = 300;
  gen.seed = 46;
  auto data = std::make_shared<Dataset>(GenerateSyntheticNumeric(gen));
  LocalServer server(data, 8);
  // The caller owns the recorder, so one recorder spans the crawl and every
  // resume.
  ProgressRecorder recorder;
  ObservedServer observed(&server, std::ref(recorder));
  RankShrink crawler;
  CrawlOptions options;
  options.max_queries = 5;
  CrawlResult result = crawler.Crawl(&observed, options);
  int guard = 0;
  while (result.status.IsResourceExhausted() && ++guard < 1000) {
    result = crawler.Resume(&observed, result.resume_state, options);
  }
  ASSERT_TRUE(result.status.ok());
  CheckTraceInvariants(result, recorder, gen.n);
}

}  // namespace
}  // namespace hdc
