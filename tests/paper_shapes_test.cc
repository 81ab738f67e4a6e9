// Copyright (c) hdc authors. Apache-2.0 license.
//
// Regression tests for the *reproduction claims* themselves: the
// qualitative shapes of Figures 10-13 (who wins, how cost scales, where
// feasibility breaks) asserted against the full-size generated datasets.
// If a generator or algorithm change silently breaks a reproduced trend,
// these tests catch it before EXPERIMENTS.md goes stale.
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

uint64_t Cost(Crawler* crawler, std::shared_ptr<const Dataset> data,
              uint64_t k) {
  LocalServer server(std::move(data), k);
  CrawlResult result = crawler->Crawl(&server);
  EXPECT_TRUE(result.status.ok())
      << crawler->name() << ": " << result.status.ToString();
  return result.queries_issued;
}

class PaperShapes : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    adult_numeric_ =
        new std::shared_ptr<const Dataset>(
            std::make_shared<const Dataset>(GenerateAdultNumeric()));
    nsf_ = new std::shared_ptr<const Dataset>(
        std::make_shared<const Dataset>(GenerateNsf()));
    yahoo_ = new std::shared_ptr<const Dataset>(
        std::make_shared<const Dataset>(GenerateYahoo()));
  }
  static void TearDownTestSuite() {
    delete adult_numeric_;
    delete nsf_;
    delete yahoo_;
  }

  static std::shared_ptr<const Dataset>* adult_numeric_;
  static std::shared_ptr<const Dataset>* nsf_;
  static std::shared_ptr<const Dataset>* yahoo_;
};

std::shared_ptr<const Dataset>* PaperShapes::adult_numeric_ = nullptr;
std::shared_ptr<const Dataset>* PaperShapes::nsf_ = nullptr;
std::shared_ptr<const Dataset>* PaperShapes::yahoo_ = nullptr;

// Figure 10a: rank-shrink <= binary-shrink at every k, and rank-shrink's
// cost roughly halves as k doubles (inverse linearity).
TEST_F(PaperShapes, Fig10aRankShrinkWinsAndScalesInverselyInK) {
  uint64_t previous = 0;
  for (uint64_t k : {64, 256, 1024}) {
    BinaryShrink binary;
    RankShrink rank;
    const uint64_t bcost = Cost(&binary, *adult_numeric_, k);
    const uint64_t rcost = Cost(&rank, *adult_numeric_, k);
    EXPECT_LE(rcost, bcost) << "k=" << k;
    if (previous > 0) {
      // 4x the k must cut cost by at least 2x.
      EXPECT_LT(2 * rcost, previous) << "k=" << k;
    }
    previous = rcost;
  }
}

// Figure 10b: rank-shrink is nearly flat in d (within 1.5x between d=3 and
// d=6) because Adult-numeric rarely triggers 3-way splits.
TEST_F(PaperShapes, Fig10bRankShrinkFlatInD) {
  const uint64_t k = 256;
  RankShrink rank;
  auto d3 = std::make_shared<const Dataset>(
      (*adult_numeric_)->Project((*adult_numeric_)->TopDistinctAttributes(3)));
  const uint64_t cost3 = Cost(&rank, d3, k);
  const uint64_t cost6 = Cost(&rank, *adult_numeric_, k);
  EXPECT_LT(cost6, cost3 + cost3 / 2) << "cost must not grow ~linearly in d";
}

// Figure 11a: lazy-slice-cover beats both DFS and eager slice-cover at
// every k; eager stays within a narrow band around Sigma U_i.
TEST_F(PaperShapes, Fig11aLazyWinsEverywhereEagerFlat) {
  const uint64_t sigma_u = (*nsf_)->schema()->TotalCategoricalDomain();
  for (uint64_t k : {128, 256, 1024}) {
    DfsCrawler dfs;
    SliceCoverCrawler eager(false), lazy(true);
    const uint64_t dcost = Cost(&dfs, *nsf_, k);
    const uint64_t ecost = Cost(&eager, *nsf_, k);
    const uint64_t lcost = Cost(&lazy, *nsf_, k);
    EXPECT_LT(lcost, dcost) << "k=" << k;
    EXPECT_LT(lcost, ecost) << "k=" << k;
    EXPECT_GE(ecost, sigma_u) << "eager pays all slices";
    EXPECT_LE(ecost, 2 * sigma_u) << "eager stays near Sigma U_i";
  }
}

// Figure 12: hybrid's cost falls with k on both mixed datasets, and Yahoo
// is infeasible at k = 64 while Adult is not.
TEST_F(PaperShapes, Fig12HybridScalesAndYahooGapAtK64) {
  EXPECT_GT((*yahoo_)->MaxPointMultiplicity(), 64u);

  HybridCrawler hybrid;
  uint64_t previous = UINT64_MAX;
  for (uint64_t k : {128, 256, 512, 1024}) {
    const uint64_t cost = Cost(&hybrid, *yahoo_, k);
    EXPECT_LT(cost, previous) << "k=" << k;
    previous = cost;
  }
  // The abstract's headline: a few hundred queries at k ~ 1000.
  EXPECT_LT(previous, 1000u);

  LocalServer server_at_64(*yahoo_, 64);
  HybridCrawler again;
  CrawlResult blocked = again.Crawl(&server_at_64);
  EXPECT_TRUE(blocked.status.IsUnsolvable());
}

// Figure 13: progressiveness — at half the queries, at least a third of
// Yahoo's rows have been retrieved.
TEST_F(PaperShapes, Fig13ProgressivenessNearLinear) {
  LocalServer server(*yahoo_, 256);
  ProgressRecorder recorder;
  ObservedServer observed(&server, std::ref(recorder));
  HybridCrawler hybrid;
  CrawlResult result = hybrid.Crawl(&observed);
  ASSERT_TRUE(result.status.ok());
  const std::vector<ProgressSample>& trace = recorder.samples();
  ASSERT_FALSE(trace.empty());
  const ProgressSample& mid = trace[trace.size() / 2];
  EXPECT_GE(3 * mid.rows_seen, (*yahoo_)->size());
}

}  // namespace
}  // namespace hdc
