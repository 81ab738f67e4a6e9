// Copyright (c) hdc authors. Apache-2.0 license.
//
// CrawlService / ServerSession semantics: a single-session service is
// byte-for-byte the classic LocalServer conversation, session metering
// (stats, budget, log, trace, schema view) is per session, and the shared
// LocalIndex serves any number of servers without cross-talk.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/crawlers.h"
#include "gen/synthetic.h"
#include "server/crawl_service.h"
#include "server/decorators.h"
#include "server/local_server.h"
#include "test_util.h"

namespace hdc {
namespace {

std::shared_ptr<const Dataset> CategoricalData(uint64_t seed = 31) {
  SyntheticCategoricalOptions gen;
  gen.domain_sizes = {5, 6, 4};
  gen.n = 800;
  gen.seed = seed;
  return std::make_shared<const Dataset>(GenerateSyntheticCategorical(gen));
}

std::shared_ptr<const Dataset> NumericData(uint64_t seed = 32) {
  SyntheticNumericOptions gen;
  gen.d = 2;
  gen.n = 600;
  gen.value_range = 300;
  gen.seed = seed;
  return std::make_shared<const Dataset>(GenerateSyntheticNumeric(gen));
}

struct AlgoCase {
  std::string label;
  std::function<std::unique_ptr<Crawler>()> make_crawler;
  bool categorical;
};

std::vector<AlgoCase> AllAlgorithms() {
  return {
      {"rank_shrink", [] { return std::make_unique<RankShrink>(); }, false},
      {"binary_shrink", [] { return std::make_unique<BinaryShrink>(); },
       false},
      {"dfs", [] { return std::make_unique<DfsCrawler>(); }, true},
      {"slice_cover",
       [] { return std::make_unique<SliceCoverCrawler>(false); }, true},
      {"lazy_slice_cover",
       [] { return std::make_unique<SliceCoverCrawler>(true); }, true},
      {"hybrid", [] { return std::make_unique<HybridCrawler>(); }, true},
  };
}

// The acceptance gate: for every algorithm, one service session with an
// audit log reproduces the LocalServer + QueryLogServer transcript byte
// for byte.
TEST(CrawlServiceTest, SingleSessionTranscriptMatchesLocalServer) {
  for (const AlgoCase& algo : AllAlgorithms()) {
    auto data = algo.categorical ? CategoricalData() : NumericData();
    const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());

    // Classic stack: a private LocalServer behind a QueryLogServer.
    std::ostringstream classic_log;
    LocalServer server(data, k);
    QueryLogServer logged(&server, &classic_log);
    CrawlResult classic = algo.make_crawler()->Crawl(&logged);
    ASSERT_TRUE(classic.status.ok())
        << algo.label << ": " << classic.status.ToString();

    // Service stack: one session, same ranking (both default-seeded).
    std::ostringstream session_log;
    CrawlService service(data, k);
    SessionOptions options;
    options.query_log = &session_log;
    auto session = service.CreateSession(options);
    CrawlResult result = algo.make_crawler()->Crawl(session.get());
    ASSERT_TRUE(result.status.ok())
        << algo.label << ": " << result.status.ToString();

    EXPECT_EQ(classic_log.str(), session_log.str())
        << algo.label
        << ": a single-session service must reproduce the sequential "
        << "conversation byte for byte";
    EXPECT_EQ(classic.queries_issued, result.queries_issued) << algo.label;
    EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data))
        << algo.label;
    EXPECT_EQ(session->queries_served(), result.queries_issued) << algo.label;
    EXPECT_EQ(session->logged(), session->queries_served()) << algo.label;
  }
}

TEST(CrawlServiceTest, SessionsMeterIndependently) {
  auto data = CategoricalData();
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());
  CrawlService service(data, k);

  auto first = service.CreateSession();
  auto second = service.CreateSession();
  EXPECT_EQ(service.sessions_created(), 2u);
  EXPECT_NE(first->id(), second->id());

  DfsCrawler dfs;
  CrawlResult r1 = dfs.Crawl(first.get());
  ASSERT_TRUE(r1.status.ok());
  EXPECT_EQ(first->queries_served(), r1.queries_issued);
  EXPECT_EQ(second->queries_served(), 0u)
      << "an idle session must not be billed for another's crawl";

  SliceCoverCrawler lazy(true);
  CrawlResult r2 = lazy.Crawl(second.get());
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(first->queries_served(), r1.queries_issued);
  EXPECT_EQ(second->queries_served(), r2.queries_issued);
  EXPECT_GT(second->tuples_returned(), 0u);
}

TEST(CrawlServiceTest, SessionBudgetInterruptsAndRefills) {
  auto data = CategoricalData();
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());
  CrawlService service(data, k);

  SessionOptions options;
  options.max_queries = 25;
  auto session = service.CreateSession(options);
  EXPECT_EQ(session->budget_remaining(), 25u);

  DfsCrawler dfs;
  CrawlResult result = dfs.Crawl(session.get());
  ASSERT_TRUE(result.status.IsResourceExhausted())
      << result.status.ToString();
  ASSERT_NE(result.resume_state, nullptr);
  EXPECT_EQ(session->queries_served(), 25u);
  EXPECT_EQ(session->budget_remaining(), 0u);

  // A fresh allotment lets the same crawl resume to completion; other
  // sessions never saw the quota.
  while (result.status.IsResourceExhausted()) {
    session->RefillBudget(25);
    result = dfs.Resume(session.get(), result.resume_state);
  }
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data));
  EXPECT_EQ(session->queries_served(), result.queries_issued);

  // An unbudgeted session reports an unlimited allowance.
  auto unmetered = service.CreateSession();
  EXPECT_EQ(unmetered->budget_remaining(), kUnlimitedQueries);
}

TEST(CrawlServiceTest, SessionObserverSeesEveryAnsweredQuery) {
  auto data = CategoricalData();
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());
  CrawlService service(data, k);

  uint64_t observed = 0;
  SessionOptions options;
  options.observer = [&observed](const Query&, const Response&) {
    ++observed;
  };
  options.label = "observed";
  auto session = service.CreateSession(options);
  EXPECT_EQ(session->label(), "observed");

  DfsCrawler dfs;
  CrawlResult result = dfs.Crawl(session.get());
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(observed, result.queries_issued);
  EXPECT_EQ(session->queries_served(), result.queries_issued);
}

TEST(CrawlServiceTest, SchemaOverrideSessionCrawlsTheNarrowedView) {
  auto data = NumericData();
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());
  CrawlService service(data, k);

  // Narrow attribute 0 to the lower half of its domain.
  std::vector<AttributeSpec> attrs;
  for (size_t i = 0; i < data->schema()->num_attributes(); ++i) {
    attrs.push_back(data->schema()->attribute(i));
  }
  const Value mid = (attrs[0].lo + attrs[0].hi) / 2;
  attrs[0].hi = mid;
  SessionOptions options;
  options.schema_override = Schema::Make(std::move(attrs));
  auto session = service.CreateSession(options);

  RankShrink rank;
  CrawlResult result = rank.Crawl(session.get());
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  // The extraction is exactly the narrowed slice of the dataset.
  size_t expected = 0;
  for (size_t i = 0; i < data->size(); ++i) {
    if (data->tuple(i)[0] <= mid) ++expected;
  }
  EXPECT_EQ(result.extracted.size(), expected);
  for (size_t i = 0; i < result.extracted.size(); ++i) {
    EXPECT_LE(result.extracted.tuple(i)[0], mid);
  }
}

TEST(CrawlServiceTest, SharedIndexServesManyServers) {
  auto data = CategoricalData();
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());
  auto index = std::make_shared<const LocalIndex>(data, k);

  // Two LocalServers and a service over one index: identical conversations,
  // independent statistics.
  LocalServer a(index), b(index);
  CrawlService service(index);
  auto session = service.CreateSession();

  DfsCrawler dfs;
  CrawlResult ra = dfs.Crawl(&a);
  CrawlResult rb = dfs.Crawl(&b);
  CrawlResult rs = dfs.Crawl(session.get());
  ASSERT_TRUE(ra.status.ok());
  EXPECT_EQ(ra.queries_issued, rb.queries_issued);
  EXPECT_EQ(ra.queries_issued, rs.queries_issued);
  EXPECT_EQ(a.queries_served(), b.queries_served());
  EXPECT_EQ(a.queries_served(), session->queries_served());
  EXPECT_TRUE(Dataset::MultisetEquals(rs.extracted, *data));
}

TEST(CrawlServiceTest, AutoBatchSizeKeepsExtractionAndCost) {
  auto data = CategoricalData();
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());

  for (const AlgoCase& algo : AllAlgorithms()) {
    if (!algo.categorical) continue;
    // Reference: sequential conversation over a single-lane service.
    CrawlService sequential(data, k);
    auto seq_session = sequential.CreateSession();
    CrawlResult reference = algo.make_crawler()->Crawl(seq_session.get());
    ASSERT_TRUE(reference.status.ok()) << algo.label;

    // Auto batch over a parallel service: same cost, same extraction.
    CrawlServiceOptions wide;
    wide.max_parallelism = 4;
    CrawlService parallel(data, k, nullptr, wide);
    auto par_session = parallel.CreateSession();
    CrawlOptions options;
    options.batch_size = 0;  // auto
    CrawlResult result = algo.make_crawler()->Crawl(par_session.get(),
                                                    options);
    ASSERT_TRUE(result.status.ok()) << algo.label;
    EXPECT_EQ(result.queries_issued, reference.queries_issued) << algo.label;
    EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data))
        << algo.label;
  }
}

// Auto batch against a single-lane server degenerates to round size 1 and
// must stay byte-identical to the sequential transcript.
TEST(CrawlServiceTest, AutoBatchOnSingleLaneIsSequential) {
  auto data = CategoricalData();
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());

  std::ostringstream sequential_log, auto_log;
  {
    LocalServer server(data, k);
    QueryLogServer logged(&server, &sequential_log);
    DfsCrawler dfs;
    ASSERT_TRUE(dfs.Crawl(&logged).status.ok());
  }
  {
    CrawlService service(data, k);  // max_parallelism = 1
    SessionOptions options;
    options.query_log = &auto_log;
    auto session = service.CreateSession(options);
    DfsCrawler dfs;
    CrawlOptions crawl;
    crawl.batch_size = 0;  // auto
    ASSERT_TRUE(dfs.Crawl(session.get(), crawl).status.ok());
  }
  EXPECT_EQ(sequential_log.str(), auto_log.str());
}

TEST(CrawlServiceDeathTest, ZeroParallelismIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto data = CategoricalData();
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());

  EXPECT_DEATH(
      {
        CrawlServiceOptions options;
        options.max_parallelism = 0;
        CrawlService service(data, k, nullptr, options);
      },
      "max_parallelism must be >= 1");
  EXPECT_DEATH(
      {
        LocalServerOptions options;
        options.max_parallelism = 0;
        LocalServer server(data, k, nullptr, options);
      },
      "max_parallelism must be >= 1");
}

// The service-operator view: MetricsSnapshot reports live sessions with
// their own accounting, remembers retired sessions' totals, and never
// mixes the two up.
TEST(CrawlServiceTest, MetricsSnapshotTracksSessionsAndTotals) {
  auto data = CategoricalData();
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());
  CrawlServiceOptions options;
  options.max_parallelism = 2;
  CrawlService service(data, k, nullptr, options);

  SessionOptions metered;
  metered.label = "metered";
  metered.max_queries = 1000;
  metered.weight = 3;
  auto first = service.CreateSession(metered);
  auto second = service.CreateSession();

  DfsCrawler dfs;
  CrawlResult r1 = dfs.Crawl(first.get());
  ASSERT_TRUE(r1.status.ok());

  CrawlServiceMetrics metrics = service.MetricsSnapshot();
  EXPECT_EQ(metrics.sessions_created, 2u);
  EXPECT_EQ(metrics.sessions_active, 2u);
  EXPECT_EQ(metrics.pool_threads, 1u);
  EXPECT_EQ(metrics.queries_served, r1.queries_issued);
  EXPECT_GT(metrics.queries_per_second, 0.0);
  ASSERT_EQ(metrics.sessions.size(), 2u);
  EXPECT_EQ(metrics.sessions[0].label, "metered");
  EXPECT_EQ(metrics.sessions[0].weight, 3u);
  EXPECT_EQ(metrics.sessions[0].queries_served, r1.queries_issued);
  EXPECT_EQ(metrics.sessions[0].budget_remaining,
            1000u - r1.queries_issued);
  EXPECT_EQ(metrics.sessions[1].queries_served, 0u);
  EXPECT_EQ(metrics.sessions[1].budget_remaining, kUnlimitedQueries);

  // Retiring a session moves its bill into the service totals.
  first.reset();
  metrics = service.MetricsSnapshot();
  EXPECT_EQ(metrics.sessions_active, 1u);
  EXPECT_EQ(metrics.sessions_created, 2u);
  EXPECT_EQ(metrics.queries_served, r1.queries_issued);
  ASSERT_EQ(metrics.sessions.size(), 1u);
  EXPECT_EQ(metrics.sessions[0].queries_served, 0u);
}

// First shape of crawl-session persistence: a crawl interrupted inside a
// schema_override session checkpoints under the *narrowed* schema, and the
// checkpoint must load back when the resuming process only holds the
// service's full schema — then finish, in a fresh session, with exactly
// the conversation the uninterrupted crawl would have had.
TEST(CrawlServiceTest, SessionResumeRoundTripAcrossNarrowedSchema) {
  auto data = NumericData();
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());
  CrawlService service(data, k);

  std::vector<AttributeSpec> attrs;
  for (size_t i = 0; i < data->schema()->num_attributes(); ++i) {
    attrs.push_back(data->schema()->attribute(i));
  }
  const Value mid = (attrs[0].lo + attrs[0].hi) / 2;
  attrs[0].hi = mid;
  SchemaPtr narrowed = Schema::Make(std::move(attrs));

  // Uninterrupted ground truth over the narrowed view.
  BinaryShrink crawler;
  SessionOptions view;
  view.schema_override = narrowed;
  CrawlResult uninterrupted(narrowed);
  {
    auto session = service.CreateSession(view);
    uninterrupted = crawler.Crawl(session.get());
    ASSERT_TRUE(uninterrupted.status.ok())
        << uninterrupted.status.ToString();
  }

  // Interrupt the same crawl mid-flight and checkpoint it — under the
  // session's (narrowed) schema, the space the crawl runs in.
  std::stringstream checkpoint;
  uint64_t spent = 0;
  {
    auto session = service.CreateSession(view);
    CrawlOptions budget;
    budget.max_queries = 20;
    CrawlResult partial = crawler.Crawl(session.get(), budget);
    ASSERT_TRUE(partial.status.IsResourceExhausted())
        << partial.status.ToString();
    ASSERT_NE(partial.resume_state, nullptr);
    spent = partial.queries_issued;
    ASSERT_TRUE(SaveCheckpoint(*partial.resume_state, *session->schema(),
                               &checkpoint)
                    .ok());
  }

  // A fresh process restores it holding only the service's full schema:
  // the compatible narrowed schema is accepted and the state comes back
  // bound to it.
  std::shared_ptr<CrawlState> restored;
  Status load = LoadCheckpoint(&checkpoint, service.schema(), &restored);
  ASSERT_TRUE(load.ok()) << load.ToString();
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(*restored->extracted.schema() == *narrowed);
  EXPECT_EQ(restored->queries_issued, spent);

  // Resume in a fresh session presenting the restored state's own view.
  SessionOptions resumed_view;
  resumed_view.schema_override = restored->extracted.schema();
  auto session = service.CreateSession(resumed_view);
  CrawlResult done = crawler.Resume(session.get(), restored);
  ASSERT_TRUE(done.status.ok()) << done.status.ToString();
  EXPECT_EQ(done.queries_issued, uninterrupted.queries_issued)
      << "interrupt + resume must not change the total query bill";
  EXPECT_TRUE(
      Dataset::MultisetEquals(done.extracted, uninterrupted.extracted));
}

TEST(CrawlServiceDeathTest, RefillWithoutBudgetIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto data = CategoricalData();
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());
  CrawlService service(data, k);
  auto session = service.CreateSession();
  EXPECT_DEATH(session->RefillBudget(10), "without max_queries");
}

}  // namespace
}  // namespace hdc
