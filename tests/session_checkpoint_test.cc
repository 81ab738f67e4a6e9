// Copyright (c) hdc authors. Apache-2.0 license.
//
// Composed session+crawl checkpoints: one file carrying the service-side
// budget accounting alongside the crawl state, so an operator can stop a
// budgeted extraction and continue it in a new process — either with the
// remaining quota restored, or against a fresh daily quota
// (SessionResumeOptions::restore_budget = false).
#include "core/session_checkpoint.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/crawlers.h"
#include "gen/synthetic.h"
#include "server/crawl_service.h"
#include "server/local_server.h"

namespace hdc {
namespace {

std::shared_ptr<Dataset> MakeData(uint64_t seed) {
  SyntheticCategoricalOptions gen;
  gen.domain_sizes = {5, 6, 4};
  gen.n = 450;
  gen.seed = seed;
  return std::make_shared<Dataset>(GenerateSyntheticCategorical(gen));
}

TEST(SessionCheckpointTest, BudgetAndCrawlStateRoundTrip) {
  auto data = MakeData(91);
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());
  CrawlService service(data, k);

  SessionOptions session_options;
  session_options.label = "nightly crawl #7";  // hostile: spaces survive
  session_options.max_queries = 40;
  auto session = service.CreateSession(session_options);

  DfsCrawler crawler;
  CrawlResult partial = crawler.Crawl(session.get());
  ASSERT_TRUE(partial.status.IsResourceExhausted());
  const uint64_t remaining = session->budget_remaining();
  EXPECT_EQ(remaining, 0u);

  std::stringstream stream;
  ASSERT_TRUE(
      SaveSessionCheckpoint(*session, *partial.resume_state, &stream).ok());

  // A fresh budgeted session in a new process picks up the recorded
  // remaining quota...
  SessionOptions fresh_options;
  fresh_options.max_queries = 500;  // will be overwritten by the checkpoint
  auto resumed_session = service.CreateSession(fresh_options);
  std::shared_ptr<CrawlState> restored;
  ASSERT_TRUE(
      LoadSessionCheckpoint(&stream, resumed_session.get(), &restored).ok());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(resumed_session->budget_remaining(), remaining);
  EXPECT_EQ(restored->queries_issued, partial.resume_state->queries_issued);

  // ...and with zero quota left the resume immediately runs dry again.
  DfsCrawler resumed_crawler;
  CrawlResult still_dry = resumed_crawler.Resume(resumed_session.get(),
                                                 restored);
  EXPECT_TRUE(still_dry.status.IsResourceExhausted());
}

TEST(SessionCheckpointTest, DailyQuotaResumeCompletesAcrossRuns) {
  auto data = MakeData(92);
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());
  CrawlService service(data, k);

  // Reference, unbudgeted.
  auto ref_session = service.CreateSession();
  DfsCrawler ref_crawler;
  CrawlResult reference = ref_crawler.Crawl(ref_session.get());
  ASSERT_TRUE(reference.status.ok());

  const std::string path = ::testing::TempDir() + "/hdc_session_ckpt.txt";
  constexpr uint64_t kDailyQuota = 23;

  // Day 1.
  SessionOptions day_options;
  day_options.label = "daily";
  day_options.max_queries = kDailyQuota;
  auto session = service.CreateSession(day_options);
  DfsCrawler crawler;
  CrawlResult result = crawler.Crawl(session.get());
  int days = 1;
  while (result.status.IsResourceExhausted()) {
    ASSERT_LT(days, 1000);
    ASSERT_TRUE(SaveSessionCheckpointFile(*session, *result.resume_state,
                                          path).ok());
    // Next day, next process: fresh session with a fresh quota; the
    // checkpoint's spent budget is deliberately NOT restored.
    session = service.CreateSession(day_options);
    std::shared_ptr<CrawlState> restored;
    SessionResumeOptions resume_options;
    resume_options.restore_budget = false;
    ASSERT_TRUE(LoadSessionCheckpointFile(path, session.get(), &restored,
                                          resume_options).ok());
    EXPECT_EQ(session->budget_remaining(), kDailyQuota);
    DfsCrawler next;
    result = next.Resume(session.get(), restored);
    ++days;
  }
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GT(days, 1);
  EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data));
  EXPECT_EQ(result.queries_issued, reference.queries_issued);
}

TEST(SessionCheckpointTest, ResumingBudgetedCheckpointNeedsABudgetedSession) {
  auto data = MakeData(93);
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());
  CrawlService service(data, k);

  SessionOptions budgeted;
  budgeted.max_queries = 30;
  auto session = service.CreateSession(budgeted);
  DfsCrawler crawler;
  CrawlResult partial = crawler.Crawl(session.get());
  ASSERT_TRUE(partial.status.IsResourceExhausted());

  std::stringstream stream;
  ASSERT_TRUE(
      SaveSessionCheckpoint(*session, *partial.resume_state, &stream).ok());

  // An unlimited session cannot silently adopt a budgeted checkpoint: the
  // recorded remaining quota would be unenforceable.
  auto unlimited = service.CreateSession();
  std::shared_ptr<CrawlState> restored;
  Status s = LoadSessionCheckpoint(&stream, unlimited.get(), &restored);
  EXPECT_EQ(s.code(), Status::Code::kFailedPrecondition) << s.ToString();
  EXPECT_EQ(restored, nullptr);

  // Explicitly declining budget restoration makes the same resume legal.
  std::stringstream again;
  ASSERT_TRUE(
      SaveSessionCheckpoint(*session, *partial.resume_state, &again).ok());
  SessionResumeOptions no_budget;
  no_budget.restore_budget = false;
  ASSERT_TRUE(LoadSessionCheckpoint(&again, unlimited.get(), &restored,
                                    no_budget).ok());
  ASSERT_NE(restored, nullptr);
  DfsCrawler finisher;
  CrawlResult done = finisher.Resume(unlimited.get(), restored);
  ASSERT_TRUE(done.status.ok());
  EXPECT_TRUE(Dataset::MultisetEquals(done.extracted, *data));
}

TEST(SessionCheckpointTest, RecordedLabelSurvivesHostileCharacters) {
  auto data = MakeData(94);
  CrawlService service(data, std::max<uint64_t>(8, data->MaxPointMultiplicity()));
  const std::string hostile = "quota: day #2,\nshard\t5";
  SessionOptions session_options;
  session_options.label = hostile;
  session_options.max_queries = 10;
  auto session = service.CreateSession(session_options);
  DfsCrawler crawler;
  CrawlResult partial = crawler.Crawl(session.get());
  ASSERT_TRUE(partial.status.IsResourceExhausted());
  const uint64_t recorded_budget = session->budget_remaining();

  std::ostringstream out;
  ASSERT_TRUE(
      SaveSessionCheckpoint(*session, *partial.resume_state, &out).ok());

  // The escaped label keeps the record on one line: the file still loads
  // and the recorded budget is restored.
  SessionOptions target_options;
  target_options.label = "target";
  target_options.max_queries = 25;
  auto target = service.CreateSession(target_options);
  std::istringstream in(out.str());
  std::shared_ptr<CrawlState> restored;
  ASSERT_TRUE(LoadSessionCheckpoint(&in, target.get(), &restored).ok());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(target->budget_remaining(), recorded_budget);
  // The label is an identity fixed at creation, never overwritten.
  EXPECT_EQ(target->label(), "target");

  // The record itself carries the label exactly.
  std::istringstream again(out.str());
  SessionRecord record;
  ASSERT_TRUE(LoadCheckpoint(&again, data->schema(), &restored, &record).ok());
  EXPECT_EQ(record.label, hostile);
  EXPECT_EQ(record.budget_remaining, recorded_budget);
}

TEST(SessionCheckpointTest, TruncatedSessionHeaderIsTypedAndAtomic) {
  auto data = MakeData(95);
  CrawlService service(data, std::max<uint64_t>(8, data->MaxPointMultiplicity()));
  SessionOptions budgeted;
  budgeted.max_queries = 10;
  auto session = service.CreateSession(budgeted);
  DfsCrawler crawler;
  CrawlResult partial = crawler.Crawl(session.get());
  ASSERT_TRUE(partial.status.IsResourceExhausted());

  std::ostringstream out;
  ASSERT_TRUE(
      SaveSessionCheckpoint(*session, *partial.resume_state, &out).ok());
  const std::string text = out.str();

  // A load into `target` of `prefix` must fail typed, naming a line, and
  // leave both the output state and the session budget untouched.
  auto target = service.CreateSession(budgeted);
  const uint64_t before = target->budget_remaining();
  ASSERT_NE(before, session->budget_remaining());
  auto expect_atomic_failure = [&](const std::string& prefix) {
    std::istringstream in(prefix);
    std::shared_ptr<CrawlState> restored;
    Status s = LoadSessionCheckpoint(&in, target.get(), &restored);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.message().find("line"), std::string::npos) << s.ToString();
    EXPECT_EQ(restored, nullptr);
    // A failed resume never half-applies: the budget is untouched.
    EXPECT_EQ(target->budget_remaining(), before)
        << "prefix of " << prefix.size() << " bytes";
  };

  // Cut inside the header (first two lines).
  const size_t second_newline = text.find('\n', text.find('\n') + 1);
  ASSERT_NE(second_newline, std::string::npos);
  expect_atomic_failure(text.substr(0, second_newline));

  // Cut at every line boundary before the end of the file.
  for (size_t cut = 0; cut < text.size() - 1;
       cut = text.find('\n', cut) + 1) {
    expect_atomic_failure(text.substr(0, cut));
  }
}

}  // namespace
}  // namespace hdc
