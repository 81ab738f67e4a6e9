// Copyright (c) hdc authors. Apache-2.0 license.
//
// The write-ahead frontier log. Every round boundary appends a durable
// delta; replaying the log after a crash reconstructs the state of the last
// committed round, and a torn tail — the only damage a crash can inflict,
// since snapshots are written atomically — is discarded, never misread.
#include "core/frontier_log.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/crawlers.h"
#include "gen/synthetic.h"
#include "server/local_server.h"
#include "util/macros.h"

namespace hdc {
namespace {

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

uint64_t FileSize(const std::string& path) {
  return ReadWholeFile(path).size();
}

Dataset MakeData(uint64_t seed) {
  SyntheticMixedOptions gen;
  gen.domain_sizes = {4, 5};
  gen.num_numeric = 1;
  gen.n = 500;
  gen.value_range = 120;
  gen.seed = seed;
  return GenerateSyntheticMixed(gen);
}

TEST(FrontierLogTest, ReplayReconstructsTheInterruptedState) {
  Dataset data = MakeData(61);
  auto shared = std::make_shared<Dataset>(data);
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());

  // Reference, uninterrupted.
  LocalServer ref_server(shared, k);
  HybridCrawler ref_crawler;
  CrawlResult reference = ref_crawler.Crawl(&ref_server);
  ASSERT_TRUE(reference.status.ok());

  const std::string path = ::testing::TempDir() + "/hdc_flog_replay.log";
  std::remove(path.c_str());

  // Interrupted crawl, logging every round.
  LocalServer server(shared, k);
  std::unique_ptr<FrontierLogWriter> log;
  ASSERT_TRUE(FrontierLogWriter::Open(path, FrontierLogOptions{}, &log).ok());
  HybridCrawler crawler;
  CrawlOptions options;
  options.max_queries = 25;
  options.frontier_log = log.get();
  CrawlResult partial = crawler.Crawl(&server, options);
  ASSERT_TRUE(partial.status.IsResourceExhausted());
  ASSERT_GT(log->commits(), 0u);

  // Replay recovers exactly the state at the last committed round: with a
  // commit every round, that is the in-memory resume state.
  std::shared_ptr<CrawlState> replayed;
  ASSERT_TRUE(LoadCheckpointFile(path, data.schema(), &replayed).ok());
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->queries_issued, partial.resume_state->queries_issued);
  EXPECT_TRUE(Dataset::MultisetEquals(replayed->extracted,
                                      partial.resume_state->extracted));

  // Resuming the replayed state finishes with reference totals.
  HybridCrawler resumed_crawler;
  CrawlResult done = resumed_crawler.Resume(&server, replayed);
  ASSERT_TRUE(done.status.ok());
  EXPECT_TRUE(Dataset::MultisetEquals(done.extracted, data));
  EXPECT_EQ(done.queries_issued, reference.queries_issued);
}

TEST(FrontierLogTest, TornTailIsDiscardedAtEveryByteOffset) {
  Dataset data = MakeData(62);
  auto shared = std::make_shared<Dataset>(data);
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());

  const std::string path = ::testing::TempDir() + "/hdc_flog_torn.log";
  std::remove(path.c_str());
  LocalServer server(shared, k);
  std::unique_ptr<FrontierLogWriter> log;
  FrontierLogOptions log_options;
  log_options.sync = false;  // speed: durability is not what we test here
  ASSERT_TRUE(FrontierLogWriter::Open(path, log_options, &log).ok());
  HybridCrawler crawler;
  CrawlOptions options;
  options.frontier_log = log.get();
  CrawlResult full = crawler.Crawl(&server, options);
  ASSERT_TRUE(full.status.ok());

  const std::string bytes = ReadWholeFile(path);
  // Snapshots are written via atomic rename, so a crash can only tear the
  // *appended* region after the snapshot.
  const std::string marker = "snapshot-end\n";
  const size_t marker_pos = bytes.find(marker);
  ASSERT_NE(marker_pos, std::string::npos);
  const size_t tail_start = marker_pos + marker.size();
  ASSERT_LT(tail_start, bytes.size()) << "crawl appended no round records";

  // Each torn prefix is replayed from memory: the reader takes any stream.
  uint64_t last_queries = 0;
  for (size_t offset = tail_start; offset <= bytes.size(); ++offset) {
    std::istringstream torn(bytes.substr(0, offset));
    std::shared_ptr<CrawlState> replayed;
    Status s = LoadCheckpoint(&torn, data.schema(), &replayed);
    ASSERT_TRUE(s.ok()) << "offset " << offset << ": " << s.ToString();
    ASSERT_NE(replayed, nullptr) << "offset " << offset;
    // Progress is monotone in the prefix length and never overshoots the
    // final state.
    EXPECT_GE(replayed->queries_issued, last_queries) << "offset " << offset;
    EXPECT_LE(replayed->queries_issued, full.queries_issued);
    last_queries = replayed->queries_issued;
  }
  // The untorn log replays to the completed crawl.
  std::shared_ptr<CrawlState> final_state;
  ASSERT_TRUE(LoadCheckpointFile(path, data.schema(), &final_state).ok());
  EXPECT_EQ(final_state->queries_issued, full.queries_issued);
  EXPECT_TRUE(final_state->Finished());
  EXPECT_TRUE(Dataset::MultisetEquals(final_state->extracted, data));
}

/// Caps the size of any file this process writes, with SIGXFSZ ignored so
/// a write past the cap fails with EFBIG instead of killing the process.
/// The destructor restores the previous limit and handler.
class FileSizeCap {
 public:
  FileSizeCap() {
    HDC_CHECK(::getrlimit(RLIMIT_FSIZE, &saved_) == 0);
    previous_handler_ = std::signal(SIGXFSZ, SIG_IGN);
  }
  ~FileSizeCap() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, previous_handler_);
  }
  void Lower(rlim_t bytes) {
    rlimit capped = saved_;
    capped.rlim_cur = bytes;
    HDC_CHECK(::setrlimit(RLIMIT_FSIZE, &capped) == 0);
  }
  void Restore() { HDC_CHECK(::setrlimit(RLIMIT_FSIZE, &saved_) == 0); }

 private:
  rlimit saved_{};
  void (*previous_handler_)(int) = SIG_DFL;
};

TEST(FrontierLogTest, FailedAppendIsNeverBuiltOn) {
  Dataset data = MakeData(66);
  auto shared = std::make_shared<Dataset>(data);
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());
  LocalServer ref_server(shared, k);
  HybridCrawler ref_crawler;
  CrawlResult reference = ref_crawler.Crawl(&ref_server);
  ASSERT_TRUE(reference.status.ok());

  for (const rlim_t cut : {1u, 7u, 40u, 200u}) {
    SCOPED_TRACE("append cut " + std::to_string(cut) + " bytes in");
    const std::string path = ::testing::TempDir() + "/hdc_flog_cut.log";
    std::remove(path.c_str());
    FileSizeCap cap;
    FrontierLogOptions log_options;
    log_options.sync = false;
    // After commit 3 the file may grow only `cut` more bytes: the next
    // append is cut short and fails.
    log_options.on_commit = [&cap, &path, cut](uint64_t seq) {
      if (seq == 3) cap.Lower(static_cast<rlim_t>(FileSize(path)) + cut);
    };
    std::unique_ptr<FrontierLogWriter> log;
    ASSERT_TRUE(FrontierLogWriter::Open(path, log_options, &log).ok());
    LocalServer server(shared, k);
    HybridCrawler crawler;
    CrawlOptions options;
    options.frontier_log = log.get();
    CrawlResult partial = crawler.Crawl(&server, options);
    cap.Restore();
    ASSERT_FALSE(partial.status.ok());
    ASSERT_NE(partial.resume_state, nullptr);

    // Resume with the same writer: it must not append after the cut bytes.
    CrawlResult done = crawler.Resume(&server, partial.resume_state, options);
    ASSERT_TRUE(done.status.ok()) << done.status.ToString();
    EXPECT_EQ(done.queries_issued, reference.queries_issued);

    std::shared_ptr<CrawlState> replayed;
    ASSERT_TRUE(LoadCheckpointFile(path, data.schema(), &replayed).ok());
    EXPECT_TRUE(replayed->Finished());
    EXPECT_EQ(replayed->queries_issued, reference.queries_issued);
    EXPECT_TRUE(Dataset::MultisetEquals(replayed->extracted, data));
  }
}

TEST(FrontierLogTest, RotationResnapshotsAndStaysReplayable) {
  Dataset data = MakeData(63);
  auto shared = std::make_shared<Dataset>(data);
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());

  const std::string path = ::testing::TempDir() + "/hdc_flog_rotate.log";
  std::remove(path.c_str());
  LocalServer server(shared, k);
  std::unique_ptr<FrontierLogWriter> log;
  FrontierLogOptions log_options;
  log_options.rotate_bytes = 512;  // force frequent re-snapshots
  log_options.sync = false;
  ASSERT_TRUE(FrontierLogWriter::Open(path, log_options, &log).ok());
  HybridCrawler crawler;
  CrawlOptions options;
  options.frontier_log = log.get();
  CrawlResult full = crawler.Crawl(&server, options);
  ASSERT_TRUE(full.status.ok());

  // Rotation kept the file near the rotate threshold instead of growing
  // with the whole crawl history.
  EXPECT_LT(FileSize(path), 512u + 8u * 4096u);

  std::shared_ptr<CrawlState> replayed;
  ASSERT_TRUE(LoadCheckpointFile(path, data.schema(), &replayed).ok());
  EXPECT_TRUE(replayed->Finished());
  EXPECT_EQ(replayed->queries_issued, full.queries_issued);
  EXPECT_TRUE(Dataset::MultisetEquals(replayed->extracted, data));
}

TEST(FrontierLogTest, MissingLogIsNotFound) {
  std::shared_ptr<CrawlState> replayed;
  Status s = LoadCheckpointFile(::testing::TempDir() + "/hdc_no_such_flog",
                               Schema::Numeric(1), &replayed);
  EXPECT_EQ(s.code(), Status::Code::kNotFound) << s.ToString();
  EXPECT_EQ(replayed, nullptr);
}

TEST(FrontierLogTest, NoOpCommitsDoNotGrowTheLog) {
  Dataset data = MakeData(64);
  auto shared = std::make_shared<Dataset>(data);
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());

  const std::string path = ::testing::TempDir() + "/hdc_flog_noop.log";
  std::remove(path.c_str());
  LocalServer server(shared, k);
  std::unique_ptr<FrontierLogWriter> log;
  ASSERT_TRUE(FrontierLogWriter::Open(path, FrontierLogOptions{}, &log).ok());
  HybridCrawler crawler;
  CrawlOptions options;
  options.max_queries = 15;
  options.frontier_log = log.get();
  CrawlResult partial = crawler.Crawl(&server, options);
  ASSERT_TRUE(partial.status.IsResourceExhausted());

  const uint64_t size_before = FileSize(path);
  const uint64_t commits_before = log->commits();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(log->Commit(*partial.resume_state).ok());
  }
  EXPECT_EQ(FileSize(path), size_before);
  EXPECT_EQ(log->commits(), commits_before);
}

TEST(FrontierLogTest, OnCommitFiresOncePerRoundInOrder) {
  Dataset data = MakeData(65);
  auto shared = std::make_shared<Dataset>(data);
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());

  const std::string path = ::testing::TempDir() + "/hdc_flog_cb.log";
  std::remove(path.c_str());
  LocalServer server(shared, k);
  std::vector<uint64_t> seqs;
  FrontierLogOptions log_options;
  log_options.sync = false;
  log_options.on_commit = [&seqs](uint64_t seq) { seqs.push_back(seq); };
  std::unique_ptr<FrontierLogWriter> log;
  ASSERT_TRUE(FrontierLogWriter::Open(path, log_options, &log).ok());
  HybridCrawler crawler;
  CrawlOptions options;
  options.frontier_log = log.get();
  CrawlResult full = crawler.Crawl(&server, options);
  ASSERT_TRUE(full.status.ok());

  ASSERT_EQ(seqs.size(), log->commits());
  for (size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], seqs[i - 1] + 1);
  }
}

}  // namespace
}  // namespace hdc
