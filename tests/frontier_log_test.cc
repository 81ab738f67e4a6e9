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
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/crawlers.h"
#include "core/slice_engine.h"
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

/// The full frontier encoding of `state`.
std::string FrontierText(const CrawlState& state) {
  std::ostringstream out;
  state.EncodeFrontier(&out);
  return out.str();
}

/// Number of leading lines `a` and `b` have in common.
size_t CommonLines(const std::string& a, const std::string& b) {
  size_t lines = 0;
  for (size_t i = 0; i < a.size() && i < b.size() && a[i] == b[i]; ++i) {
    if (a[i] == '\n') ++lines;
  }
  return lines;
}

/// True while the eager pass of `state` has a slice left to ask.
bool HasUnknownSlice(const SliceEngineState& state) {
  for (const std::vector<SliceEntry>& entries : state.slices) {
    for (size_t v = 1; v < entries.size(); ++v) {
      if (entries[v].state == SliceEntry::State::kUnknown) return true;
    }
  }
  return false;
}

/// True when `line` is a line of `text`.
bool HasLine(const std::string& text, const std::string& line) {
  return ("\n" + text).find("\n" + line + "\n") != std::string::npos;
}

/// A family whose fresh state the test can hold, so that on_commit can
/// compare the live state with what the log replays to.
template <typename Family>
class Exposed : public Family {
 public:
  using Family::Family;
  using Family::MakeInitialState;
};

struct OracleCase {
  std::string label;
  std::shared_ptr<const Dataset> data;
  /// A crawler of the family and its fresh state against `server`.
  std::function<std::pair<std::unique_ptr<Crawler>,
                          std::shared_ptr<CrawlState>>(HiddenDbServer*)>
      start;
};

template <typename Family, typename... Args>
auto Starter(Args... args) {
  return [=](HiddenDbServer* server) {
    auto crawler = std::make_unique<Exposed<Family>>(args...);
    std::shared_ptr<CrawlState> state =
        crawler->MakeInitialState(server, CrawlOptions{});
    return std::make_pair(std::unique_ptr<Crawler>(std::move(crawler)),
                          std::move(state));
  };
}

std::vector<OracleCase> OracleCases() {
  SyntheticNumericOptions num;
  num.d = 2;
  num.n = 150;
  num.value_range = 100;
  num.seed = 71;
  SyntheticCategoricalOptions cat;
  cat.domain_sizes = {5, 6, 4};
  cat.n = 150;
  cat.seed = 72;
  SyntheticMixedOptions mix;
  mix.domain_sizes = {4, 5};
  mix.num_numeric = 1;
  mix.n = 150;
  mix.value_range = 100;
  mix.seed = 73;
  auto numeric = std::make_shared<const Dataset>(GenerateSyntheticNumeric(num));
  auto categorical =
      std::make_shared<const Dataset>(GenerateSyntheticCategorical(cat));
  auto mixed = std::make_shared<const Dataset>(GenerateSyntheticMixed(mix));
  HybridOptions eager_hybrid;
  eager_hybrid.lazy = false;
  return {
      {"binary-shrink", numeric, Starter<BinaryShrink>()},
      {"rank-shrink", numeric, Starter<RankShrink>()},
      {"dfs", categorical, Starter<DfsCrawler>()},
      {"slice-cover", categorical, Starter<SliceCoverCrawler>(false)},
      {"lazy-slice-cover", categorical, Starter<SliceCoverCrawler>(true)},
      {"hybrid", mixed, Starter<HybridCrawler>(HybridOptions{})},
      {"eager hybrid", mixed, Starter<HybridCrawler>(eager_hybrid)},
  };
}

// Every commit encodes only the frontier lines its state marked as changed
// since the last one. The oracle is the full encoding: after each commit
// the log replays to exactly the live state's frontier, and the record's
// `keep` is the line-wise common prefix of the previous and current full
// encodings. Every family, at batch 1, 4 and auto, uninterrupted and
// stopped by a budget every 7 queries and resumed on the same writer (which
// stops eager slice-cover inside its up-front slice pass, and rotates the
// log every 8 KiB). A round record of the eager pass adds only the slice
// entries its round set, their bags and the item lines: nothing it wrote
// before.
TEST(FrontierLogTest, IncrementalCommitsMatchTheFullEncoding) {
  const std::string path = ::testing::TempDir() + "/hdc_flog_oracle.log";
  for (const OracleCase& test_case : OracleCases()) {
    for (const uint32_t batch : {1u, 4u, 0u}) {
      for (const uint64_t budget : {UINT64_MAX, uint64_t{7}}) {
        SCOPED_TRACE(test_case.label + " batch " + std::to_string(batch) +
                     " budget " + std::to_string(budget));
        std::remove(path.c_str());
        const uint64_t k =
            std::max<uint64_t>(8, test_case.data->MaxPointMultiplicity());
        LocalServerOptions server_options;
        server_options.max_parallelism = 4;
        LocalServer server(test_case.data, k, nullptr, server_options);
        auto [crawler, state] = test_case.start(&server);

        std::string previous;
        size_t rounds_checked = 0;
        size_t pass_rounds_checked = 0;
        bool pass_open = false;  // at the previous commit
        FrontierLogOptions log_options;
        log_options.sync = false;
        if (budget != UINT64_MAX) log_options.rotate_bytes = 8 << 10;
        log_options.on_commit = [&](uint64_t) {
          std::shared_ptr<CrawlState> replayed;
          ASSERT_TRUE(
              LoadCheckpointFile(path, test_case.data->schema(), &replayed)
                  .ok());
          const std::string live = FrontierText(*state);
          ASSERT_EQ(FrontierText(*replayed), live);
          EXPECT_EQ(replayed->queries_issued, state->queries_issued);
          EXPECT_EQ(replayed->tuples_collected, state->tuples_collected);
          const std::string log = ReadWholeFile(path);
          const size_t at = log.rfind("\nfrontier keep ");
          if (at != std::string::npos &&
              log.find("snapshot-end", at) == std::string::npos) {
            size_t keep = 0, add = 0;
            std::istringstream record(log.substr(at + 15));
            ASSERT_TRUE(record >> keep);
            std::string word;
            ASSERT_TRUE(record >> word >> add);
            EXPECT_EQ(keep, CommonLines(previous, live));
            EXPECT_EQ(keep + add,
                      static_cast<size_t>(
                          std::count(live.begin(), live.end(), '\n')));
            ++rounds_checked;
            std::string added;
            std::getline(record, added);  // the rest of the keep line
            for (size_t i = 0; pass_open && i < add; ++i) {
              ASSERT_TRUE(std::getline(record, added));
              EXPECT_TRUE(added.rfind("item ", 0) == 0 ||
                          added.rfind("bag ", 0) == 0 ||
                          (added.rfind("slice ", 0) == 0 &&
                           !HasLine(previous, added)))
                  << "an eager-pass round re-wrote: " << added;
            }
            pass_rounds_checked += pass_open ? 1 : 0;
          }
          previous = live;
          const auto* slice = dynamic_cast<SliceEngineState*>(state.get());
          pass_open = slice != nullptr && slice->eager &&
                      HasUnknownSlice(*slice);
        };
        std::unique_ptr<FrontierLogWriter> log;
        ASSERT_TRUE(FrontierLogWriter::Open(path, log_options, &log).ok());
        CrawlOptions options;
        options.batch_size = batch;
        options.max_queries = budget;
        options.frontier_log = log.get();

        bool stopped_in_pass = false;
        CrawlResult result = crawler->Resume(&server, state, options);
        while (result.status.IsResourceExhausted()) {
          ASSERT_EQ(result.resume_state, state);
          if (auto* slice = dynamic_cast<SliceEngineState*>(state.get())) {
            stopped_in_pass |= HasUnknownSlice(*slice);
          }
          result = crawler->Resume(&server, state, options);
        }
        ASSERT_TRUE(result.status.ok()) << result.status.ToString();
        EXPECT_TRUE(Dataset::MultisetEquals(result.extracted,
                                            *test_case.data));
        EXPECT_GT(rounds_checked, 2u);
        if (test_case.label == "slice-cover" ||
            test_case.label == "eager hybrid") {
          EXPECT_GT(pass_rounds_checked, 1u);
        }
        if (test_case.label == "slice-cover" && budget != UINT64_MAX) {
          EXPECT_TRUE(stopped_in_pass);
        }
      }
    }
  }
}

// The writer trusts a state's change marks only when its own last
// successful commit set them. Committing a different state B after A
// encodes B from its first line, though B's marks (set by another writer)
// claim nothing changed; committing A again does the same.
TEST(FrontierLogTest, AForeignStateIsEncodedInFull) {
  Dataset data = MakeData(67);
  auto shared = std::make_shared<Dataset>(data);
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());
  const std::string path = ::testing::TempDir() + "/hdc_flog_foreign.log";
  const std::string other = ::testing::TempDir() + "/hdc_flog_other.log";
  std::remove(path.c_str());
  std::remove(other.c_str());
  FrontierLogOptions log_options;
  log_options.sync = false;

  auto crawl = [&](const std::string& log_path, uint64_t budget,
                   std::unique_ptr<FrontierLogWriter>* log) {
    EXPECT_TRUE(FrontierLogWriter::Open(log_path, log_options, log).ok());
    LocalServer server(shared, k);
    HybridCrawler crawler;
    CrawlOptions options;
    options.max_queries = budget;
    options.frontier_log = log->get();
    CrawlResult partial = crawler.Crawl(&server, options);
    EXPECT_TRUE(partial.status.IsResourceExhausted());
    return partial.resume_state;
  };
  std::unique_ptr<FrontierLogWriter> log, other_log;
  std::shared_ptr<CrawlState> a = crawl(path, 10, &log);
  std::shared_ptr<CrawlState> b = crawl(other, 30, &other_log);
  ASSERT_NE(FrontierText(*a), FrontierText(*b));

  for (const std::shared_ptr<CrawlState>& state : {b, a, b}) {
    const uint64_t commits = log->commits();
    ASSERT_TRUE(log->Commit(*state).ok());
    EXPECT_EQ(log->commits(), commits + 1);
    std::shared_ptr<CrawlState> replayed;
    ASSERT_TRUE(LoadCheckpointFile(path, data.schema(), &replayed).ok());
    EXPECT_EQ(FrontierText(*replayed), FrontierText(*state));
    EXPECT_EQ(replayed->queries_issued, state->queries_issued);
  }
}

}  // namespace
}  // namespace hdc
