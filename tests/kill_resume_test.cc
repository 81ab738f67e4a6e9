// Copyright (c) hdc authors. Apache-2.0 license.
//
// Kill-and-resume: the frontier log's headline guarantee. A crawling
// process is hard-aborted (_exit, no destructors — the moral equivalent of
// SIGKILL) at randomized round boundaries; a fresh process replays the log
// and resumes. Across every crawler family the final extraction and the
// total billed query count must be identical to an uninterrupted run, and
// no completed round may ever be billed twice.
//
// Billing accounting, per killed generation g:
//   the child's server bills queries_served() queries; the log's replayed
//   state advances from Q_g to Q_{g+1}. Zero re-billing means
//   billed_g == Q_{g+1} - Q_g exactly — every billed query is committed,
//   every committed query was billed once. Those deltas telescope, so the
//   cumulative bill across all generations equals the reference total.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/crawlers.h"
#include "core/frontier_log.h"
#include "gen/synthetic.h"
#include "server/local_server.h"
#include "util/macros.h"
#include "util/random.h"

namespace hdc {
namespace {

struct KillCase {
  std::string label;
  std::function<std::unique_ptr<Crawler>()> make_crawler;
  std::function<Dataset()> make_data;
};

std::vector<KillCase> MakeCases() {
  std::vector<KillCase> cases;
  cases.push_back({"rank_shrink", [] { return std::make_unique<RankShrink>(); },
                   [] {
                     SyntheticNumericOptions gen;
                     gen.d = 2;
                     gen.n = 500;
                     gen.value_range = 250;
                     gen.seed = 71;
                     return GenerateSyntheticNumeric(gen);
                   }});
  cases.push_back({"binary_shrink",
                   [] { return std::make_unique<BinaryShrink>(); },
                   [] {
                     SyntheticNumericOptions gen;
                     gen.d = 2;
                     gen.n = 250;
                     gen.value_range = 64;
                     gen.seed = 72;
                     return GenerateSyntheticNumeric(gen);
                   }});
  cases.push_back({"dfs", [] { return std::make_unique<DfsCrawler>(); },
                   [] {
                     SyntheticCategoricalOptions gen;
                     gen.domain_sizes = {5, 7, 6};
                     gen.n = 450;
                     gen.seed = 73;
                     return GenerateSyntheticCategorical(gen);
                   }});
  cases.push_back({"slice_cover",
                   [] { return std::make_unique<SliceCoverCrawler>(false); },
                   [] {
                     SyntheticCategoricalOptions gen;
                     gen.domain_sizes = {5, 7, 6};
                     gen.n = 450;
                     gen.seed = 74;
                     return GenerateSyntheticCategorical(gen);
                   }});
  cases.push_back({"lazy_slice_cover",
                   [] { return std::make_unique<SliceCoverCrawler>(true); },
                   [] {
                     SyntheticCategoricalOptions gen;
                     gen.domain_sizes = {5, 7, 6};
                     gen.n = 450;
                     gen.seed = 75;
                     return GenerateSyntheticCategorical(gen);
                   }});
  cases.push_back({"hybrid", [] { return std::make_unique<HybridCrawler>(); },
                   [] {
                     SyntheticMixedOptions gen;
                     gen.domain_sizes = {4, 5};
                     gen.num_numeric = 1;
                     gen.n = 450;
                     gen.value_range = 120;
                     gen.seed = 76;
                     return GenerateSyntheticMixed(gen);
                   }});
  return cases;
}

constexpr int kExitComplete = 0;
constexpr int kExitKilled = 3;
constexpr int kExitError = 9;

// One crawling process generation: replay (or start fresh), crawl, and
// hard-abort via _exit inside the on_commit hook once `kill_after_commits`
// durable commits have landed. Runs in the forked child; no gtest, no
// destructors, no buffered stdio on the result files.
void RunGeneration(const KillCase& test_case, const std::string& log_path,
                   const std::string& billed_path,
                   const std::string& result_path,
                   uint64_t kill_after_commits) {
  Dataset data = test_case.make_data();
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());
  auto shared = std::make_shared<Dataset>(data);
  LocalServer server(shared, k);

  std::shared_ptr<CrawlState> replayed;
  Status replay = LoadCheckpointFile(log_path, data.schema(), &replayed);
  if (!replay.ok() && replay.code() != Status::Code::kNotFound) {
    _exit(kExitError);
  }

  uint64_t commits_this_run = 0;
  FrontierLogOptions log_options;
  log_options.on_commit = [&](uint64_t) {
    if (++commits_this_run < kill_after_commits) return;
    // Crash point: the commit is durable, nothing after it is. Record how
    // much this process was billed, then die without unwinding.
    std::string bytes = std::to_string(server.queries_served()) + "\n";
    if (!WriteFileDurably(billed_path, bytes).ok()) _exit(kExitError);
    _exit(kExitKilled);
  };
  std::unique_ptr<FrontierLogWriter> log;
  if (!FrontierLogWriter::Open(log_path, log_options, &log).ok()) {
    _exit(kExitError);
  }

  auto crawler = test_case.make_crawler();
  CrawlOptions options;
  options.frontier_log = log.get();
  CrawlResult result = replayed == nullptr
                           ? crawler->Crawl(&server, options)
                           : crawler->Resume(&server, replayed, options);
  if (!result.status.ok()) _exit(kExitError);

  // Survived every kill point: report the finished crawl.
  std::ostringstream out;
  out << result.queries_issued << "\n" << result.extracted.size() << "\n";
  std::string line;
  for (const Tuple& t : result.extracted.tuples()) {
    line.clear();
    AppendTupleTokens(t, &line);
    out << line << "\n";
  }
  std::string billed = std::to_string(server.queries_served()) + "\n";
  if (!WriteFileDurably(billed_path, billed).ok()) _exit(kExitError);
  if (!WriteFileDurably(result_path, out.str()).ok()) _exit(kExitError);
  _exit(kExitComplete);
}

uint64_t ReadCounterFile(const std::string& path) {
  std::ifstream in(path);
  uint64_t v = 0;
  in >> v;
  HDC_CHECK_MSG(static_cast<bool>(in), "missing counter file");
  return v;
}

class KillResumeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KillResumeTest, ResumesWithZeroRebilledQueries) {
  const KillCase test_case = MakeCases()[GetParam()];
  Dataset data = test_case.make_data();
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());
  auto shared = std::make_shared<Dataset>(data);

  // Uninterrupted ground truth.
  LocalServer ref_server(shared, k);
  auto ref_crawler = test_case.make_crawler();
  CrawlResult reference = ref_crawler->Crawl(&ref_server);
  ASSERT_TRUE(reference.status.ok());
  ASSERT_GT(reference.queries_issued, 20u) << "dataset too easy to crawl";

  const std::string base =
      ::testing::TempDir() + "/hdc_kill_" + test_case.label;
  const std::string log_path = base + ".log";
  const std::string billed_path = base + ".billed";
  const std::string result_path = base + ".result";
  std::remove(log_path.c_str());
  std::remove(billed_path.c_str());
  std::remove(result_path.c_str());

  Rng rng(900 + GetParam());
  uint64_t committed_queries = 0;  // Q_g: replayed progress before gen g
  uint64_t cumulative_billed = 0;
  int generations = 0;
  bool complete = false;
  while (!complete) {
    ASSERT_LT(generations, 500) << "crawl never completed";
    // Randomized kill point, in durable commits; occasionally far enough
    // out that the generation completes.
    const uint64_t kill_after = 1 + rng.UniformU64(8);

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      RunGeneration(test_case, log_path, billed_path, result_path,
                    kill_after);
      _exit(kExitError);  // unreachable
    }
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus)) << test_case.label;
    const int code = WEXITSTATUS(wstatus);
    ASSERT_TRUE(code == kExitComplete || code == kExitKilled)
        << test_case.label << ": child exit code " << code;
    ++generations;

    const uint64_t billed = ReadCounterFile(billed_path);
    cumulative_billed += billed;

    std::shared_ptr<CrawlState> replayed;
    ASSERT_TRUE(
        LoadCheckpointFile(log_path, data.schema(), &replayed).ok());
    // Zero re-billing, both directions: the server billed exactly the
    // queries the log durably committed this generation.
    EXPECT_EQ(billed, replayed->queries_issued - committed_queries)
        << test_case.label << " generation " << generations;
    committed_queries = replayed->queries_issued;

    complete = (code == kExitComplete);
  }
  ASSERT_GT(generations, 1) << "no generation was actually killed";

  // The surviving generation's report: byte-identical totals and
  // extraction versus the uninterrupted reference.
  std::ifstream result(result_path);
  ASSERT_TRUE(result.good());
  uint64_t total_queries = 0, tuple_count = 0;
  result >> total_queries >> tuple_count;
  result.ignore();  // trailing newline
  EXPECT_EQ(total_queries, reference.queries_issued) << test_case.label;
  EXPECT_EQ(cumulative_billed, reference.queries_issued) << test_case.label;

  Dataset extracted(data.schema());
  const size_t arity = data.schema()->num_attributes();
  for (uint64_t i = 0; i < tuple_count; ++i) {
    std::string line;
    ASSERT_TRUE(static_cast<bool>(std::getline(result, line)));
    std::istringstream tokens(line);
    Tuple t;
    ASSERT_TRUE(DecodeTupleTokens(&tokens, arity, &t).ok()) << line;
    extracted.Add(t);
  }
  EXPECT_TRUE(Dataset::MultisetEquals(extracted, data)) << test_case.label;
  EXPECT_TRUE(Dataset::MultisetEquals(extracted, reference.extracted))
      << test_case.label;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, KillResumeTest,
                         ::testing::Range<size_t>(0, 6),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return MakeCases()[info.param].label;
                         });

}  // namespace
}  // namespace hdc
