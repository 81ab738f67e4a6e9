// Copyright (c) hdc authors. Apache-2.0 license.
//
// Daily quota per process run: extract a hidden database that only grants
// N top-k queries per day, surviving both the daily cutoff and outright
// crashes, without ever re-billing a completed round.
//
// Each invocation is one "day": a fresh process, a fresh ServerSession with
// a fresh daily budget. Three durability pieces cooperate:
//
//   * the write-ahead frontier log (core/frontier_log.h) commits a durable
//     delta at every round boundary — a SIGKILL mid-day loses at most the
//     round in flight, never a billed-and-committed one;
//   * the session checkpoint (core/session_checkpoint.h) records the
//     service-side budget next to the crawl state at the graceful daily
//     cutoff; resuming with restore_budget off is exactly the "new day,
//     new quota" pattern;
//   * the extraction streams through a CrawlSink into a CSV (materialize
//     off, constant memory); on resume the file is truncated to the log's
//     collected watermark, so uncommitted tail rows are dropped together
//     with their uncommitted rounds.
//
// Modes:
//   $ ./daily_quota
//       self-contained demo: loops day-runs in process until the crawl
//       completes, then verifies the CSV against the source dataset and
//       the cumulative bill against an uninterrupted reference run.
//   $ ./daily_quota --state-dir DIR [--quota N] [--crash-after-commits C]
//       one day per invocation (the CI-nightly shape). Exit codes:
//       0 = extraction complete and verified, 2 = quota exhausted
//       (progress saved; run again "tomorrow"), 3 = deliberate crash after
//       C commits (the kill-resume drill), 1 = failure.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/crawl_sink.h"
#include "core/crawlers.h"
#include "core/frontier_log.h"
#include "core/session_checkpoint.h"
#include "gen/synthetic.h"
#include "server/crawl_service.h"

namespace {

using namespace hdc;

// The hidden database is deterministic, so every process run (and the
// verification) sees the same ground truth.
std::shared_ptr<const Dataset> MakeHiddenDatabase() {
  SyntheticMixedOptions gen;
  gen.domain_sizes = {6, 4};
  gen.num_numeric = 1;
  gen.n = 2000;
  gen.value_range = 5000;
  gen.seed = 47;
  return std::make_shared<const Dataset>(GenerateSyntheticMixed(gen));
}

std::string CsvLine(const Tuple& t) {
  std::string line;
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) line += ',';
    line += std::to_string(t[i]);
  }
  return line;
}

// Keeps the first `keep` rows of the extraction CSV — the frontier log's
// collected watermark. Rows past it belong to rounds whose commit never
// landed; the resumed crawl will re-extract them.
bool TruncateCsvToWatermark(const std::string& path, uint64_t keep) {
  std::ifstream in(path);
  if (!in.good()) return keep == 0;
  std::string rebuilt, line;
  uint64_t kept = 0;
  while (kept < keep && std::getline(in, line)) {
    rebuilt += line;
    rebuilt += '\n';
    ++kept;
  }
  if (kept < keep) {
    std::printf("error: CSV holds %llu rows but the log committed %llu\n",
                static_cast<unsigned long long>(kept),
                static_cast<unsigned long long>(keep));
    return false;
  }
  return WriteFileDurably(path, rebuilt).ok();
}

bool VerifyCsv(const std::string& path, const Dataset& truth) {
  Dataset extracted(truth.schema());
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::vector<Value> values;
    std::istringstream fields(line);
    std::string field;
    while (std::getline(fields, field, ',')) {
      values.push_back(std::strtoll(field.c_str(), nullptr, 10));
    }
    extracted.Add(Tuple(std::move(values)));
  }
  return Dataset::MultisetEquals(extracted, truth);
}

// One day: resume whatever state survives in `state_dir`, spend at most
// `quota` queries, and either finish (0), hit the cutoff (2), or — when
// `crash_after_commits` > 0 — die mid-crawl without unwinding (3).
int RunDay(const std::string& state_dir, uint64_t quota,
           uint64_t crash_after_commits) {
  const std::string log_path = state_dir + "/frontier.log";
  const std::string ckpt_path = state_dir + "/session.ckpt";
  const std::string csv_path = state_dir + "/extraction.csv";

  auto data = MakeHiddenDatabase();
  CrawlService service(data, /*k=*/25);
  SessionOptions session_options;
  session_options.label = "daily-quota crawl";
  session_options.max_queries = quota;
  auto session = service.CreateSession(session_options);

  // Recover: the frontier log is authoritative (it commits every round);
  // the session checkpoint only exists after a *graceful* cutoff and its
  // budget record is deliberately ignored — today has today's quota. Both
  // files share one format and one reader (core/checkpoint.h).
  std::shared_ptr<CrawlState> state;
  Status replay = LoadCheckpointFile(log_path, session->schema(), &state);
  if (!replay.ok() && replay.code() != Status::Code::kNotFound) {
    std::printf("frontier log replay failed: %s\n",
                replay.ToString().c_str());
    return 1;
  }
  if (state == nullptr) {
    SessionResumeOptions new_day;
    new_day.restore_budget = false;
    Status load =
        LoadSessionCheckpointFile(ckpt_path, session.get(), &state, new_day);
    if (!load.ok() && load.code() != Status::Code::kNotFound) {
      std::printf("session checkpoint load failed: %s\n",
                  load.ToString().c_str());
      return 1;
    }
  }
  const uint64_t watermark = state != nullptr ? state->tuples_collected : 0;
  if (!TruncateCsvToWatermark(csv_path, watermark)) return 1;

  // Stream rows straight to the CSV; flushing per row keeps the file ahead
  // of (never behind) every durable commit, so the watermark truncation
  // above can always make the pair consistent after a kill.
  std::ofstream csv(csv_path, std::ios::app);
  CallbackSink sink([&csv](const Tuple& t) {
    csv << CsvLine(t) << '\n';
    csv.flush();
  });

  uint64_t commits_today = 0;
  FrontierLogOptions log_options;
  log_options.on_commit = [&](uint64_t) {
    if (crash_after_commits > 0 && ++commits_today >= crash_after_commits) {
      std::printf("simulated crash after %llu commits\n",
                  static_cast<unsigned long long>(commits_today));
      _exit(3);  // no destructors, no flushes: the SIGKILL drill
    }
  };
  std::unique_ptr<FrontierLogWriter> log;
  Status opened = FrontierLogWriter::Open(log_path, log_options, &log);
  if (!opened.ok()) {
    std::printf("cannot open frontier log: %s\n", opened.ToString().c_str());
    return 1;
  }

  HybridCrawler crawler;
  CrawlOptions options;
  options.materialize = false;  // constant memory: the CSV is the bag
  options.sink = &sink;
  options.frontier_log = log.get();
  CrawlResult result = state == nullptr
                           ? crawler.Crawl(session.get(), options)
                           : crawler.Resume(session.get(), state, options);

  if (result.status.IsResourceExhausted()) {
    Status saved = SaveSessionCheckpointFile(*session, *result.resume_state,
                                             ckpt_path);
    if (!saved.ok()) {
      std::printf("checkpoint save failed: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("daily quota of %llu spent: %llu rows so far, "
                "%llu cumulative queries; run again tomorrow\n",
                static_cast<unsigned long long>(quota),
                static_cast<unsigned long long>(
                    result.resume_state->tuples_collected),
                static_cast<unsigned long long>(result.queries_issued));
    return 2;
  }
  if (!result.status.ok()) {
    std::printf("crawl failed: %s\n", result.status.ToString().c_str());
    return 1;
  }

  // Complete: verify the streamed CSV against the source and the
  // cumulative bill against an uninterrupted single-session run.
  csv.flush();
  if (!VerifyCsv(csv_path, *data)) {
    std::printf("FAIL: extraction CSV does not match the database\n");
    return 1;
  }
  auto ref_session = service.CreateSession();
  HybridCrawler ref_crawler;
  CrawlResult reference = ref_crawler.Crawl(ref_session.get());
  if (!reference.status.ok() ||
      reference.queries_issued != result.queries_issued) {
    std::printf("FAIL: cumulative bill %llu != uninterrupted reference "
                "%llu\n",
                static_cast<unsigned long long>(result.queries_issued),
                static_cast<unsigned long long>(reference.queries_issued));
    return 1;
  }
  std::printf("complete: %llu rows extracted for %llu queries — identical "
              "bill and bag to the uninterrupted run\n",
              static_cast<unsigned long long>(result.tuples_collected),
              static_cast<unsigned long long>(result.queries_issued));
  std::remove(log_path.c_str());
  std::remove(ckpt_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string state_dir;
  uint64_t quota = 150;
  uint64_t crash_after_commits = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--state-dir" && i + 1 < argc) {
      state_dir = argv[++i];
    } else if (arg == "--quota" && i + 1 < argc) {
      quota = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--crash-after-commits" && i + 1 < argc) {
      crash_after_commits = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::printf("usage: %s [--state-dir DIR] [--quota N] "
                  "[--crash-after-commits C]\n",
                  argv[0]);
      return 1;
    }
  }

  if (!state_dir.empty()) {
    std::filesystem::create_directories(state_dir);
    return RunDay(state_dir, quota, crash_after_commits);
  }

  // Self-contained demo: loop the day-runs in one process.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "hdc_daily_quota_demo")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  int days = 0;
  int code = 2;
  while (code == 2) {
    if (++days > 200) {
      std::printf("FAIL: crawl did not complete in 200 days\n");
      return 1;
    }
    std::printf("--- day %d ---\n", days);
    code = RunDay(dir, quota, /*crash_after_commits=*/0);
  }
  if (code == 0 && days < 2) {
    std::printf("FAIL: quota never interrupted the crawl (demo too easy)\n");
    return 1;
  }
  return code;
}
