// Copyright (c) hdc authors. Apache-2.0 license.
//
// Fuzz harness for the one crawl-state reader (core/checkpoint.h) — the
// surface a damaged or hostile file on disk controls: checkpoints, session
// checkpoints, frontier logs and delta-crawl records. Every input is loaded
// against three schemas (mixed, all-numeric, all-categorical), once as a
// plain checkpoint or frontier log and once with the session record
// required.
// The reader must return a typed error or a state — never crash, never
// allocate a claimed count unchecked — and a state it returns must save and
// load again with the same counters.
//
// Build shapes (tests/fuzz/CMakeLists.txt):
//   - clang + HDC_BUILD_FUZZERS: libFuzzer entry point (HDC_HAVE_LIBFUZZER),
//     run `crawl_state_fuzz -runs=N crawl_state_corpus/` for a bounded smoke;
//   - any compiler: standalone driver replaying corpus files/dirs, which is
//     the tier-1 `crawl_state_fuzz_replay` ctest; `--generate DIR` rebuilds
//     the seed corpus from SaveCheckpoint, SaveSessionCheckpoint,
//     multi-round FrontierLogWriter and BuildCrawlRecord round-trips.

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "core/checkpoint.h"
#include "gen/synthetic.h"
#include "util/macros.h"

namespace {

using hdc::CrawlState;
using hdc::Dataset;
using hdc::SchemaPtr;
using hdc::SessionRecord;
using hdc::Status;

/// The seeds' mixed dataset: two categorical attributes and one numeric,
/// few enough rows that slice queries resolve and carry bags.
const std::shared_ptr<Dataset>& MixedData() {
  static const std::shared_ptr<Dataset> data = [] {
    hdc::SyntheticMixedOptions gen;
    gen.domain_sizes = {4, 5};
    gen.num_numeric = 1;
    gen.n = 60;
    gen.value_range = 120;
    gen.seed = 57;
    return std::make_shared<Dataset>(hdc::GenerateSyntheticMixed(gen));
  }();
  return data;
}

/// The seeds' all-numeric dataset (rank-shrink and binary-shrink).
const std::shared_ptr<Dataset>& NumericData() {
  static const std::shared_ptr<Dataset> data = [] {
    hdc::SyntheticNumericOptions gen;
    gen.d = 2;
    gen.n = 200;
    gen.value_range = 100;
    gen.seed = 42;
    return std::make_shared<Dataset>(hdc::GenerateSyntheticNumeric(gen));
  }();
  return data;
}

/// The seeds' all-categorical dataset (DFS and the session seeds).
const std::shared_ptr<Dataset>& CategoricalData() {
  static const std::shared_ptr<Dataset> data = [] {
    hdc::SyntheticCategoricalOptions gen;
    gen.domain_sizes = {5, 6, 4};
    gen.n = 450;
    gen.seed = 91;
    return std::make_shared<Dataset>(hdc::GenerateSyntheticCategorical(gen));
  }();
  return data;
}

void LoadOne(const std::string& bytes, const SchemaPtr& schema,
             bool with_session) {
  std::istringstream in(bytes);
  std::shared_ptr<CrawlState> state;
  SessionRecord record;
  Status s = hdc::LoadCheckpoint(&in, schema, &state,
                                 with_session ? &record : nullptr);
  if (!s.ok()) {
    HDC_CHECK(state == nullptr);
    return;
  }
  std::ostringstream saved;
  HDC_CHECK_OK(
      hdc::SaveCheckpoint(*state, *state->extracted.schema(), &saved));
  std::istringstream again(saved.str());
  std::shared_ptr<CrawlState> reloaded;
  HDC_CHECK_OK(hdc::LoadCheckpoint(&again, schema, &reloaded));
  HDC_CHECK(reloaded->algorithm() == state->algorithm());
  HDC_CHECK(reloaded->queries_issued == state->queries_issued);
  HDC_CHECK(reloaded->tuples_collected == state->tuples_collected);
  HDC_CHECK(reloaded->seen_rows == state->seen_rows);
  HDC_CHECK(reloaded->extracted.size() == state->extracted.size());
  HDC_CHECK(reloaded->Finished() == state->Finished());
}

void FuzzOne(const uint8_t* data, size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  for (const SchemaPtr& schema :
       {MixedData()->schema(), NumericData()->schema(),
        CategoricalData()->schema()}) {
    LoadOne(bytes, schema, /*with_session=*/false);
    LoadOne(bytes, schema, /*with_session=*/true);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  FuzzOne(data, size);
  return 0;
}

#if !defined(HDC_HAVE_LIBFUZZER)

// Standalone driver (replay_driver.h): replays corpus files (regression
// mode, registered as the tier-1 `crawl_state_fuzz_replay` ctest) and
// regenerates the seed corpus. libFuzzer builds get their main() from the
// sanitizer runtime.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/crawlers.h"
#include "core/delta_crawl.h"
#include "core/frontier_log.h"
#include "core/session_checkpoint.h"
#include "replay_driver.h"
#include "server/crawl_service.h"
#include "server/local_server.h"

namespace {

namespace fs = std::filesystem;

uint64_t KFor(const Dataset& data) {
  return std::max<uint64_t>(8, data.MaxPointMultiplicity());
}

/// A crawl of `data` interrupted after `budget` queries.
std::shared_ptr<CrawlState> Interrupted(hdc::Crawler* crawler,
                                        const std::shared_ptr<Dataset>& data,
                                        uint64_t budget) {
  hdc::LocalServer server(data, KFor(*data));
  hdc::CrawlOptions options;
  options.max_queries = budget;
  hdc::CrawlResult partial = crawler->Crawl(&server, options);
  HDC_CHECK(partial.status.IsResourceExhausted());
  return partial.resume_state;
}

std::string Checkpoint(const CrawlState& state) {
  std::ostringstream out;
  HDC_CHECK_OK(hdc::SaveCheckpoint(state, *state.extracted.schema(), &out));
  return out.str();
}

void WriteSeed(const fs::path& dir, const std::string& name,
               const std::string& bytes) {
  std::ofstream out(dir / name, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Replaces the rest of the line that starts with `tag` (after the tag)
/// with `tail`.
std::string WithLineTail(std::string text, const std::string& tag,
                         const std::string& tail) {
  const size_t from = text.find(tag) + tag.size();
  return text.replace(from, text.find('\n', from) - from, tail);
}

/// Writes a hostile seed after checking that it fails typed against
/// `schema`.
void WriteRejectedSeed(const fs::path& dir, const std::string& name,
                       const std::string& bytes, const SchemaPtr& schema) {
  std::istringstream in(bytes);
  std::shared_ptr<CrawlState> state;
  HDC_CHECK(hdc::LoadCheckpoint(&in, schema, &state).IsInvalidArgument());
  WriteSeed(dir, name, bytes);
}

/// The saved record of a full delta-crawl partition of `data`.
std::string Record(const std::shared_ptr<Dataset>& data) {
  hdc::LocalServer server(data, KFor(*data));
  hdc::CrawlRecord record;
  HDC_CHECK_OK(hdc::BuildCrawlRecord(&server, &record));
  return Checkpoint(record);
}

/// A full crawl of `data` written through a frontier log: one snapshot,
/// then one round record per commit.
void WriteLogSeed(const fs::path& dir, const std::string& name,
                  hdc::Crawler* crawler,
                  const std::shared_ptr<Dataset>& data) {
  const fs::path path = dir / name;
  std::remove(path.c_str());
  hdc::FrontierLogOptions log_options;
  log_options.sync = false;
  std::unique_ptr<hdc::FrontierLogWriter> log;
  HDC_CHECK_OK(hdc::FrontierLogWriter::Open(path, log_options, &log));
  hdc::LocalServer server(data, KFor(*data));
  hdc::CrawlOptions options;
  options.frontier_log = log.get();
  HDC_CHECK_OK(crawler->Crawl(&server, options).status);
  HDC_CHECK(log->commits() > 2);
}

/// Seeds are Save* round-trips of mid-crawl states of every crawler family
/// the three schemas admit (eager slice-cover stopped inside its up-front
/// slice pass) and of delta-crawl records, plus the hostile counts that
/// once aborted the process (a seen-row count, a slice-bag count and a
/// record region's bag count of 2^62), a rank-shrink checkpoint in the
/// retired `q` frontier grammar, an eager checkpoint with the retired pass
/// cursor, and records with an unparsable version and with a tuple that no
/// longer matches its region's hash.
int Generate(const std::string& dir_arg) {
  const fs::path dir(dir_arg);
  fs::create_directories(dir);
  const std::string huge = "4611686018427387904";

  hdc::HybridCrawler hybrid;
  const std::string hybrid_checkpoint =
      Checkpoint(*Interrupted(&hybrid, MixedData(), 12));
  WriteSeed(dir, "checkpoint_hybrid", hybrid_checkpoint);
  hdc::DfsCrawler dfs;
  WriteSeed(dir, "checkpoint_dfs",
            Checkpoint(*Interrupted(&dfs, CategoricalData(), 10)));
  hdc::RankShrink rank_shrink;
  WriteSeed(dir, "checkpoint_rank_shrink",
            Checkpoint(*Interrupted(&rank_shrink, NumericData(), 6)));
  hdc::BinaryShrink binary_shrink;
  WriteSeed(dir, "checkpoint_binary_shrink",
            Checkpoint(*Interrupted(&binary_shrink, NumericData(), 6)));
  hdc::SliceCoverCrawler lazy_slice_cover(/*lazy=*/true);
  WriteSeed(dir, "checkpoint_lazy_slice_cover",
            Checkpoint(*Interrupted(&lazy_slice_cover, CategoricalData(), 10)));
  // Stopped inside the eager slice pass (5 + 6 + 4 slice queries), before
  // slice (1, 3): the table and the root item say where it resumes.
  hdc::SliceCoverCrawler slice_cover(/*lazy=*/false);
  const std::string preprocessing =
      Checkpoint(*Interrupted(&slice_cover, CategoricalData(), 7));
  HDC_CHECK(preprocessing.find("\nslice 1 2 ") != std::string::npos &&
            preprocessing.find("\nslice 1 3 ") == std::string::npos);
  WriteSeed(dir, "checkpoint_slice_cover_preprocessing", preprocessing);

  hdc::CrawlService service(CategoricalData(), KFor(*CategoricalData()));
  for (const bool budgeted : {true, false}) {
    hdc::SessionOptions session_options;
    session_options.label = "fuzz seed: day #1\t";
    if (budgeted) session_options.max_queries = 9;
    auto session = service.CreateSession(session_options);
    hdc::CrawlOptions options;
    options.max_queries = 9;
    hdc::CrawlResult partial = dfs.Crawl(session.get(), options);
    HDC_CHECK(partial.status.IsResourceExhausted());
    std::ostringstream out;
    HDC_CHECK_OK(
        hdc::SaveSessionCheckpoint(*session, *partial.resume_state, &out));
    WriteSeed(dir, budgeted ? "session_budgeted" : "session_unlimited",
              out.str());
  }

  WriteLogSeed(dir, "log_hybrid", &hybrid, MixedData());
  WriteLogSeed(dir, "log_rank_shrink", &rank_shrink, NumericData());
  WriteLogSeed(dir, "log_lazy_slice_cover", &lazy_slice_cover,
               CategoricalData());
  WriteLogSeed(dir, "log_slice_cover", &slice_cover, CategoricalData());

  WriteSeed(dir, "regression_seen_count",
            WithLineTail(hybrid_checkpoint, "\nseen ", huge + " 1 2 3"));
  HDC_CHECK(hybrid_checkpoint.find(" R ") != std::string::npos);
  WriteSeed(dir, "regression_bag_count",
            WithLineTail(hybrid_checkpoint, " R ", huge));

  // The per-family frontier grammar the item lines replaced ("q <extents>"
  // for binary- and rank-shrink) must fail typed, never load.
  std::string q_grammar =
      Checkpoint(*Interrupted(&rank_shrink, NumericData(), 6));
  const std::string item = "\nitem rank 0 ";
  for (size_t at = q_grammar.find(item); at != std::string::npos;
       at = q_grammar.find(item, at)) {
    q_grammar.replace(at, item.size(), "\nq ");
  }
  WriteRejectedSeed(dir, "regression_q_grammar", q_grammar,
                    NumericData()->schema());

  // The same stop as the eager pass once wrote it, with a resume cursor,
  // must fail typed too.
  std::string cursor = preprocessing;
  cursor.insert(cursor.find("eager 1\n") + 8, "predone 0\nprecursor 1 3\n");
  WriteRejectedSeed(dir, "regression_eager_cursor", cursor,
                    CategoricalData()->schema());

  const std::string record = Record(NumericData());
  WriteSeed(dir, "record_numeric", record);
  WriteSeed(dir, "record_categorical", Record(CategoricalData()));
  WriteSeed(dir, "record_mixed", Record(MixedData()));
  WriteRejectedSeed(dir, "regression_record_version",
                    WithLineTail(record, "\nversion ", "abc"),
                    NumericData()->schema());
  // The first region keeps its hash and extents but claims 2^62 bag lines.
  const size_t region = record.find("\nregion ") + 8;
  const size_t hash_end = record.find(' ', region);
  std::string bag_count = record;
  bag_count.replace(hash_end + 1,
                    record.find(' ', hash_end + 1) - hash_end - 1, huge);
  WriteRejectedSeed(dir, "regression_record_bag_count", bag_count,
                    NumericData()->schema());
  // The first bag line's first value moves by one: its region's hash no
  // longer matches.
  std::string tampered = record;
  const size_t value = tampered.find(' ', tampered.find("\nbag ") + 5) + 1;
  tampered[value] = tampered[value] == '0' ? '1' : '0';
  WriteRejectedSeed(dir, "regression_record_hash", tampered,
                    NumericData()->schema());

  std::cout << "crawl_state_fuzz: wrote seed corpus to " << dir << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hdc::fuzz::ReplayMain(argc, argv, "crawl_state_fuzz", FuzzOne,
                               Generate);
}

#endif  // !HDC_HAVE_LIBFUZZER
