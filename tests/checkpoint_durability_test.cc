// Copyright (c) hdc authors. Apache-2.0 license.
//
// Crash durability of checkpoint files. Two regressions pinned here:
//
//  1. SaveCheckpointFile used to rewrite the target in place, so a crash
//     mid-write destroyed the previous checkpoint. The fix writes a temp
//     file, fsyncs, and renames; whatever prefix of the new bytes a crash
//     leaves behind, the prior checkpoint must still load.
//
//  2. LoadCheckpoint on a truncated file must fail with a typed error that
//     names the offending line of the file — checkpoint, session file or
//     frontier log alike — and must never hand back a partially-populated
//     CrawlState.
#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/crawlers.h"
#include "core/frontier_log.h"
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

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// A mid-crawl state with a non-trivial frontier, plus its serialized form.
struct Fixture {
  std::shared_ptr<Dataset> data;
  std::shared_ptr<CrawlState> state;
  std::string serialized;
};

Fixture MakeFixture(uint64_t seed, uint64_t budget, uint64_t n = 500) {
  Fixture f;
  SyntheticMixedOptions gen;
  gen.domain_sizes = {4, 5};
  gen.num_numeric = 1;
  gen.n = n;
  gen.value_range = 120;
  gen.seed = seed;
  f.data = std::make_shared<Dataset>(GenerateSyntheticMixed(gen));
  LocalServer server(f.data,
                     std::max<uint64_t>(8, f.data->MaxPointMultiplicity()));
  HybridCrawler crawler;
  CrawlOptions options;
  options.max_queries = budget;
  CrawlResult partial = crawler.Crawl(&server, options);
  HDC_CHECK(partial.status.IsResourceExhausted());
  f.state = partial.resume_state;
  std::ostringstream out;
  HDC_CHECK(SaveCheckpoint(*f.state, *f.data->schema(), &out).ok());
  f.serialized = out.str();
  return f;
}

// A frontier log whose snapshot is `f`'s mid-crawl state, followed by the
// round records of a resumed crawl.
std::string MakeLog(const Fixture& f, const std::string& path) {
  std::remove(path.c_str());
  FrontierLogOptions log_options;
  log_options.sync = false;
  std::unique_ptr<FrontierLogWriter> log;
  HDC_CHECK(FrontierLogWriter::Open(path, log_options, &log).ok());
  LocalServer server(f.data,
                     std::max<uint64_t>(8, f.data->MaxPointMultiplicity()));
  std::shared_ptr<CrawlState> state;
  std::istringstream in(f.serialized);
  HDC_CHECK(LoadCheckpoint(&in, f.data->schema(), &state).ok());
  HybridCrawler crawler;
  CrawlOptions options;
  options.max_queries = state->queries_issued + 12;
  options.frontier_log = log.get();
  crawler.Resume(&server, state, options);
  HDC_CHECK(log->commits() > 2);
  return ReadWholeFile(path);
}

// 1-based number of the line starting at byte `pos` of `text`.
uint64_t LineAt(const std::string& text, size_t pos) {
  return 1 + std::count(text.begin(), text.begin() + pos, '\n');
}

// Byte offset of the first line of `text` that starts with `prefix`.
size_t FindLine(const std::string& text, const std::string& prefix) {
  const size_t at = text.find("\n" + prefix);
  HDC_CHECK(at != std::string::npos);
  return at + 1;
}

// Replaces the rest of the line starting at `pos`, after `skip` bytes.
std::string ReplaceLineTail(std::string text, size_t pos, size_t skip,
                            const std::string& tail) {
  const size_t from = pos + skip;
  return text.replace(from, text.find('\n', from) - from, tail);
}

void ExpectFailsAtLine(const std::string& text, const SchemaPtr& schema,
                       uint64_t line) {
  std::istringstream in(text);
  std::shared_ptr<CrawlState> restored;
  Status s = LoadCheckpoint(&in, schema, &restored);
  ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(s.message().rfind("line " + std::to_string(line) + ": ", 0), 0u)
      << "expected line " << line << ": " << s.ToString();
  EXPECT_EQ(restored, nullptr);
}

// Satellite 1: the torn-write regression. Simulate a crash at *every byte
// offset* of a subsequent save — the temp file holds an arbitrary prefix of
// the new checkpoint, the rename never happened — and require the prior
// checkpoint to survive intact.
TEST(CheckpointDurabilityTest, PriorCheckpointSurvivesTornOverwrite) {
  Fixture a = MakeFixture(51, 9);
  Fixture b = MakeFixture(51, 21);  // same crawl, further along
  ASSERT_NE(a.serialized, b.serialized);

  const std::string path = ::testing::TempDir() + "/hdc_torn_ckpt.txt";
  ASSERT_TRUE(SaveCheckpointFile(*a.state, *a.data->schema(), path).ok());
  const std::string saved_a = ReadWholeFile(path);
  ASSERT_EQ(saved_a, a.serialized);

  for (size_t offset = 0; offset <= b.serialized.size(); ++offset) {
    // The crash leaves the partial new bytes only in the temp file.
    WriteRaw(path + ".tmp", b.serialized.substr(0, offset));
    std::shared_ptr<CrawlState> restored;
    ASSERT_TRUE(LoadCheckpointFile(path, a.data->schema(), &restored).ok())
        << "prior checkpoint lost after torn write at offset " << offset;
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->queries_issued, a.state->queries_issued);
  }
  std::remove((path + ".tmp").c_str());

  // A save that *completes* atomically replaces the file with the new
  // checkpoint.
  ASSERT_TRUE(SaveCheckpointFile(*b.state, *b.data->schema(), path).ok());
  EXPECT_EQ(ReadWholeFile(path), b.serialized);
  std::shared_ptr<CrawlState> restored;
  ASSERT_TRUE(LoadCheckpointFile(path, b.data->schema(), &restored).ok());
  EXPECT_EQ(restored->queries_issued, b.state->queries_issued);
}

// Satellite 3: truncation anywhere inside the file is a typed failure and
// never a partially-populated state. (Only cutting the final newline — a
// complete final line — may still load.)
TEST(CheckpointDurabilityTest, TruncatedCheckpointNeverLoadsPartially) {
  Fixture f = MakeFixture(52, 15);
  const std::string& text = f.serialized;
  ASSERT_GT(text.size(), 100u);

  for (size_t offset = 0; offset < text.size(); ++offset) {
    std::istringstream in(text.substr(0, offset));
    std::shared_ptr<CrawlState> restored;
    Status s = LoadCheckpoint(&in, f.data->schema(), &restored);
    if (s.ok()) {
      // The only survivable cut: the final "snapshot-end" line kept whole,
      // just missing its newline.
      EXPECT_EQ(offset, text.size() - 1) << "offset " << offset;
      continue;
    }
    EXPECT_EQ(restored, nullptr)
        << "partially-populated state escaped at offset " << offset;
    // Typed failure: truncation inside the header's version token reads as
    // an unsupported version (NotSupported); anywhere else it is an
    // InvalidArgument naming the line.
    EXPECT_TRUE(s.IsInvalidArgument() ||
                s.code() == Status::Code::kNotSupported)
        << s.ToString();
  }
}

TEST(CheckpointDurabilityTest, TruncationErrorsNameTheLine) {
  Fixture f = MakeFixture(53, 12);

  {  // Empty file: the error points at the missing header line.
    std::istringstream in("");
    std::shared_ptr<CrawlState> restored;
    Status s = LoadCheckpoint(&in, f.data->schema(), &restored);
    ASSERT_TRUE(s.IsInvalidArgument());
    EXPECT_NE(s.message().find("line 1"), std::string::npos) << s.ToString();
    EXPECT_EQ(restored, nullptr);
  }

  {  // Cut mid-tuple: inside the extracted section, on a tuple line.
    const std::string marker = "extracted ";
    const size_t section = f.serialized.find(marker);
    ASSERT_NE(section, std::string::npos);
    const size_t first_tuple = f.serialized.find('\n', section) + 1;
    const size_t cut = first_tuple + 2;  // a few bytes into the tuple line
    ASSERT_LT(cut, f.serialized.size());
    std::istringstream in(f.serialized.substr(0, cut));
    std::shared_ptr<CrawlState> restored;
    Status s = LoadCheckpoint(&in, f.data->schema(), &restored);
    ASSERT_TRUE(s.IsInvalidArgument());
    EXPECT_NE(s.message().find("line "), std::string::npos) << s.ToString();
    EXPECT_EQ(restored, nullptr);
  }

  {  // Frontier section cut off before frontier-end.
    const size_t end = f.serialized.rfind("frontier-end");
    ASSERT_NE(end, std::string::npos);
    std::istringstream in(f.serialized.substr(0, end));
    std::shared_ptr<CrawlState> restored;
    Status s = LoadCheckpoint(&in, f.data->schema(), &restored);
    ASSERT_TRUE(s.IsInvalidArgument());
    EXPECT_NE(s.message().find("line "), std::string::npos) << s.ToString();
    EXPECT_EQ(restored, nullptr);
  }
  {  // Session file: the session record counts as a line of the file.
    SessionRecord record{"nightly", 7};
    std::ostringstream out;
    ASSERT_TRUE(
        SaveCheckpoint(*f.state, *f.data->schema(), &out, &record).ok());
    const std::string text = out.str();
    const size_t end = text.rfind("frontier-end");
    ExpectFailsAtLine(text.substr(0, end), f.data->schema(),
                      LineAt(text, end));
  }

  {  // Log whose snapshot is corrupt: errors name lines of the log, also
     // for a frontier line decoded only after the rounds were applied.
    const std::string log =
        MakeLog(f, ::testing::TempDir() + "/hdc_line_numbers.log");
    const size_t collected = FindLine(log, "collected ");
    ExpectFailsAtLine(ReplaceLineTail(log, collected, 10, "x"),
                      f.data->schema(), LineAt(log, collected));
    const size_t catorder = FindLine(log, "catorder");
    ExpectFailsAtLine(ReplaceLineTail(log, catorder, 8, " 0 0 0 0"),
                      f.data->schema(), LineAt(log, catorder));
  }
}

// Files in a parent format — a version-2 checkpoint, a version-1 frontier
// log wrapping one — fail typed and are never misread.
TEST(CheckpointDurabilityTest, ParentFormatHeadersFailTyped) {
  Fixture f = MakeFixture(56, 12);
  const std::string& text = f.serialized;
  const size_t payload = FindLine(text, "algorithm ");
  const size_t payload_end = FindLine(text, "snapshot-end");
  const std::string body = text.substr(payload, payload_end - payload);
  const std::string parent_checkpoint = "hdc-checkpoint 2\n" + body;
  const std::string parent_log = "hdc-frontier-log 1\nsnapshot-begin\n" +
                                 parent_checkpoint + "snapshot-end\n";
  const std::string older_version =
      "hdc-crawl-state 2\n" + text.substr(text.find('\n') + 1);
  for (const std::string& old : {parent_checkpoint, parent_log,
                                 older_version}) {
    std::istringstream in(old);
    std::shared_ptr<CrawlState> restored;
    Status s = LoadCheckpoint(&in, f.data->schema(), &restored);
    EXPECT_TRUE(s.IsInvalidArgument() ||
                s.code() == Status::Code::kNotSupported)
        << s.ToString();
    EXPECT_EQ(restored, nullptr);
  }
}

// A count read from disk never sizes a container: a seen-row, tuple or
// slice-bag count of 2^62 is a typed error, in a checkpoint and in a log
// alike, never an allocation that aborts the process.
TEST(CheckpointDurabilityTest, HostileCountsFailTyped) {
  // Few enough rows that slice queries resolve and carry bags.
  Fixture f = MakeFixture(57, 12, /*n=*/60);
  const std::string huge = "4611686018427387904";
  const std::string log =
      MakeLog(f, ::testing::TempDir() + "/hdc_hostile_counts.log");
  for (const std::string& text : {f.serialized, log}) {
    const size_t seen = FindLine(text, "seen ");
    const size_t extracted = FindLine(text, "extracted ");
    // Round records rewrite the frontier's tail, so only the last
    // resolved-slice line of a log is sure to be live after replay.
    const size_t bag = text.rfind(" R ");
    ASSERT_NE(bag, std::string::npos) << "no resolved slice to mutate";
    for (const std::string& mutated :
         {ReplaceLineTail(text, seen, 5, huge + " 1 2 3"),
          ReplaceLineTail(text, extracted, 10, huge),
          ReplaceLineTail(text, bag, 3, huge)}) {
      std::istringstream in(mutated);
      std::shared_ptr<CrawlState> restored;
      Status s = LoadCheckpoint(&in, f.data->schema(), &restored);
      EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
      EXPECT_EQ(restored, nullptr);
    }
  }
}

// The file loader distinguishes "no checkpoint yet" from a corrupt one.
// `text` with its frontier items replaced by `item`; returns the new text
// and sets `*line` to the number of the item's line.
std::string WithOnlyItem(const std::string& text, const std::string& item,
                         uint64_t* line) {
  std::istringstream in(text);
  std::string out, current;
  while (std::getline(in, current)) {
    if (current.rfind("item ", 0) == 0) continue;
    if (current == "frontier-end") {
      *line = 1 + std::count(out.begin(), out.end(), '\n');
      out += item + "\n";
    }
    out += current + "\n";
  }
  return out;
}

// A checkpoint of `crawler` interrupted after `budget` queries on `data`.
std::string InterruptedCheckpoint(Crawler* crawler,
                                  const std::shared_ptr<Dataset>& data,
                                  uint64_t budget) {
  LocalServer server(data,
                     std::max<uint64_t>(8, data->MaxPointMultiplicity()));
  CrawlOptions options;
  options.max_queries = budget;
  CrawlResult partial = crawler->Crawl(&server, options);
  HDC_CHECK(partial.status.IsResourceExhausted());
  std::ostringstream out;
  HDC_CHECK(SaveCheckpoint(*partial.resume_state, *data->schema(), &out).ok());
  return out.str();
}

// The one frontier decoder rejects, typed and naming the line, every item
// the family's driver rules could not have produced — a state the crawl
// could not resume without breaking an invariant (a rank item with a free
// categorical attribute once aborted the process in Resume).
TEST(CheckpointDurabilityTest, ItemsBreakingTheDriverInvariantsFailTyped) {
  Fixture hybrid = MakeFixture(57, 12);
  const SchemaPtr& mixed = hybrid.data->schema();
  uint64_t line = 0;
  for (const std::string bad : {
           "item rank 0 1 4 1 5 0 0",      // rank, both categoricals free
           "item rank 0 2 2 1 5 0 119",    // rank, C2 free
           "item rank 1 2 2 3 3 0 119",    // rank at a nonzero level
           "item node 1 1 4 1 5 0 119",    // level 1 leaves C1 free
           "item node 2 3 3 1 5 0 119",    // level 2 leaves C2 free
           "item node 3 3 3 2 2 0 119",    // level past the categoricals
           "item leaf 0 1 4 1 5 0 119",    // unknown kind
           "item slice 1 2 2 1 5 0 119",   // a slice of the root
       }) {
    SCOPED_TRACE(bad);
    const std::string text = WithOnlyItem(hybrid.serialized, bad, &line);
    ExpectFailsAtLine(text, mixed, line);
  }
  for (const std::string good :
       {"item rank 0 3 3 2 2 0 119", "item node 2 3 3 2 2 0 119",
        "item node 0 1 4 1 5 0 119"}) {
    std::istringstream in(WithOnlyItem(hybrid.serialized, good, &line));
    std::shared_ptr<CrawlState> restored;
    EXPECT_TRUE(LoadCheckpoint(&in, mixed, &restored).ok()) << good;
  }

  // Single-kind families: a kind the family never uses, and the retired
  // per-family grammars.
  SyntheticNumericOptions numeric_gen;
  numeric_gen.n = 200;
  numeric_gen.value_range = 100;
  auto numeric =
      std::make_shared<Dataset>(GenerateSyntheticNumeric(numeric_gen));
  RankShrink rank_shrink;
  const std::string rank_checkpoint =
      InterruptedCheckpoint(&rank_shrink, numeric, 6);
  SyntheticCategoricalOptions categorical_gen;
  categorical_gen.domain_sizes = {5, 6, 4};
  categorical_gen.n = 450;
  auto categorical = std::make_shared<Dataset>(
      GenerateSyntheticCategorical(categorical_gen));
  DfsCrawler dfs;
  const std::string dfs_checkpoint =
      InterruptedCheckpoint(&dfs, categorical, 10);
  for (const std::string bad : {"item node 0 0 50 0 50", "q 0 50 0 50"}) {
    SCOPED_TRACE(bad);
    const std::string text = WithOnlyItem(rank_checkpoint, bad, &line);
    ExpectFailsAtLine(text, numeric->schema(), line);
  }
  for (const std::string bad :
       {"item rank 0 1 5 1 6 1 4", "item node 2 1 1 1 6 1 4",
        "node 1 1 1 1 6 1 4", "item slice 1 1 5 3 3 1 4"}) {
    SCOPED_TRACE(bad);
    const std::string text = WithOnlyItem(dfs_checkpoint, bad, &line);
    ExpectFailsAtLine(text, categorical->schema(), line);
  }

  // An eager-pass lookup is never saved: the resumed pass asks the first
  // unknown slices again. So the grammar has no slice item, not even for
  // an eager state or for a slice query of the root.
  SliceCoverCrawler slice_cover(/*lazy=*/false);
  const std::string eager_checkpoint =
      InterruptedCheckpoint(&slice_cover, categorical, 7);
  EXPECT_EQ(eager_checkpoint.find("item slice"), std::string::npos);
  for (const std::string bad :
       {"item slice 1 1 5 3 3 1 4", "item slice 0 2 2 1 6 1 4"}) {
    SCOPED_TRACE(bad);
    const std::string text = WithOnlyItem(eager_checkpoint, bad, &line);
    ExpectFailsAtLine(text, categorical->schema(), line);
  }
}

TEST(CheckpointDurabilityTest, MissingFileIsNotFound) {
  Fixture f = MakeFixture(54, 9);
  std::shared_ptr<CrawlState> restored;
  Status s = LoadCheckpointFile(::testing::TempDir() + "/hdc_no_such_ckpt",
                                f.data->schema(), &restored);
  EXPECT_EQ(s.code(), Status::Code::kNotFound) << s.ToString();
  EXPECT_EQ(restored, nullptr);
}

}  // namespace
}  // namespace hdc
