// Copyright (c) hdc authors. Apache-2.0 license.
//
// Delta crawl end-to-end: for every mutation script the emitted
// insert/delete/update sets must exactly equal the diff a full re-crawl
// would compute, while billing only the changed subspace. Also covers the
// convergence loop under mid-crawl scheduled mutations, a server that
// fails mid-pass, and the crawl record as a crawl-state file (including
// corruption rejection, hostile counts and crash-atomic file saves).
#include "core/delta_crawl.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/crawlers.h"
#include "server/answer_cache.h"
#include "server/decorators.h"
#include "server/local_server.h"
#include "server/mutating_server.h"

namespace hdc {
namespace {

std::shared_ptr<const Dataset> TinyData() {
  SchemaPtr schema = Schema::NumericBounded({{0, 100}});
  auto d = std::make_shared<Dataset>(schema);
  for (Value v = 0; v < 20; ++v) d->Add(Tuple({v * 5}));
  return d;
}

/// The server's live rows and a record's extraction as comparable id->value
/// maps.
void ExpectMatchesServer(const CrawlRecord& record,
                         const MutatingLocalServer& server) {
  auto extracted = record.Extraction();
  std::sort(extracted.begin(), extracted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const auto rows = server.Rows();
  ASSERT_EQ(extracted.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(extracted[i].first, rows[i].first);
    EXPECT_EQ(extracted[i].second, rows[i].second);
  }
}

/// Ground truth: crawl the current state from scratch and diff against
/// `prior` — the delta crawl must emit exactly this.
CrawlDelta ReferenceDelta(MutatingLocalServer* server,
                          const CrawlRecord& prior) {
  CrawlRecord full;
  EXPECT_TRUE(BuildCrawlRecord(server, &full).ok());
  return DiffRecords(prior, full);
}

void ExpectSameDelta(const CrawlDelta& expected, const CrawlDelta& actual) {
  ASSERT_EQ(expected.inserted.size(), actual.inserted.size());
  ASSERT_EQ(expected.deleted.size(), actual.deleted.size());
  ASSERT_EQ(expected.updated.size(), actual.updated.size());
  for (size_t i = 0; i < expected.inserted.size(); ++i) {
    EXPECT_EQ(expected.inserted[i].hidden_id, actual.inserted[i].hidden_id);
    EXPECT_EQ(expected.inserted[i].tuple, actual.inserted[i].tuple);
  }
  for (size_t i = 0; i < expected.deleted.size(); ++i) {
    EXPECT_EQ(expected.deleted[i].hidden_id, actual.deleted[i].hidden_id);
    EXPECT_EQ(expected.deleted[i].tuple, actual.deleted[i].tuple);
  }
  for (size_t i = 0; i < expected.updated.size(); ++i) {
    EXPECT_EQ(expected.updated[i].hidden_id, actual.updated[i].hidden_id);
    EXPECT_EQ(expected.updated[i].before, actual.updated[i].before);
    EXPECT_EQ(expected.updated[i].after, actual.updated[i].after);
  }
}

TEST(BuildCrawlRecordTest, ExtractsEverythingIntoResolvedRegions) {
  MutatingLocalServer server(TinyData(), 4);
  CrawlRecord record;
  DeltaCrawlStats stats;
  ASSERT_TRUE(BuildCrawlRecord(&server, &record, &stats).ok());
  EXPECT_EQ(record.db_version, 1u);
  EXPECT_EQ(record.TupleCount(), 20u);
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_GT(stats.billed_queries, 0u);
  EXPECT_EQ(record.queries_issued, stats.billed_queries);
  for (const CrawlRecordRegion& region : record.regions) {
    EXPECT_FALSE(region.answer.overflow);
    EXPECT_EQ(region.content_hash, HashResponse(region.answer));
  }
  ExpectMatchesServer(record, server);
}

TEST(DeltaCrawlTest, UnchangedDatabaseCostsZeroQueries) {
  MutatingLocalServer server(TinyData(), 4);
  CrawlRecord prior;
  ASSERT_TRUE(BuildCrawlRecord(&server, &prior).ok());

  CrawlRecord updated;
  CrawlDelta delta;
  DeltaCrawlStats stats;
  ASSERT_TRUE(DeltaCrawl(&server, prior, &updated, &delta, &stats).ok());
  // Version check proves every region fresh: no server contact at all.
  EXPECT_EQ(stats.billed_queries, 0u);
  EXPECT_EQ(stats.cheap_revalidations, 0u);
  EXPECT_EQ(stats.cache_hits, prior.regions.size());
  EXPECT_TRUE(delta.empty());
  ExpectMatchesServer(updated, server);
}

TEST(DeltaCrawlTest, EmitsExactInsertDeleteUpdateSets) {
  struct Script {
    const char* name;
    std::vector<Mutation> burst;
  };
  const std::vector<Script> scripts = {
      {"insert", {Mutation::Insert(Tuple({7})), Mutation::Insert(Tuple({93}))}},
      {"delete", {Mutation::Delete(3), Mutation::Delete(11)}},
      {"update-in-place", {Mutation::Update(4, Tuple({21}))}},
      {"cross-region-move", {Mutation::Update(2, Tuple({99}))}},
      {"mixed",
       {Mutation::Insert(Tuple({50})), Mutation::Delete(0),
        Mutation::Update(19, Tuple({1}))}},
  };
  for (const Script& script : scripts) {
    SCOPED_TRACE(script.name);
    MutatingLocalServer server(TinyData(), 4);
    CrawlRecord prior;
    ASSERT_TRUE(BuildCrawlRecord(&server, &prior).ok());
    ASSERT_TRUE(server.Apply(script.burst).ok());

    // Reference first: BuildCrawlRecord and DeltaCrawl see the same frozen
    // post-mutation state, so order does not matter.
    const CrawlDelta expected = ReferenceDelta(&server, prior);

    CrawlRecord updated;
    CrawlDelta delta;
    DeltaCrawlStats stats;
    ASSERT_TRUE(DeltaCrawl(&server, prior, &updated, &delta, &stats).ok());
    ExpectSameDelta(expected, delta);
    ExpectMatchesServer(updated, server);
    EXPECT_EQ(updated.db_version, server.db_version());
    // The incremental pass must be cheaper than the full re-crawl it
    // replaces (the bench quantifies by how much).
    EXPECT_LT(stats.billed_queries, prior.queries_issued);
  }
}

TEST(DeltaCrawlTest, ConvergesWhenMutationLandsMidCrawl) {
  MutatingLocalServer server(TinyData(), 4);
  CrawlRecord prior;
  ASSERT_TRUE(BuildCrawlRecord(&server, &prior).ok());

  // One applied burst forces the delta pass to actually issue queries;
  // the scheduled burst then fires in the middle of that sweep.
  ASSERT_TRUE(server.Apply({Mutation::Insert(Tuple({33}))}).ok());
  server.ScheduleAt(server.queries_served() + 3,
                    {Mutation::Insert(Tuple({66})), Mutation::Delete(1)});

  CrawlRecord updated;
  CrawlDelta delta;
  DeltaCrawlStats stats;
  ASSERT_TRUE(DeltaCrawl(&server, prior, &updated, &delta, &stats).ok());
  // The mid-crawl version bump forces at least one extra pass, and the
  // final record is a consistent snapshot of the post-burst state.
  EXPECT_GE(stats.passes, 2u);
  EXPECT_EQ(updated.db_version, server.db_version());
  ExpectMatchesServer(updated, server);
  // Both bursts are visible in the emitted delta.
  ASSERT_EQ(delta.inserted.size(), 2u);
  ASSERT_EQ(delta.deleted.size(), 1u);
  EXPECT_EQ(delta.deleted[0].hidden_id, 1u);
  EXPECT_TRUE(delta.updated.empty());
}

TEST(DeltaCrawlTest, RejectsEmptyOrIncompatiblePrior) {
  MutatingLocalServer server(TinyData(), 4);
  CrawlRecord empty;
  CrawlRecord updated;
  CrawlDelta delta;
  EXPECT_TRUE(
      DeltaCrawl(&server, empty, &updated, &delta).IsInvalidArgument());

  CrawlRecord other;
  MutatingLocalServer two_attrs(
      [] {
        SchemaPtr schema = Schema::NumericBounded({{0, 10}, {0, 10}});
        auto d = std::make_shared<Dataset>(schema);
        d->Add(Tuple({1, 2}));
        return d;
      }(),
      4);
  ASSERT_TRUE(BuildCrawlRecord(&two_attrs, &other).ok());
  EXPECT_TRUE(
      DeltaCrawl(&server, other, &updated, &delta).IsInvalidArgument());
}

TEST(DeltaCrawlTest, ServerFailureMidPassIsReturnedAndAssignsNothing) {
  MutatingLocalServer server(TinyData(), 4);
  CrawlRecord prior;
  ASSERT_TRUE(BuildCrawlRecord(&server, &prior).ok());
  ASSERT_TRUE(server.Apply({Mutation::Insert(Tuple({42}))}).ok());

  // Every prior region costs one conditional re-ask: the budget runs dry
  // partway through the first pass.
  BudgetServer budget(&server, 3);
  CrawlRecord updated;
  updated.db_version = 777;
  CrawlDelta delta;
  delta.deleted.push_back({999, Tuple({1})});
  const Status s = DeltaCrawl(&budget, prior, &updated, &delta);
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  EXPECT_EQ(budget.remaining(), 0u);
  EXPECT_EQ(updated.db_version, 777u);
  EXPECT_TRUE(updated.regions.empty());
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta.deleted[0].hidden_id, 999u);

  BudgetServer dry(&server, 2);
  CrawlRecord built;
  EXPECT_TRUE(BuildCrawlRecord(&dry, &built).IsResourceExhausted());
  EXPECT_TRUE(built.regions.empty());
  EXPECT_EQ(built.queries_issued, 0u);
}

TEST(MutatingServerTest, RejectsTuplesOutsideTheSchemaDomains) {
  // A row outside the schema's domains would be unreachable by any
  // rectangle query, so no crawl — full or delta — could ever extract it.
  SchemaPtr schema = Schema::Make({AttributeSpec::Categorical("C", 3),
                                   AttributeSpec::NumericBounded("N", 0, 10)});
  auto d = std::make_shared<Dataset>(schema);
  d->Add(Tuple({1, 5}));
  MutatingLocalServer server(std::shared_ptr<const Dataset>(d), 4);

  // Categorical values are 1-based: 0 and 4 are both outside dom(C)={1,2,3}.
  EXPECT_TRUE(server.Apply({Mutation::Insert(Tuple({0, 5}))})
                  .IsInvalidArgument());
  EXPECT_TRUE(server.Apply({Mutation::Insert(Tuple({4, 5}))})
                  .IsInvalidArgument());
  EXPECT_TRUE(server.Apply({Mutation::Update(0, Tuple({1, 11}))})
                  .IsInvalidArgument());
  // Nothing was applied: the version never moved.
  EXPECT_EQ(server.db_version(), 1u);
  ASSERT_TRUE(server.Apply({Mutation::Insert(Tuple({3, 10}))}).ok());
  EXPECT_EQ(server.db_version(), 2u);
}

TEST(MutatingServerTest, BatchFiresScheduledBurstBetweenTheSameMembers) {
  // A burst due after two queries must land between members 1 and 2 of a
  // four-member batch, exactly where a conversation of one-member batches
  // sees it: answers, served count and the data version all agree.
  const Query full = Query::FullSpace(TinyData()->schema());
  const Query low = full.WithNumericRange(0, 0, 10);
  const std::vector<Query> batch = {low, full, low, full};
  auto make = [] {
    auto server = std::make_unique<MutatingLocalServer>(TinyData(), 4);
    server->ScheduleAt(2, {Mutation::Insert(Tuple({7})), Mutation::Delete(1)});
    return server;
  };

  auto sequential = make();
  std::vector<Response> want;
  std::vector<uint64_t> want_versions;  // after each member
  for (const Query& query : batch) {
    Response response;
    ASSERT_TRUE(sequential->Issue(query, &response).ok());
    want.push_back(std::move(response));
    want_versions.push_back(sequential->db_version());
  }
  ASSERT_EQ(want_versions, (std::vector<uint64_t>{1, 1, 2, 2}));

  auto batched = make();
  std::vector<Response> got;
  ASSERT_TRUE(batched->IssueBatch(batch, &got).ok());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(HashResponse(got[i]), HashResponse(want[i])) << "member " << i;
  }
  EXPECT_EQ(batched->queries_served(), sequential->queries_served());
  EXPECT_EQ(batched->db_version(), sequential->db_version());
  // The burst landed mid-batch: member 2 repeats member 0's query but sees
  // the mutated rows.
  EXPECT_NE(HashResponse(got[0]), HashResponse(got[2]));

  // The version after each member: a batch of the first m members leaves
  // the version the one-member conversation had after member m.
  for (size_t m = 1; m <= batch.size(); ++m) {
    auto prefix_server = make();
    std::vector<Response> prefix;
    ASSERT_TRUE(prefix_server
                    ->IssueBatch(std::vector<Query>(batch.begin(),
                                                    batch.begin() + m),
                                 &prefix)
                    .ok());
    EXPECT_EQ(prefix_server->db_version(), want_versions[m - 1])
        << "after member " << m;
  }
}

TEST(BuildCrawlRecordTest, OverflowingPointIsUnsolvable) {
  SchemaPtr schema = Schema::NumericBounded({{0, 10}});
  auto d = std::make_shared<Dataset>(schema);
  for (int i = 0; i < 3; ++i) d->Add(Tuple({5}));
  MutatingLocalServer server(std::shared_ptr<const Dataset>(d), 2);
  CrawlRecord record;
  EXPECT_TRUE(BuildCrawlRecord(&server, &record).IsUnsolvable());
}

/// `record` saved as a crawl-state file.
std::string Saved(const CrawlRecord& record) {
  std::ostringstream out;
  HDC_CHECK_OK(SaveCheckpoint(record, *record.extracted.schema(), &out));
  return out.str();
}

Status LoadRecordText(const std::string& text, SchemaPtr schema,
                      CrawlRecord* out) {
  std::istringstream in(text);
  return LoadCrawlRecord(&in, std::move(schema), out);
}

TEST(CrawlRecordCodecTest, SaveLoadRoundtrips) {
  MutatingLocalServer server(TinyData(), 4);
  CrawlRecord record;
  ASSERT_TRUE(BuildCrawlRecord(&server, &record).ok());
  ASSERT_TRUE(server.Apply({Mutation::Insert(Tuple({42}))}).ok());
  CrawlRecord updated;
  CrawlDelta delta;
  ASSERT_TRUE(DeltaCrawl(&server, record, &updated, &delta).ok());

  const std::string text = Saved(updated);
  // Only bag lines grow with the row count: the snapshot repeats no row.
  EXPECT_NE(text.find("\nalgorithm crawl-record\n"), std::string::npos);
  EXPECT_NE(text.find("\nseen 0\nextracted 0\ncollected 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nversion " + std::to_string(updated.db_version) +
                      "\n"),
            std::string::npos);

  CrawlRecord loaded;
  ASSERT_TRUE(LoadRecordText(text, updated.extracted.schema(), &loaded).ok());
  EXPECT_EQ(loaded.db_version, updated.db_version);
  EXPECT_EQ(loaded.queries_issued, updated.queries_issued);
  ASSERT_EQ(loaded.regions.size(), updated.regions.size());
  for (size_t i = 0; i < loaded.regions.size(); ++i) {
    EXPECT_EQ(loaded.regions[i].rectangle, updated.regions[i].rectangle);
    EXPECT_EQ(loaded.regions[i].content_hash,
              updated.regions[i].content_hash);
  }
  // A loaded record drives a delta crawl exactly like the in-memory one.
  EXPECT_TRUE(DiffRecords(updated, loaded).empty());
  CrawlRecord recrawled;
  CrawlDelta nothing;
  DeltaCrawlStats stats;
  ASSERT_TRUE(
      DeltaCrawl(&server, loaded, &recrawled, &nothing, &stats).ok());
  EXPECT_EQ(stats.billed_queries, 0u);
  EXPECT_TRUE(nothing.empty());
}

/// `text` with the first line that starts with `tag` replaced by `line`.
std::string WithLine(std::string text, const std::string& tag,
                     const std::string& line) {
  const size_t from = text.find("\n" + tag) + 1;
  HDC_CHECK(from != 0);
  return text.replace(from, text.find('\n', from) - from, line);
}

/// A saved record of TinyData, the base text of the hostile inputs below.
std::string SavedTinyRecord() {
  MutatingLocalServer server(TinyData(), 4);
  CrawlRecord record;
  HDC_CHECK_OK(BuildCrawlRecord(&server, &record));
  return Saved(record);
}

Status LoadTinyRecord(const std::string& text) {
  CrawlRecord loaded;
  return LoadRecordText(text, TinyData()->schema(), &loaded);
}

TEST(CrawlRecordCodecTest, RejectsCorruptionAndWrongSchema) {
  const std::string text = SavedTinyRecord();
  {
    // Flip one tuple value (row 10 holds 50): the recorded content hash
    // must catch it.
    const Status s = LoadTinyRecord(WithLine(text, "bag 10 ", "bag 10 51"));
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.message().find("content hash mismatch"), std::string::npos)
        << s.ToString();
  }
  {
    // An incompatible schema is refused up front.
    CrawlRecord loaded;
    EXPECT_TRUE(LoadRecordText(text,
                               Schema::NumericBounded({{0, 100}, {0, 1}}),
                               &loaded)
                    .IsInvalidArgument());
  }
  {
    // A compatible one loads, bound to the recorded schema.
    CrawlRecord loaded;
    ASSERT_TRUE(
        LoadRecordText(text, Schema::NumericBounded({{0, 1000}}), &loaded)
            .ok());
    EXPECT_EQ(*loaded.extracted.schema(), *TinyData()->schema());
    EXPECT_EQ(loaded.TupleCount(), 20u);
  }
  EXPECT_TRUE(LoadTinyRecord("not a record\n").IsInvalidArgument());
}

TEST(CrawlRecordCodecTest, UnparsableVersionIsInvalidArgument) {
  EXPECT_TRUE(
      LoadTinyRecord(WithLine(SavedTinyRecord(), "version ", "version abc"))
          .IsInvalidArgument());
}

TEST(CrawlRecordCodecTest, HugeRegionTupleCountIsInvalidArgument) {
  // The first region line, claiming 2^62 tuples.
  const std::string text = SavedTinyRecord();
  const size_t from = text.find("\nregion ") + 1;
  std::istringstream header(text.substr(from, text.find('\n', from) - from));
  std::string tag, hash, count, extents;
  header >> tag >> hash >> count;
  std::getline(header, extents);
  EXPECT_TRUE(LoadTinyRecord(WithLine(text, "region ",
                                      "region " + hash +
                                          " 4611686018427387904" + extents))
                  .IsInvalidArgument());
}

TEST(CrawlRecordCodecTest, OrdinaryCheckpointIsNotARecord) {
  SchemaPtr schema = TinyData()->schema();
  LocalServer server(TinyData(), 4);
  RankShrink crawler;
  CrawlOptions options;
  options.max_queries = 2;
  CrawlResult partial = crawler.Crawl(&server, options);
  ASSERT_TRUE(partial.status.IsResourceExhausted());
  std::ostringstream out;
  ASSERT_TRUE(SaveCheckpoint(*partial.resume_state, *schema, &out).ok());
  CrawlRecord loaded;
  EXPECT_TRUE(LoadRecordText(out.str(), schema, &loaded).IsInvalidArgument());
  EXPECT_TRUE(loaded.regions.empty());
}

TEST(CrawlRecordCodecTest, NoCrawlerResumesARecord) {
  std::istringstream in(SavedTinyRecord());
  std::shared_ptr<CrawlState> state;
  ASSERT_TRUE(LoadCheckpoint(&in, TinyData()->schema(), &state).ok());
  ASSERT_EQ(state->algorithm(), CrawlRecord::kAlgorithm);
  LocalServer server(TinyData(), 4);
  BinaryShrink binary_shrink;
  RankShrink rank_shrink;
  DfsCrawler dfs;
  SliceCoverCrawler slice_cover(/*lazy=*/false);
  SliceCoverCrawler lazy_slice_cover(/*lazy=*/true);
  HybridCrawler hybrid;
  for (Crawler* crawler :
       std::vector<Crawler*>{&binary_shrink, &rank_shrink, &dfs, &slice_cover,
                             &lazy_slice_cover, &hybrid}) {
    SCOPED_TRACE(crawler->name());
    const CrawlResult result = crawler->Resume(&server, state);
    EXPECT_TRUE(result.status.IsInvalidArgument()) << result.status.ToString();
    EXPECT_EQ(server.queries_served(), 0u);
  }
}

TEST(CrawlRecordCodecTest, OverwritingARecordFileLoadsTheNewOne) {
  const std::string path = ::testing::TempDir() + "/hdc_crawl_record.txt";
  MutatingLocalServer server(TinyData(), 4);
  CrawlRecord before;
  ASSERT_TRUE(BuildCrawlRecord(&server, &before).ok());
  ASSERT_TRUE(
      SaveCheckpointFile(before, *before.extracted.schema(), path).ok());
  ASSERT_TRUE(server.Apply({Mutation::Insert(Tuple({42}))}).ok());
  CrawlRecord after;
  CrawlDelta delta;
  ASSERT_TRUE(DeltaCrawl(&server, before, &after, &delta).ok());
  ASSERT_NE(after.db_version, before.db_version);
  ASSERT_TRUE(SaveCheckpointFile(after, *after.extracted.schema(), path).ok());

  std::ifstream in(path);
  CrawlRecord loaded;
  ASSERT_TRUE(LoadCrawlRecord(&in, after.extracted.schema(), &loaded).ok());
  EXPECT_EQ(loaded.db_version, after.db_version);
  EXPECT_TRUE(DiffRecords(after, loaded).empty());
  std::remove(path.c_str());
}

TEST(CrawlRecordCodecTest, SaveIntoMissingDirectoryLeavesNoFile) {
  const std::string dir = ::testing::TempDir() + "/hdc_no_such_dir";
  MutatingLocalServer server(TinyData(), 4);
  CrawlRecord record;
  ASSERT_TRUE(BuildCrawlRecord(&server, &record).ok());
  const Status s = SaveCheckpointFile(record, *record.extracted.schema(),
                                      dir + "/record.txt");
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_FALSE(std::filesystem::exists(dir));
}

}  // namespace
}  // namespace hdc
