// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/delta_crawl.h"

#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "core/checkpoint.h"
#include "data/csv_reader.h"
#include "server/answer_cache.h"
#include "server/caching_server.h"
#include "util/macros.h"

namespace hdc {
namespace {

constexpr const char* kMagic = "hdc-crawl-record";
constexpr int kFormatVersion = 1;

/// Passes over the cover before concluding the server mutates faster than
/// we can snapshot it. Each pass re-asks only entries the previous pass
/// left stale, so consecutive passes shrink geometrically on any server
/// that quiesces at all; a server that defeats sixteen passes is churning
/// continuously and has no consistent snapshot to extract.
constexpr int kMaxPasses = 16;

Status NextLine(std::istream* in, std::string* line) {
  if (!std::getline(*in, *line)) {
    return Status::InvalidArgument("crawl record truncated");
  }
  if (!line->empty() && line->back() == '\r') line->pop_back();
  return Status::OK();
}

/// Reads the next line as "<tag> <count>". Counts parse strictly
/// (ParseUint64Token), so a damaged file is a typed error, never a throw.
Status NextCount(std::istream* in, const std::string& tag, uint64_t* out) {
  std::string line, rest;
  HDC_RETURN_IF_ERROR(NextLine(in, &line));
  HDC_RETURN_IF_ERROR(ExpectTagged(line, tag, &rest));
  if (Status s = ParseUint64Token(rest, out); !s.ok()) {
    return Status::InvalidArgument("crawl record " + tag + ": " +
                                   s.message());
  }
  return Status::OK();
}

/// Splits an overflowing rectangle into disjoint children covering it
/// exactly, pushed so the DFS pops them in ascending order: a categorical
/// slot pins each value of its extent, a numeric slot is halved at the
/// midpoint (the binary-shrink geometry).
Status SplitRectangle(const Query& q, std::vector<Query>* stack) {
  const std::optional<size_t> attr = q.FirstNonPinnedAttribute();
  if (!attr.has_value()) {
    return Status::Unsolvable(
        "point query overflowed: more than k identical tuples at " +
        q.ToString());
  }
  const AttrInterval& ext = q.extent(*attr);
  if (q.schema()->IsCategorical(*attr)) {
    for (Value c = ext.hi; c >= ext.lo; --c) {
      stack->push_back(q.WithCategoricalEquals(*attr, c));
    }
  } else {
    const Value x = ext.lo + (ext.hi - ext.lo + 1) / 2;
    TwoWaySplitResult halves = TwoWaySplit(q, *attr, x);
    stack->push_back(std::move(halves.right));
    stack->push_back(std::move(halves.left));
  }
  return Status::OK();
}

/// One depth-first sweep of `work` through the caching stack: resolved
/// rectangles become regions, overflowing ones are split and descended.
Status CrawlPass(CachingServer* server, const std::vector<Query>& work,
                 std::vector<CrawlRecordRegion>* regions,
                 DeltaCrawlStats* stats) {
  regions->clear();
  std::vector<Query> stack(work.rbegin(), work.rend());
  while (!stack.empty()) {
    Query q = std::move(stack.back());
    stack.pop_back();
    Response response;
    HDC_RETURN_IF_ERROR(server->Issue(q, &response));
    if (response.overflow) {
      ++stats->regions_descended;
      HDC_RETURN_IF_ERROR(SplitRectangle(q, &stack));
      continue;
    }
    const uint64_t hash = HashResponse(response);
    regions->push_back(
        CrawlRecordRegion{std::move(q), std::move(response), hash});
  }
  return Status::OK();
}

/// Shared driver of BuildCrawlRecord and DeltaCrawl: replays `work`
/// through a CachingServer over `cache` until one full pass completes
/// without the server's db_version moving, so the resulting cover is a
/// consistent snapshot even when mutations land mid-crawl. Re-passes walk
/// the refined cover of the previous pass: regions already answered at the
/// final version are version-check hits (free), so each pass pays only for
/// the rectangles the interleaved mutation actually touched.
Status ConvergedCrawl(HiddenDbServer* server, SchemaPtr schema,
                      std::shared_ptr<AnswerCache> cache,
                      std::vector<Query> work, CrawlRecord* record,
                      DeltaCrawlStats* stats) {
  CachingServer caching(server, std::move(cache));
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    const uint64_t version_before = server->db_version();
    std::vector<CrawlRecordRegion> regions;
    HDC_RETURN_IF_ERROR(CrawlPass(&caching, work, &regions, stats));
    ++stats->passes;
    const uint64_t version_after = server->db_version();
    if (version_after == version_before) {
      const AnswerCacheStats cache_stats = caching.stats();
      stats->billed_queries =
          cache_stats.misses + cache_stats.revalidations_changed;
      stats->cheap_revalidations = cache_stats.revalidations_matched;
      stats->cache_hits = cache_stats.hits;
      record->schema = std::move(schema);
      record->db_version = version_after;
      record->regions = std::move(regions);
      return Status::OK();
    }
    work.clear();
    work.reserve(regions.size());
    for (CrawlRecordRegion& region : regions) {
      work.push_back(std::move(region.rectangle));
    }
  }
  return Status::Unavailable(
      "server kept mutating across " + std::to_string(kMaxPasses) +
      " crawl passes; no consistent snapshot reachable");
}

std::shared_ptr<AnswerCache> MakeVersionCheckCache() {
  AnswerCacheOptions options;
  options.policy = RevalidationPolicy::kVersionCheck;
  return std::make_shared<AnswerCache>(options);
}

}  // namespace

std::vector<std::pair<uint64_t, Tuple>> CrawlRecord::Extraction() const {
  std::vector<std::pair<uint64_t, Tuple>> rows;
  rows.reserve(TupleCount());
  for (const CrawlRecordRegion& region : regions) {
    for (const ReturnedTuple& rt : region.answer.tuples) {
      rows.emplace_back(rt.hidden_id, rt.tuple);
    }
  }
  return rows;
}

uint64_t CrawlRecord::TupleCount() const {
  uint64_t count = 0;
  for (const CrawlRecordRegion& region : regions) {
    count += region.answer.size();
  }
  return count;
}

Status BuildCrawlRecord(HiddenDbServer* server, CrawlRecord* record,
                        DeltaCrawlStats* stats) {
  HDC_CHECK(server != nullptr && record != nullptr);
  DeltaCrawlStats local;
  std::vector<Query> work = {Query::FullSpace(server->schema())};
  HDC_RETURN_IF_ERROR(ConvergedCrawl(server, server->schema(),
                                     MakeVersionCheckCache(), std::move(work),
                                     record, &local));
  record->queries_spent = local.billed_queries;
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Status DeltaCrawl(HiddenDbServer* server, const CrawlRecord& prior,
                  CrawlRecord* updated, CrawlDelta* delta,
                  DeltaCrawlStats* stats) {
  HDC_CHECK(server != nullptr && updated != nullptr && delta != nullptr);
  HDC_CHECK_MSG(updated != &prior, "DeltaCrawl output may not alias prior");
  if (prior.schema == nullptr || prior.regions.empty()) {
    return Status::InvalidArgument("prior crawl record is empty");
  }
  if (!server->schema()->CompatibleWith(*prior.schema)) {
    return Status::InvalidArgument(
        "prior crawl record's schema is incompatible with the server's");
  }
  // Seed the cache with the prior cover at its version: rectangles the
  // server's version proves unchanged are hits, the rest cost one
  // conditional re-ask each, billed fully only when content moved.
  std::shared_ptr<AnswerCache> cache = MakeVersionCheckCache();
  std::vector<Query> work;
  work.reserve(prior.regions.size());
  for (const CrawlRecordRegion& region : prior.regions) {
    cache->Seed(region.rectangle, region.answer, region.content_hash,
                prior.db_version);
    work.push_back(region.rectangle);
  }
  DeltaCrawlStats local;
  HDC_RETURN_IF_ERROR(ConvergedCrawl(server, prior.schema, std::move(cache),
                                     std::move(work), updated, &local));
  updated->queries_spent = prior.queries_spent + local.billed_queries;
  *delta = DiffRecords(prior, *updated);
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

CrawlDelta DiffRecords(const CrawlRecord& before, const CrawlRecord& after) {
  // std::map keeps both sides id-sorted, making the emitted sets
  // deterministic and the merge a linear two-pointer walk.
  std::map<uint64_t, const Tuple*> old_rows;
  std::map<uint64_t, const Tuple*> new_rows;
  for (const CrawlRecordRegion& region : before.regions) {
    for (const ReturnedTuple& rt : region.answer.tuples) {
      old_rows[rt.hidden_id] = &rt.tuple;
    }
  }
  for (const CrawlRecordRegion& region : after.regions) {
    for (const ReturnedTuple& rt : region.answer.tuples) {
      new_rows[rt.hidden_id] = &rt.tuple;
    }
  }
  CrawlDelta delta;
  auto old_it = old_rows.begin();
  auto new_it = new_rows.begin();
  while (old_it != old_rows.end() || new_it != new_rows.end()) {
    if (new_it == new_rows.end() ||
        (old_it != old_rows.end() && old_it->first < new_it->first)) {
      delta.deleted.push_back({old_it->first, *old_it->second});
      ++old_it;
    } else if (old_it == old_rows.end() || new_it->first < old_it->first) {
      delta.inserted.push_back({new_it->first, *new_it->second});
      ++new_it;
    } else {
      if (!(*old_it->second == *new_it->second)) {
        delta.updated.push_back(
            {old_it->first, *old_it->second, *new_it->second});
      }
      ++old_it;
      ++new_it;
    }
  }
  return delta;
}

// --- persistence -------------------------------------------------------

Status SaveCrawlRecord(const CrawlRecord& record, std::ostream* out) {
  HDC_CHECK(out != nullptr);
  if (record.schema == nullptr) {
    return Status::InvalidArgument("crawl record has no schema");
  }
  *out << kMagic << ' ' << kFormatVersion << '\n';
  *out << "schema " << FormatSchemaSpec(*record.schema) << '\n';
  *out << "version " << record.db_version << '\n';
  *out << "queries " << record.queries_spent << '\n';
  *out << "regions " << record.regions.size() << '\n';
  for (const CrawlRecordRegion& region : record.regions) {
    if (region.answer.overflow) {
      return Status::InvalidArgument(
          "crawl record holds an unresolved region: " +
          region.rectangle.ToString());
    }
    *out << "region " << region.content_hash << ' ' << region.answer.size()
         << ' ';
    EncodeQueryTokens(region.rectangle, out);
    *out << '\n';
    for (const ReturnedTuple& rt : region.answer.tuples) {
      *out << rt.hidden_id << ' ';
      EncodeTupleTokens(rt.tuple, out);
      *out << '\n';
    }
  }
  out->flush();
  if (!out->good()) return Status::Internal("crawl record write failed");
  return Status::OK();
}

Status SaveCrawlRecordFile(const CrawlRecord& record,
                           const std::string& path) {
  std::ostringstream out;
  HDC_RETURN_IF_ERROR(SaveCrawlRecord(record, &out));
  return WriteFileDurably(path, out.str());
}

Status LoadCrawlRecord(std::istream* in, SchemaPtr schema, CrawlRecord* out) {
  HDC_CHECK(in != nullptr && out != nullptr && schema != nullptr);
  std::string line, rest;
  HDC_RETURN_IF_ERROR(NextLine(in, &line));
  if (line != std::string(kMagic) + " " + std::to_string(kFormatVersion)) {
    return Status::InvalidArgument("not a crawl record: '" + line + "'");
  }
  HDC_RETURN_IF_ERROR(NextLine(in, &line));
  HDC_RETURN_IF_ERROR(ExpectTagged(line, "schema", &rest));
  SchemaPtr recorded;
  HDC_RETURN_IF_ERROR(ParseSchemaSpec(rest, &recorded));
  if (!(*recorded == *schema)) {
    return Status::InvalidArgument(
        "crawl record schema '" + rest + "' does not match the caller's '" +
        FormatSchemaSpec(*schema) + "'");
  }

  // Counts in the file never size a container: the loops below grow the
  // record as elements are actually read, so a damaged count ends in a
  // typed truncation error rather than a huge allocation.
  CrawlRecord record;
  record.schema = schema;
  HDC_RETURN_IF_ERROR(NextCount(in, "version", &record.db_version));
  HDC_RETURN_IF_ERROR(NextCount(in, "queries", &record.queries_spent));
  uint64_t region_count = 0;
  HDC_RETURN_IF_ERROR(NextCount(in, "regions", &region_count));

  const size_t arity = schema->num_attributes();
  for (uint64_t r = 0; r < region_count; ++r) {
    HDC_RETURN_IF_ERROR(NextLine(in, &line));
    HDC_RETURN_IF_ERROR(ExpectTagged(line, "region", &rest));
    std::istringstream tokens(rest);
    std::string hash_token, count_token;
    uint64_t content_hash = 0, tuple_count = 0;
    if (!(tokens >> hash_token >> count_token) ||
        !ParseUint64Token(hash_token, &content_hash).ok() ||
        !ParseUint64Token(count_token, &tuple_count).ok()) {
      return Status::InvalidArgument("malformed region header: " + line);
    }
    Query rectangle = Query::FullSpace(schema);
    HDC_RETURN_IF_ERROR(DecodeQueryTokens(&tokens, schema, &rectangle));
    CrawlRecordRegion region{std::move(rectangle), Response{}, content_hash};
    for (uint64_t t = 0; t < tuple_count; ++t) {
      HDC_RETURN_IF_ERROR(NextLine(in, &line));
      std::istringstream row(line);
      ReturnedTuple rt;
      if (!(row >> rt.hidden_id)) {
        return Status::InvalidArgument("malformed tuple line: " + line);
      }
      HDC_RETURN_IF_ERROR(DecodeTupleTokens(&row, arity, &rt.tuple));
      region.answer.tuples.push_back(std::move(rt));
    }
    // The recorded hash doubles as a checksum: recompute and reject
    // records whose tuples no longer match their fingerprint.
    if (HashResponse(region.answer) != region.content_hash) {
      return Status::InvalidArgument(
          "crawl record corrupt: content hash mismatch in region " +
          region.rectangle.ToString());
    }
    record.regions.push_back(std::move(region));
  }
  *out = std::move(record);
  return Status::OK();
}

Status LoadCrawlRecordFile(const std::string& path, SchemaPtr schema,
                           CrawlRecord* out) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  return LoadCrawlRecord(&in, std::move(schema), out);
}

}  // namespace hdc
