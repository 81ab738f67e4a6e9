// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/delta_crawl.h"

#include <map>
#include <sstream>
#include <utility>

#include "core/checkpoint.h"
#include "core/crawl_context.h"
#include "core/frontier.h"
#include "server/answer_cache.h"
#include "server/caching_server.h"
#include "util/macros.h"

namespace hdc {
namespace {

/// Passes over the cover before concluding the server mutates faster than
/// we can snapshot it. Each pass re-asks only entries the previous pass
/// left stale, so consecutive passes shrink geometrically on any server
/// that quiesces at all; a server that defeats sixteen passes is churning
/// continuously and has no consistent snapshot to extract.
constexpr int kMaxPasses = 16;

/// The delta crawl's rules: every item asks its own rectangle and keeps
/// the answer. A resolved rectangle becomes a region of the record; an
/// overflowing one splits into disjoint children covering it exactly.
class RecordRules : public FrontierRules {
 public:
  RecordRules(CrawlContext* ctx, CrawlRecord* record, DeltaCrawlStats* stats)
      : FrontierRules(ctx, record), record_(record), stats_(stats) {}

  Step Plan(FrontierItem* /*item*/) override { return Step::kLookup; }

  bool Answered(FrontierItem item, CrawlContext::Outcome outcome,
                Response* response) override {
    if (outcome == CrawlContext::Outcome::kOverflow) {
      ++stats_->regions_descended;
      return Expand(item, *response);
    }
    const uint64_t hash = HashResponse(*response);
    record_->regions.push_back(
        CrawlRecordRegion{std::move(item.q), std::move(*response), hash});
    return true;
  }

  /// Pushes the children so they pop in ascending order: the first free
  /// attribute, if categorical, pins each value of its extent; if numeric,
  /// is halved at the midpoint (the binary-shrink geometry).
  bool Expand(const FrontierItem& item, const Response& /*response*/) override {
    const Query& q = item.q;
    const std::optional<size_t> attr = q.FirstNonPinnedAttribute();
    if (!attr.has_value()) return Unsolvable(q);
    const AttrInterval& ext = q.extent(*attr);
    if (q.schema()->IsCategorical(*attr)) {
      for (Value c = ext.hi; c >= ext.lo; --c) {
        Push(q.WithCategoricalEquals(*attr, c));
      }
    } else {
      TwoWaySplitResult halves =
          TwoWaySplit(q, *attr, ext.lo + (ext.hi - ext.lo + 1) / 2);
      Push(std::move(halves.right));
      Push(std::move(halves.left));
    }
    return true;
  }

 private:
  void Push(Query q) {
    frontier_->push_back(
        FrontierItem{FrontierItem::Kind::kRank, std::move(q), 0});
  }

  CrawlRecord* record_;
  DeltaCrawlStats* stats_;
};

/// Shared driver of BuildCrawlRecord and DeltaCrawl: drains `record`'s
/// frontier through a CachingServer over `cache`, one frontier run per
/// pass, until one full pass completes without the server's db_version
/// moving, so the resulting cover is a consistent snapshot even when
/// mutations land mid-crawl. Re-passes walk the refined cover of the
/// previous pass: regions already answered at the final version are
/// version-check hits (free), so each pass pays only for the rectangles the
/// interleaved mutation actually touched.
Status ConvergedCrawl(HiddenDbServer* server,
                      std::shared_ptr<AnswerCache> cache, CrawlRecord* record,
                      DeltaCrawlStats* stats) {
  CachingServer caching(server, std::move(cache));
  CrawlContext ctx(&caching, record, CrawlOptions());
  RecordRules rules(&ctx, record, stats);
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    const uint64_t version_before = server->db_version();
    RunFrontier(&ctx, record, &rules);
    if (ctx.stopped()) {
      return !ctx.interrupt().ok() ? ctx.interrupt() : record->fatal;
    }
    ++stats->passes;
    const uint64_t version_after = server->db_version();
    if (version_after == version_before) {
      const AnswerCacheStats cache_stats = caching.stats();
      stats->billed_queries =
          cache_stats.misses + cache_stats.revalidations_changed;
      stats->cheap_revalidations = cache_stats.revalidations_matched;
      stats->cache_hits = cache_stats.hits;
      record->db_version = version_after;
      // The regions hold every answered row; the context's seen-row set
      // would only repeat their ids in the saved record.
      record->seen_rows.clear();
      return Status::OK();
    }
    for (auto it = record->regions.rbegin(); it != record->regions.rend();
         ++it) {
      record->frontier.push_back(
          FrontierItem{FrontierItem::Kind::kRank, std::move(it->rectangle), 0});
    }
    record->regions.clear();
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

CrawlRecord::CrawlRecord() : CrawlRecord(Schema::NumericBounded({{0, 0}})) {}

CrawlRecord::CrawlRecord(SchemaPtr schema)
    : CrawlState(std::move(schema), kAlgorithm, FrontierItem::Kind::kRank) {}

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
  CrawlRecord built(server->schema());
  built.frontier.push_back(FrontierItem{
      FrontierItem::Kind::kRank, Query::FullSpace(server->schema()), 0});
  DeltaCrawlStats local;
  HDC_RETURN_IF_ERROR(
      ConvergedCrawl(server, MakeVersionCheckCache(), &built, &local));
  built.queries_issued = local.billed_queries;
  *record = std::move(built);
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Status DeltaCrawl(HiddenDbServer* server, const CrawlRecord& prior,
                  CrawlRecord* updated, CrawlDelta* delta,
                  DeltaCrawlStats* stats) {
  HDC_CHECK(server != nullptr && updated != nullptr && delta != nullptr);
  HDC_CHECK_MSG(updated != &prior, "DeltaCrawl output may not alias prior");
  const SchemaPtr& schema = prior.extracted.schema();
  if (prior.regions.empty()) {
    return Status::InvalidArgument("prior crawl record is empty");
  }
  if (!server->schema()->CompatibleWith(*schema)) {
    return Status::InvalidArgument(
        "prior crawl record's schema is incompatible with the server's");
  }
  // Seed the cache with the prior cover at its version: rectangles the
  // server's version proves unchanged are hits, the rest cost one
  // conditional re-ask each, billed fully only when content moved.
  std::shared_ptr<AnswerCache> cache = MakeVersionCheckCache();
  CrawlRecord next(schema);
  next.frontier.reserve(prior.regions.size());
  for (auto it = prior.regions.rbegin(); it != prior.regions.rend(); ++it) {
    cache->Seed(it->rectangle, it->answer, it->content_hash,
                prior.db_version);
    next.frontier.push_back(
        FrontierItem{FrontierItem::Kind::kRank, it->rectangle, 0});
  }
  DeltaCrawlStats local;
  HDC_RETURN_IF_ERROR(
      ConvergedCrawl(server, std::move(cache), &next, &local));
  next.queries_issued = prior.queries_issued + local.billed_queries;
  *delta = DiffRecords(prior, next);
  *updated = std::move(next);
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

size_t CrawlRecord::AppendFrontier(bool /*changed_only*/,
                                   std::string* out) const {
  *out += "version ";
  AppendDecimal(db_version, out);
  *out += '\n';
  for (const CrawlRecordRegion& region : regions) {
    *out += "region ";
    AppendDecimal(region.content_hash, out);
    *out += ' ';
    AppendDecimal(region.answer.size(), out);
    *out += ' ';
    AppendQueryTokens(region.rectangle, out);
    *out += '\n';
    AppendBagLines(region.answer.tuples, out);
  }
  AppendItems(0, out);
  return 0;
}

Status CrawlRecord::DecodeFrontier(CheckpointReader* in) {
  std::string line, rest;
  HDC_RETURN_IF_ERROR(in->Next(&line));
  if (!ExpectTagged(line, "version", &rest).ok() ||
      !ParseUint64Token(rest, &db_version).ok()) {
    return in->Error("expected version <db_version>, got '" + line + "'");
  }
  regions.clear();
  return CrawlState::DecodeFrontier(in);
}

Status CrawlRecord::DecodeLine(CheckpointReader* in, const std::string& line) {
  std::string rest;
  if (!ExpectTagged(line, "region", &rest).ok()) {
    return CrawlState::DecodeLine(in, line);
  }
  const SchemaPtr& schema = extracted.schema();
  std::istringstream tokens(rest);
  std::string hash_token, count_token;
  CrawlRecordRegion region{Query::FullSpace(schema), Response{}, 0};
  uint64_t count = 0;
  if (!(tokens >> hash_token >> count_token) ||
      !ParseUint64Token(hash_token, &region.content_hash).ok() ||
      !ParseUint64Token(count_token, &count).ok()) {
    return in->Error("malformed region line: " + line);
  }
  if (Status s = DecodeQueryTokens(&tokens, schema, &region.rectangle);
      !s.ok()) {
    return in->Error(s.message());
  }
  HDC_RETURN_IF_ERROR(DecodeBagLines(in, count, schema->num_attributes(),
                                     &region.answer.tuples));
  // The recorded hash doubles as a checksum: reject a region whose tuples
  // no longer match their fingerprint.
  if (HashResponse(region.answer) != region.content_hash) {
    return in->Error("content hash mismatch in region " +
                     region.rectangle.ToString());
  }
  regions.push_back(std::move(region));
  return Status::OK();
}

Status LoadCrawlRecord(std::istream* in, SchemaPtr schema, CrawlRecord* out) {
  HDC_CHECK(out != nullptr);
  std::shared_ptr<CrawlState> state;
  HDC_RETURN_IF_ERROR(LoadCheckpoint(in, std::move(schema), &state));
  auto* record = dynamic_cast<CrawlRecord*>(state.get());
  if (record == nullptr || !record->Finished()) {
    return Status::InvalidArgument("not a finished crawl record: a '" +
                                   state->algorithm() + "' state");
  }
  *out = std::move(*record);
  return Status::OK();
}

}  // namespace hdc
