// Copyright (c) hdc authors. Apache-2.0 license.
//
// Delta crawl: incremental re-extraction of a *mutating* hidden database.
//
// The paper prices a crawl of a frozen database; a real hidden database
// mutates between (and during) crawls, and re-running a full crawl to find
// a handful of changed rows is the dominant long-run cost. This driver
// makes re-crawls pay per *change* instead of per *row*:
//
//  1. A full crawl produces a CrawlRecord: a disjoint cover of the data
//     space by resolved query rectangles, each with its answer and the
//     answer's 64-bit truncated SHA-256 content hash — the crawl's
//     conditional-request fingerprints (the ETag idiom of the related
//     hidden-web crawlers). Each pass over the cover is one frontier run
//     (core/frontier.h).
//
//  2. DeltaCrawl seeds an AnswerCache with the record's entries at the
//     record's db_version and replays the rectangles through a
//     CachingServer in version-check mode:
//       - server version unchanged  -> every rectangle is a cache hit:
//         zero queries prove the extraction current;
//       - version moved             -> each rectangle costs one conditional
//         re-ask. A matching content hash is a cheap revalidation (the
//         "304 Not Modified" of this protocol); only rectangles whose
//         content actually changed are billed, and only those that now
//         overflow are descended into (the binary/DFS split of the full
//         crawlers, confined to the changed subspace).
//
//  3. The old and new records are diffed by hidden id into insert /
//     delete / update sets — exactly what a full re-crawl diff would
//     produce, at a fraction of the queries (bench/bench_cache.cc).
//
// Mutations that land *mid-crawl* are handled by convergence: a pass that
// observes the server's db_version moving re-replays the (already mostly
// cached) cover until a full pass completes inside one version — so the
// final record is a consistent snapshot, and the emitted delta matches a
// full re-crawl diff taken at that version.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/crawler.h"
#include "data/tuple.h"
#include "query/query.h"
#include "server/response.h"
#include "server/server.h"
#include "util/status.h"

namespace hdc {

/// One resolved rectangle of the cover: the canonical query, its full
/// answer, and the answer's content hash.
struct CrawlRecordRegion {
  Query rectangle;
  Response answer;
  uint64_t content_hash = 0;
};

/// A completed crawl, replayable: disjoint rectangles covering the data
/// space, consistent as of `db_version`. It is the delta-crawl family's
/// crawl state (see persistence below); `queries_issued` counts the
/// lifetime billed queries spent producing and updating it.
class CrawlRecord : public CrawlState {
 public:
  static constexpr const char* kAlgorithm = "crawl-record";

  /// An empty record over a one-point placeholder space, until
  /// BuildCrawlRecord, DeltaCrawl or LoadCrawlRecord assigns it.
  CrawlRecord();
  explicit CrawlRecord(SchemaPtr schema);

  /// The server's db_version the regions are a consistent snapshot of.
  uint64_t db_version = 0;
  std::vector<CrawlRecordRegion> regions;

  /// All extracted rows as (hidden_id, tuple), unordered.
  std::vector<std::pair<uint64_t, Tuple>> Extraction() const;
  /// Total tuples across regions.
  uint64_t TupleCount() const;

  /// The version line, the regions, then any items; all count as changed.
  size_t AppendFrontier(bool changed_only, std::string* out) const override;
  Status DecodeFrontier(CheckpointReader* in) override;

 protected:
  /// Decodes a region and its bag lines, re-verifying its content hash.
  Status DecodeLine(CheckpointReader* in, const std::string& line) override;
};

/// Row-level difference between two records, keyed by hidden id.
struct RowChange {
  uint64_t hidden_id = 0;
  Tuple tuple;
};
struct RowUpdate {
  uint64_t hidden_id = 0;
  Tuple before;
  Tuple after;
};
struct CrawlDelta {
  std::vector<RowChange> inserted;
  std::vector<RowChange> deleted;
  std::vector<RowUpdate> updated;

  bool empty() const {
    return inserted.empty() && deleted.empty() && updated.empty();
  }
  size_t size() const {
    return inserted.size() + deleted.size() + updated.size();
  }
};

/// Query accounting of one delta (or build) crawl, split by price.
struct DeltaCrawlStats {
  /// Full-price queries: cache misses plus conditional re-asks whose
  /// content changed — the number the bench compares to a full re-crawl.
  uint64_t billed_queries = 0;
  /// Conditional re-asks whose content hash matched ("304"s).
  uint64_t cheap_revalidations = 0;
  /// Rectangles served from cache without any round trip.
  uint64_t cache_hits = 0;
  /// Changed rectangles that overflowed and were split.
  uint64_t regions_descended = 0;
  /// Convergence passes over the cover (1 when no mid-crawl mutation).
  uint64_t passes = 0;
};

/// Full partition crawl producing a replayable record. Converges under
/// mid-crawl mutations (see file comment); fails Unsolvable when some
/// point holds more than k tuples, Unavailable when the server keeps
/// mutating faster than passes complete, and with the server's own status
/// when a query fails (e.g. an exhausted BudgetServer). `record` is
/// assigned only on success.
Status BuildCrawlRecord(HiddenDbServer* server, CrawlRecord* record,
                        DeltaCrawlStats* stats = nullptr);

/// Incremental re-crawl against `prior`. On success `updated` holds the
/// new consistent record (its regions refine or replace prior ones),
/// `delta` the exact insert/delete/update sets between the two
/// extractions, and `stats` the query bill. Fails like BuildCrawlRecord,
/// leaving `updated` and `delta` unassigned. `prior` and `updated` may not
/// alias.
Status DeltaCrawl(HiddenDbServer* server, const CrawlRecord& prior,
                  CrawlRecord* updated, CrawlDelta* delta,
                  DeltaCrawlStats* stats = nullptr);

/// Exact diff of two records' extractions by hidden id — the ground truth
/// DeltaCrawl's emitted sets are tested against. Output is sorted by id
/// (deterministic for comparisons).
CrawlDelta DiffRecords(const CrawlRecord& before, const CrawlRecord& after);

// --- persistence -------------------------------------------------------
// A record's frontier section in the crawl-state format (core/checkpoint.h):
//   version <db_version>
//   region <content hash> <m> <extents>   # one per region, then
//   bag <row id> <v1> ... <vd>            # its m answer tuples
// Save a record with SaveCheckpoint or SaveCheckpointFile. Content hashes
// are re-verified against the decoded tuples on load, so a corrupted
// record is rejected instead of silently seeding a wrong cache. As for
// every crawl-state file, a damaged record is a typed error, never a throw
// or a huge allocation.

/// LoadCheckpoint, then a typed check that the state is a finished crawl
/// record. `schema` must match the recorded one or be compatible with it;
/// the record is then bound to the recorded schema.
Status LoadCrawlRecord(std::istream* in, SchemaPtr schema, CrawlRecord* out);

}  // namespace hdc
