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
//     hidden-web crawlers).
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
#include <string>
#include <vector>

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
/// space, consistent as of `db_version`.
struct CrawlRecord {
  SchemaPtr schema;
  /// The server's db_version the regions are a consistent snapshot of.
  uint64_t db_version = 0;
  /// Lifetime billed queries spent producing and updating this record.
  uint64_t queries_spent = 0;
  std::vector<CrawlRecordRegion> regions;

  /// All extracted rows as (hidden_id, tuple), unordered.
  std::vector<std::pair<uint64_t, Tuple>> Extraction() const;
  /// Total tuples across regions.
  uint64_t TupleCount() const;
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
/// mutating faster than passes complete.
Status BuildCrawlRecord(HiddenDbServer* server, CrawlRecord* record,
                        DeltaCrawlStats* stats = nullptr);

/// Incremental re-crawl against `prior`. On success `updated` holds the
/// new consistent record (its regions refine or replace prior ones),
/// `delta` the exact insert/delete/update sets between the two
/// extractions, and `stats` the query bill. `prior` and `updated` may not
/// alias.
Status DeltaCrawl(HiddenDbServer* server, const CrawlRecord& prior,
                  CrawlRecord* updated, CrawlDelta* delta,
                  DeltaCrawlStats* stats = nullptr);

/// Exact diff of two records' extractions by hidden id — the ground truth
/// DeltaCrawl's emitted sets are tested against. Output is sorted by id
/// (deterministic for comparisons).
CrawlDelta DiffRecords(const CrawlRecord& before, const CrawlRecord& after);

// --- persistence -------------------------------------------------------
// Line-oriented text format in the checkpoint.h family:
//   hdc-crawl-record 1
//   schema <spec>
//   version <db_version>
//   queries <queries_spent>
//   regions <count>
//   region <content hash> <tuple count> <lo hi>...   (one per region)
//   <hidden_id> <v1> ... <vd>                        (one per tuple)
// Content hashes are re-verified against the decoded tuples on load, so a
// corrupted record is rejected instead of silently seeding a wrong cache.
// Counts and header tokens parse strictly, and no count read from the file
// sizes a container: a damaged record is a typed InvalidArgument, never a
// throw or a huge allocation.

Status SaveCrawlRecord(const CrawlRecord& record, std::ostream* out);
/// Crash-atomic (WriteFileDurably: temp file, fsync, rename): a crash
/// mid-save leaves the old record or the new one, never a torn file.
Status SaveCrawlRecordFile(const CrawlRecord& record,
                           const std::string& path);
/// `schema` must equal the recorded spec exactly (records are bound to the
/// space they were crawled in).
Status LoadCrawlRecord(std::istream* in, SchemaPtr schema, CrawlRecord* out);
Status LoadCrawlRecordFile(const std::string& path, SchemaPtr schema,
                           CrawlRecord* out);

}  // namespace hdc
