// Copyright (c) hdc authors. Apache-2.0 license.
//
// The immutable half of the in-memory server: everything LocalServer used
// to build once and never change — the column store, the per-attribute
// indexes, and the fixed ranking priorities — extracted into a fully const,
// freely shareable object. One LocalIndex can back any number of servers
// or crawl sessions at once (see server/crawl_service.h): every method is
// const and touches no mutable state, so concurrent evaluation from many
// threads needs no synchronisation.
//
// Evaluation runs on one of three engines (LocalIndexOptions::engine):
//
//   kScan    — full scan per query. No index structures at all; the slow,
//              independent oracle the other engines are cross-checked
//              against.
//   kLegacy  — single-driver postings/sorted-array evaluation: the most
//              selective predicate supplies candidates, every candidate is
//              verified row-at-a-time against the remaining predicates.
//   kBitmap  — the default. Roaring-style block-compressed bitmaps: every
//              categorical value owns one container per 65536-id block,
//              stored as a sorted uint16 array while sparse and flipped to
//              a 1024-word bitset at 4096 ids; conjunctions intersect all
//              constraining predicates word-at-a-time (AND to combine
//              bitsets, ANDNOT to strip candidates a range predicate
//              rejects). Numeric ranges carry per-block zone maps (min/max
//              of the column per id block) so a range skips blocks that
//              cannot intersect it and accepts blocks it fully covers
//              without looking at a single row; only boundary blocks are
//              scanned. Top-k answers are selected streaming: a bounded
//              size-k heap consumes the intersection in ascending-id order,
//              flags overflow the moment candidate k+1 appears, and never
//              materializes the full match set.
//
// All three engines return bit-identical responses; the conformance suite
// and tests/index_engine_test.cc enforce it.
//
// The mutable half of a conversation (statistics, budgets, logs) lives in
// whoever holds the index: LocalServer for the classic single-crawl setup,
// ServerSession for the multi-crawl service.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "query/query.h"
#include "server/ranking.h"
#include "server/response.h"

namespace hdc {

class WorkerPool;

/// Which evaluation core answers queries. All engines are answer-identical;
/// they differ only in wall time and in the structures built at
/// construction.
enum class IndexEngine {
  kScan,    ///< full scan; the differential-test oracle
  kLegacy,  ///< single-driver postings + per-row verification
  kBitmap,  ///< block-compressed bitmaps + zone maps + streaming top-k
};

/// "scan" / "legacy" / "bitmap".
const char* IndexEngineName(IndexEngine engine);

struct LocalIndexOptions {
  IndexEngine engine = IndexEngine::kBitmap;
};

/// What LocalIndex built at construction time; printed by examples and
/// benches so a run proves which path it exercised.
struct IndexBuildStats {
  IndexEngine engine = IndexEngine::kBitmap;
  /// kBitmap only: containers across all categorical value bitmaps.
  uint64_t array_containers = 0;
  uint64_t bitset_containers = 0;
  /// kBitmap only: zone-map entries (id blocks x numeric attributes).
  uint64_t zone_map_blocks = 0;
};

/// Per-conversation statistic deltas produced by query evaluation; the
/// owner folds them into its own counters.
struct QueryStats {
  uint64_t queries = 0;
  uint64_t tuples = 0;
  uint64_t overflows = 0;

  void Add(const QueryStats& other) {
    queries += other.queries;
    tuples += other.tuples;
    overflows += other.overflows;
  }
};

/// Reusable per-conversation evaluation buffers. One EvalScratch may serve
/// any number of sequential AnswerQuery calls; concurrent calls need
/// distinct instances. Capacity is amortised across queries but bounded:
/// TrimAfterBatch drops oversized retention so one huge query cannot pin
/// peak-size buffers for the lifetime of a pool thread.
struct EvalScratch {
  /// Match collection (kScan/kLegacy) and the bounded top-k selection heap
  /// (kBitmap, never more than k entries).
  std::vector<uint32_t> ids;

  /// kBitmap range-driver bitmap: one bit per row, valid only for blocks
  /// whose epoch entry matches `epoch` (re-zeroed lazily per query, so a
  /// narrow range touches only its own blocks).
  std::vector<uint64_t> range_words;
  std::vector<uint32_t> block_epoch;
  uint32_t epoch = 0;

  /// Ids capacity retained across queries; anything above is released by
  /// TrimAfterBatch (64Ki ids = 256KiB).
  static constexpr size_t kRetainIds = size_t{1} << 16;

  /// Shrinks oversized buffers back to the retention cap. Called by
  /// EvaluateBatch after each member so an overflow-heavy round cannot pin
  /// peak-size scratch on every worker thread (or conversation) forever.
  /// (range_words/block_epoch are bounded by the dataset size and kept.)
  void TrimAfterBatch() {
    if (ids.capacity() > kRetainIds) {
      ids.clear();
      ids.shrink_to_fit();
      ids.reserve(kRetainIds);
    }
  }
};

/// Read-only evaluation engine over one Dataset with one fixed ranking.
class LocalIndex {
 public:
  /// `policy` defaults to the paper's random-priority ranking (seeded for
  /// reproducibility).
  LocalIndex(std::shared_ptr<const Dataset> dataset, uint64_t k,
             std::unique_ptr<RankingPolicy> policy = nullptr,
             LocalIndexOptions options = {});

  uint64_t k() const { return k_; }
  const SchemaPtr& schema() const { return dataset_->schema(); }
  const Dataset& dataset() const { return *dataset_; }
  IndexEngine engine() const { return options_.engine; }
  const IndexBuildStats& build_stats() const { return build_stats_; }

  /// True iff Problem 1 is solvable against this index: no point of the
  /// data space holds more than k tuples (Section 1.1).
  bool IsCrawlable() const;

  /// Exact |q(D)| (no k-truncation); used by tests as ground truth.
  /// Thread-safe and materialization-free: counts flow from popcounts over
  /// intersected bitmap blocks (or per-row tests on the oracle engines)
  /// without ever building a match vector.
  uint64_t CountMatches(const Query& query) const;

  /// Evaluation of one query: fills `response`, accumulates into `stats`,
  /// touches nothing but the read-only indexes. Safe to call concurrently
  /// with distinct `scratch`/`stats`.
  void AnswerQuery(const Query& query, Response* response,
                   EvalScratch* scratch, QueryStats* stats) const;

 private:
  // --- kBitmap structures ----------------------------------------------

  /// Ids are split into blocks of 65536; each block's membership set is one
  /// container, array-coded while sparse and bitset-coded once dense
  /// (roaring's hybrid; the cutover is where the encodings' sizes cross).
  static constexpr uint32_t kBlockShift = 16;
  static constexpr uint32_t kBlockSize = uint32_t{1} << kBlockShift;
  static constexpr uint32_t kWordsPerBlock = kBlockSize / 64;
  static constexpr uint32_t kArrayCutover = 4096;

  struct Container {
    enum class Kind : uint8_t { kEmpty, kArray, kBitset };
    Kind kind = Kind::kEmpty;
    uint32_t cardinality = 0;
    /// Start of this container's payload in the owning Bitmap's arena
    /// (element offset into `arena` for kArray, word offset into `words`
    /// for kBitset); assigned by Finalize.
    uint32_t offset = 0;
    std::vector<uint16_t> build_array;  ///< build-time only, freed on Finalize
    std::vector<uint64_t> build_words;  ///< build-time only, freed on Finalize
  };

  struct Bitmap {
    uint64_t cardinality = 0;
    std::vector<Container> blocks;
    /// Payloads of every container, packed in block order. One contiguous
    /// buffer per bitmap keeps a query's fold over many blocks on a single
    /// hardware-prefetchable stream instead of thousands of scattered
    /// small allocations (which cost a TLB miss per container).
    std::vector<uint16_t> arena;  ///< kArray payloads: sorted low-16 id bits
    std::vector<uint64_t> words;  ///< kBitset payloads: kWordsPerBlock each

    void Append(uint32_t id);  ///< ids must arrive in ascending order
    void Finalize();           ///< packs payloads; no Append afterwards

    const uint16_t* ArrayAt(const Container& c) const {
      return arena.data() + c.offset;
    }
    const uint64_t* WordsAt(const Container& c) const {
      return words.data() + c.offset;
    }
  };

  /// One constraining predicate of a query, resolved against the index.
  struct PlannedPredicate {
    enum class Kind : uint8_t {
      kBitmap,  ///< pinned categorical: a prebuilt value bitmap
      kRange,   ///< numeric range, applied lazily via zone maps
    };
    Kind kind = Kind::kBitmap;
    const Bitmap* bitmap = nullptr;  // kBitmap
    size_t attr = 0;                 // kRange
    Value lo = 0;
    Value hi = 0;
    uint64_t count = 0;  ///< exact match count of this predicate alone
  };

  /// How one numeric range relates to one id block, per its zone map.
  enum class ZoneFit : uint8_t {
    kNone,     ///< zones disjoint: no row of the block can match
    kAll,      ///< zone inside the range: every row matches, scan nothing
    kPartial,  ///< boundary block: rows must be tested
  };

  void BuildLegacyStructures();
  void BuildBitmapStructures();

  /// Resolves `query`'s constraining predicates (domain-covering ones are
  /// dropped), cheapest bitmaps first, ranges last. Returns false when some
  /// predicate proves the result empty outright.
  bool PlanPredicates(const Query& query,
                      std::vector<PlannedPredicate>* plan) const;

  ZoneFit ClassifyZone(const PlannedPredicate& range, uint32_t block) const;

  /// Streams the ids matching `query` under the bitmap engine, ascending,
  /// into `visit(uint32_t id)`. `driver_words`/`driver_epochs` carry a
  /// materialized range-driver bitmap, or null for none. kPrefetchRank
  /// pre-touches priorities_[id] a little ahead of emission — the top-k
  /// visitor reads it per candidate and would otherwise stall on it; the
  /// counting visitor never does, so it skips the prefetches.
  template <bool kPrefetchRank, typename Visitor>
  void ForEachMatchBitmap(const std::vector<PlannedPredicate>& plan,
                          const uint64_t* driver_words,
                          const uint32_t* driver_epochs, uint32_t epoch,
                          Visitor&& visit) const;

  /// Appends all row ids matching `query` to `out` (oracle engines).
  void CollectMatchesScan(const Query& query,
                          std::vector<uint32_t>* out) const;
  void CollectMatchesLegacy(const Query& query,
                            std::vector<uint32_t>* out) const;

  uint64_t CountMatchesScan(const Query& query) const;
  uint64_t CountMatchesLegacy(const Query& query) const;
  uint64_t CountMatchesBitmap(const Query& query) const;

  void AnswerQueryBitmap(const Query& query, Response* response,
                         EvalScratch* scratch) const;

  /// Returns true if row `id` satisfies every predicate except (optionally)
  /// the one on `skip_attr` (pass num_attributes() to skip none).
  bool VerifyRow(const Query& query, uint32_t id, size_t skip_attr) const;

  /// True when the predicate on `a` cannot exclude any row: its extent
  /// covers this dataset's attribute domain (not merely the query
  /// schema's, which a session schema override may have narrowed).
  bool CoversDomain(const Query& query, size_t a) const;

  /// Ordering of the fixed ranking: true when x outranks y.
  bool Outranks(uint32_t x, uint32_t y) const {
    return priorities_[x] != priorities_[y] ? priorities_[x] > priorities_[y]
                                            : x < y;
  }

  /// [begin, end) positions of values in [lo, hi] inside sorted_values_[a].
  std::pair<size_t, size_t> SortedRange(size_t a, Value lo, Value hi) const;

  uint32_t num_blocks() const {
    return static_cast<uint32_t>(
        (dataset_->size() + kBlockSize - 1) / kBlockSize);
  }
  uint32_t block_rows(uint32_t block) const {
    const size_t n = dataset_->size();
    const size_t base = size_t{block} << kBlockShift;
    return static_cast<uint32_t>(std::min<size_t>(kBlockSize, n - base));
  }

  std::shared_ptr<const Dataset> dataset_;
  uint64_t k_;
  LocalIndexOptions options_;
  IndexBuildStats build_stats_;

  /// priorities_[id]: higher is returned first; ties by id ascending.
  std::vector<uint64_t> priorities_;

  /// Column-major copy of the data: columns_[attr][id].
  std::vector<std::vector<Value>> columns_;

  /// kLegacy: categorical attr -> (value -> sorted row ids). Indexed by
  /// value (1..U); slot 0 unused.
  std::vector<std::vector<std::vector<uint32_t>>> postings_;

  /// kLegacy + kBitmap: numeric attr -> row ids sorted by value, plus the
  /// aligned sorted values for binary search (kBitmap uses them for exact
  /// range selectivity and to materialize selective range drivers).
  std::vector<std::vector<uint32_t>> sorted_ids_;
  std::vector<std::vector<Value>> sorted_values_;

  /// kBitmap: categorical attr -> (value -> bitmap). Slot 0 unused.
  std::vector<std::vector<Bitmap>> value_bitmaps_;

  /// kBitmap: numeric attr -> per-block min/max of the column in id order.
  struct ZoneMap {
    std::vector<Value> min;
    std::vector<Value> max;
  };
  std::vector<ZoneMap> zone_maps_;
};

/// Evaluates `queries` against `index`, fanning members across `pool` when
/// one is supplied (nullptr or a 0-thread pool, or a batch of at most one
/// member, evaluates inline on the calling thread with the caller's
/// `scratch`, trimmed after every member). `responses` is parallel to
/// `queries`; `stats` receives the whole batch's deltas after all members
/// finish. Responses and statistics are identical either way — evaluation
/// is pure given the index. Thread-safe: concurrent calls against one
/// index (even one pool) are independent as long as each brings its own
/// `scratch`. `lane` is the WorkerPool::LaneId the batch's loop is
/// submitted on (0 = the pool's default lane); per-session lanes are how
/// CrawlService keeps concurrent crawls from starving each other.
void EvaluateBatch(const LocalIndex& index, WorkerPool* pool,
                   const std::vector<Query>& queries,
                   std::vector<Response>* responses, QueryStats* stats,
                   EvalScratch* scratch, uint64_t lane = 0);

}  // namespace hdc
