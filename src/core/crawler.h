// Copyright (c) hdc authors. Apache-2.0 license.
//
// Common crawling framework. Every algorithm of the paper is implemented as
// a Crawler operating on an explicit work frontier held in a CrawlState, so
// that crawls can be interrupted by a query budget and resumed later
// against a fresh quota. Progressiveness (Figure 13) is observed at the
// server boundary instead: a ProgressRecorder on an ObservedServer
// (server/decorators.h) samples it query by query.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/batch_sizer.h"
#include "core/dependency.h"
#include "data/dataset.h"
#include "query/query.h"
#include "server/server.h"
#include "util/status.h"

namespace hdc {

class CheckpointReader;
class Clock;
class CrawlPlan;
class CrawlSink;
class FrontierLogWriter;

struct CrawlOptions {
  /// Query budget for *this run* (Crawl or Resume call). When it runs out
  /// the crawler stops cleanly with Status::ResourceExhausted and a
  /// resumable state.
  uint64_t max_queries = UINT64_MAX;

  /// How many independent frontier items a crawler may pop and issue as one
  /// server batch (HiddenDbServer::IssueBatch). 1 (default) reproduces the
  /// strictly sequential conversation query-for-query — the paper-figure
  /// setting. 0 means *auto*: each round is sized to the current frontier
  /// width, capped by the server's declared evaluation parallelism
  /// (HiddenDbServer::batch_parallelism) — against a single-lane server
  /// auto degenerates to 1 and stays byte-identical to the sequential
  /// conversation. When the server reports a latency boundary
  /// (ServerLoadHint::latency_feedback, i.e. a remote transport), the cap
  /// is adaptive instead: an AdaptiveBatchSizer grows/shrinks it from
  /// observed per-round round-trip latency and the server's queue-wait
  /// signal (see core/batch_sizer.h and `adaptive_batch` below). Any
  /// setting never changes the query *count* of the six crawlers (split
  /// decisions depend only on an item's own response, and no rectangle is
  /// asked twice — except in eager mode, which asks each overflowing slice
  /// of a one-categorical schema again, at every setting alike), only the
  /// conversation order and, against a parallel or remote server, the
  /// wall-clock time.
  uint32_t batch_size = 1;

  /// Tuning of the latency-aware auto sizing; only consulted when
  /// batch_size == 0 and the server's load hint enables latency feedback.
  AdaptiveBatchOptions adaptive_batch;

  /// Time source for round-trip measurement (latency-aware sizing only);
  /// null means the process-wide RealClock. Tests inject a FakeClock to
  /// make sizing decisions deterministic.
  Clock* clock = nullptr;

  /// Optional sound pruning oracle (Section 1.3); not owned.
  const DependencyOracle* oracle = nullptr;

  /// Optional compiled predicate pushdown (core/crawl_plan.h); not owned.
  /// The plan's root rectangle seeds the frontier, its pruning test is
  /// applied beside `oracle`, and its residual filter gates collection, so
  /// the crawl only descends into — and only extracts — the satisfying
  /// subspace. Must be compiled against the server's schema.
  const CrawlPlan* plan = nullptr;

  /// Streaming consumer (core/crawl_sink.h): receives each tuple the moment
  /// it is confirmed into the extraction, in confirmation order. Lets a
  /// pipeline process results progressively (the property Figure 13
  /// measures) instead of waiting for the crawl to finish. Not owned.
  CrawlSink* sink = nullptr;

  /// When false, confirmed tuples are *not* accumulated in
  /// CrawlState::extracted — they flow through `sink` only and the state
  /// keeps counters (tuples_collected). This is the constant-memory mode
  /// for very large extractions; checkpoints of such a state record the
  /// collected count but no tuple bag.
  bool materialize = true;

  /// Write-ahead frontier log (core/frontier_log.h). When set, the context
  /// commits a durable delta at every round boundary, so a SIGKILLed
  /// process can replay the log and resume mid-crawl without re-billing any
  /// completed round. Not owned.
  FrontierLogWriter* frontier_log = nullptr;
};

/// One unit of pending work: a rectangle and how it expands.
struct FrontierItem {
  enum class Kind : uint8_t {
    /// A data-space-tree node (Section 3.1): `level` counts the categorical
    /// attributes it pins, in the family's traversal order.
    kNode,
    /// A numeric rectangle, split by binary-shrink's or rank-shrink's rule;
    /// `level` is 0.
    kRank,
  };
  Kind kind;
  Query q;
  uint32_t level;
};

/// Mutable working memory of a crawl: the partial extraction plus the
/// frontier, a LIFO stack of items that the one driver (RunFrontier,
/// core/frontier.h) drains. A state is created by Crawler::Crawl and can be
/// fed back to Crawler::Resume. The frontier codec (core/frontier.cc) is
/// one line per item, bottom of the stack first:
///   item <node|rank> <level> <2d extent values>
class CrawlState {
 public:
  /// `algorithm` is the owning crawler's name; `kind` is the one item kind
  /// a single-kind family uses (kRank for binary-/rank-shrink, kNode for
  /// DFS, whose traversal order is the schema order).
  CrawlState(SchemaPtr schema, std::string algorithm, FrontierItem::Kind kind)
      : extracted(std::move(schema)),
        algorithm_(std::move(algorithm)),
        kind_(kind) {}
  virtual ~CrawlState() = default;

  /// True when the extraction is complete.
  virtual bool Finished() const { return frontier.empty(); }

  /// Algorithm tag, to guard against resuming a state with the wrong
  /// crawler.
  const std::string& algorithm() const { return algorithm_; }

  /// Serializes the frontier — everything between the checkpoint format's
  /// frontier-begin/frontier-end markers (see core/checkpoint.h).
  void EncodeFrontier(std::ostream* out) const;

  /// Appends the frontier encoding to `out`: every line, or with
  /// `changed_only` only the lines from the first one that may differ from
  /// the encoding at the last MarkFrontierCommitted. Returns the index of
  /// the first line appended. This is how the frontier log's commits cost
  /// O(changes) (core/frontier_log.h).
  virtual size_t AppendFrontier(bool changed_only, std::string* out) const;

  /// The frontier-log commit the change marks count from (0: none). A
  /// fresh or decoded state has none, so every line counts as changed.
  uint64_t frontier_commit() const { return frontier_commit_; }

  /// Records that the frontier, as it is now, is what commit `token`
  /// wrote: clears the change marks. Called by the frontier log only.
  virtual void MarkFrontierCommitted(uint64_t token) const;

  /// Lowers the item floor to the stack size: items below it are unchanged
  /// since the last commit. RunFrontier calls this after every pop; pushes
  /// never touch lower items.
  void NoteFrontierPop() {
    if (frontier.size() < item_floor_) item_floor_ = frontier.size();
  }

  /// Restores the frontier, consuming input lines up to and including the
  /// "frontier-end" marker. Errors are typed and name the offending line
  /// (the reader tracks line numbers — core/checkpoint.h), also for an item
  /// the family could not have produced (CheckItem).
  virtual Status DecodeFrontier(CheckpointReader* in);

  Dataset extracted;
  std::unordered_set<uint64_t> seen_rows;
  uint64_t queries_issued = 0;  // cumulative across runs
  /// Cumulative tuples confirmed into the extraction (== extracted.size()
  /// when materializing; still advances when CrawlOptions::materialize is
  /// off and tuples flow through the sink only).
  uint64_t tuples_collected = 0;
  Status fatal;  // e.g. Unsolvable; sticky
  std::vector<FrontierItem> frontier;

 protected:
  /// Decodes one frontier line other than frontier-end (an item line here;
  /// the slice engine also reads its slice-table lines).
  virtual Status DecodeLine(CheckpointReader* in, const std::string& line);

  /// Checks a decoded item against what the family's rules can produce:
  /// the kind it uses; a node at level L pins the first L attributes of
  /// the traversal order; a rank item has level 0 (and, in the slice
  /// engine, pins every categorical attribute).
  virtual Status CheckItem(const FrontierItem& item) const;

  /// Appends the item lines of frontier[from..].
  void AppendItems(size_t from, std::string* out) const;

  /// Stack size the frontier has not popped below since the last commit.
  mutable size_t item_floor_ = 0;

 private:
  std::string algorithm_;
  FrontierItem::Kind kind_;
  mutable uint64_t frontier_commit_ = 0;
};

/// Outcome of one crawl (or resume) run.
struct CrawlResult {
  /// OK: complete extraction. ResourceExhausted: budget ran out,
  /// `resume_state` is set. Unsolvable: a point with more than k duplicates
  /// was hit (Section 1.1). Anything else: environment/usage error.
  Status status;

  /// The tuples extracted so far (the full bag D when status is OK).
  Dataset extracted;

  /// Cumulative queries across all runs of this crawl.
  uint64_t queries_issued = 0;

  /// Distinct physical rows retrieved (>= extracted.size() is not implied;
  /// duplicates at a point are distinct rows).
  uint64_t rows_seen = 0;

  /// Cumulative tuples confirmed (equals extracted.size() unless the crawl
  /// ran with materialize off).
  uint64_t tuples_collected = 0;

  /// Set iff status is ResourceExhausted; pass to Crawler::Resume.
  std::shared_ptr<CrawlState> resume_state;

  bool complete() const { return status.ok(); }

  CrawlResult() : extracted(nullptr) {}
  explicit CrawlResult(SchemaPtr schema) : extracted(std::move(schema)) {}
};

/// Interface shared by all six algorithms (binary-shrink, rank-shrink, DFS,
/// slice-cover, lazy-slice-cover, hybrid).
class Crawler {
 public:
  virtual ~Crawler() = default;

  /// Algorithm name as used in the paper ("rank-shrink", ...).
  virtual std::string name() const = 0;

  /// Checks the algorithm supports this data space (e.g. rank-shrink
  /// requires an all-numeric schema).
  virtual Status ValidateSchema(const Schema& schema) const = 0;

  /// Runs a fresh crawl against `server` until complete, fatal, or the
  /// budget runs out.
  CrawlResult Crawl(HiddenDbServer* server, const CrawlOptions& options = {});

  /// Continues an interrupted crawl. `state` must come from this algorithm.
  CrawlResult Resume(HiddenDbServer* server, std::shared_ptr<CrawlState> state,
                     const CrawlOptions& options = {});

 protected:
  /// Builds the initial state: the frontier is seeded with the plan's root
  /// rectangle when `options.plan` is set, the full space otherwise.
  virtual std::shared_ptr<CrawlState> MakeInitialState(
      HiddenDbServer* server, const CrawlOptions& options) const = 0;

  /// Drains the frontier until done or the context says stop — every
  /// family through the one driver, RunFrontier (core/frontier.h), which
  /// pushes unanswered work back so the state stays resumable.
  virtual void Run(class CrawlContext* ctx, CrawlState* state) const = 0;

 private:
  CrawlResult RunAndPackage(HiddenDbServer* server,
                            std::shared_ptr<CrawlState> state,
                            const CrawlOptions& options);
};

}  // namespace hdc
