// Copyright (c) hdc authors. Apache-2.0 license.
//
// Multi-crawl driver: runs N independent crawls — different algorithms,
// budgets, batch shapes, and schema views — concurrently over one
// CrawlService. Each job gets its own ServerSession (its own statistics,
// budget, audit log, scheduling lane) while all of them evaluate against
// the service's shared immutable index and worker pool; the paper's
// query-cost accounting therefore stays exact per crawl even when many
// run at once, and the service's fair scheduler keeps any one job from
// starving the rest. The driver can also stream CrawlServiceMetrics
// snapshots to a callback while the jobs run — the service-operator view
// (sessions active, pool occupancy, queries/s, per-session queue wait).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/crawler.h"
#include "server/crawl_service.h"

namespace hdc {

/// One crawl to run: the algorithm, its run options, and the metering of
/// the session it runs in.
struct MultiCrawlJob {
  /// Display name for the outcome; defaults to the crawler's name.
  std::string label;

  /// The algorithm. Jobs must not share one crawler instance with
  /// different concurrent mutable state; give each job its own (Crawler
  /// itself is stateless across Crawl calls, all run state lives in the
  /// CrawlState).
  std::shared_ptr<Crawler> crawler;

  /// Per-run options (budget for this run, batch size, oracle).
  CrawlOptions crawl;

  /// Per-session metering and admission (server-side budget, audit log,
  /// schema view, scheduling weight / lane cap).
  SessionOptions session;
};

/// What one job produced, plus the session's server-side view of the same
/// conversation.
struct MultiCrawlOutcome {
  /// CrawlResult is not default-constructible (its Dataset needs a
  /// schema); outcomes start from the service's schema.
  explicit MultiCrawlOutcome(SchemaPtr schema)
      : result(std::move(schema)) {}

  std::string label;
  CrawlResult result;

  /// Session accounting: queries answered / tuples shipped / overflows for
  /// this crawl alone.
  uint64_t session_queries = 0;
  uint64_t session_tuples = 0;
  uint64_t session_overflows = 0;

  /// Scheduling accounting of the job's pool lane: batches fanned out and
  /// how long they queued before the pool first served them (all zero on
  /// a single-lane service).
  uint64_t session_batches = 0;
  double queue_wait_total_seconds = 0;
  double queue_wait_max_seconds = 0;
};

/// Driver knobs for RunMultiCrawl.
struct MultiCrawlOptions {
  /// Jobs running at once; 0 means all at once.
  unsigned max_concurrent = 0;

  /// When set, invoked with a fresh CrawlService::MetricsSnapshot() every
  /// `metrics_period` while jobs run, and once more after the last job
  /// finished. Runs on a dedicated monitor thread — the callback must be
  /// thread-safe with respect to the caller's own state.
  std::function<void(const CrawlServiceMetrics&)> on_metrics;
  std::chrono::milliseconds metrics_period{100};
};

/// Runs every job over `service`, each on its own thread with its own
/// session. `outcomes[i]` corresponds to `jobs[i]`. Jobs must carry a
/// non-null crawler. The call blocks until every job has finished
/// (complete, fatal, or out of budget — an exhausted job's resume state is
/// in its outcome as usual).
std::vector<MultiCrawlOutcome> RunMultiCrawl(
    CrawlService* service, const std::vector<MultiCrawlJob>& jobs,
    const MultiCrawlOptions& options);

/// Convenience overload: up to `max_concurrent` jobs at a time (0 means
/// all at once), no metrics streaming.
std::vector<MultiCrawlOutcome> RunMultiCrawl(
    CrawlService* service, const std::vector<MultiCrawlJob>& jobs,
    unsigned max_concurrent = 0);

}  // namespace hdc
