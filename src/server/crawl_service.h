// Copyright (c) hdc authors. Apache-2.0 license.
//
// The multi-crawl service: one immutable LocalIndex, many concurrent
// conversations. The paper's methodology (Section 6) models one crawler
// talking to one server; a production hidden-database service instead
// answers many crawlers at once over the same read-only data. This layer
// splits those concerns:
//
//   CrawlService                    ServerSession (one per crawl)
//   ------------                    ----------------------------
//   shared LocalIndex (const)       per-session statistics
//   shared WorkerPool               per-session query budget
//   session minting + registry      per-session observer (audit log)
//   service-wide metrics            per-session scheduling lane
//
// A session is a full HiddenDbServer, so every crawler, decorator, and
// CrawlContext works against it unchanged, and a single-session service
// reproduces the classic LocalServer conversation byte for byte. Because
// the index is fully const and the pool is thread-safe, any number of
// sessions may run on distinct threads with no synchronisation between
// them; each session preserves the paper's query-cost accounting for its
// own conversation (a query spent by one crawl is never billed to
// another).
//
// Scheduling is fair between sessions. Each session owns a WorkerPool lane
// (util/worker_pool.h): its batches queue on its own lane and the pool
// deals helper slots across lanes weighted round-robin, so one session
// flooding the service with huge batches cannot park every other tenant's
// work behind its own. SessionOptions::weight raises a session's share;
// SessionOptions::max_lane_parallelism caps how many pool workers one
// session may occupy at once — the admission knob that keeps a heavy
// crawl from monopolizing the pool. Neither knob ever changes a session's
// answers or per-query billing, only scheduling.
//
// Lifetime: the service must outlive the sessions it vends (sessions share
// the service's worker pool and report back to its registry when they are
// destroyed). Each individual session is single-conversation — the
// HiddenDbServer contract forbids concurrent calls on one session — but
// different sessions are fully independent.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "server/answer_cache.h"
#include "server/decorators.h"
#include "server/local_index.h"
#include "server/server.h"
#include "util/clock.h"
#include "util/thread_annotations.h"
#include "util/worker_pool.h"

namespace hdc {

class CrawlService;

/// "No budget" sentinel for SessionOptions::max_queries.
inline constexpr uint64_t kUnlimitedQueries = UINT64_MAX;

struct CrawlServiceOptions {
  /// Total threads (pool workers plus the one calling thread of a batch)
  /// the service may bring to bear on one IssueBatch call. Must be >= 1.
  /// The pool is shared: concurrent sessions' batches interleave on it,
  /// dealt fairly across their lanes.
  unsigned max_parallelism = 1;

  /// When true, the service keeps one shared AnswerCache over the
  /// immutable index: a canonical query any session asked before is
  /// answered from the cache instead of re-evaluated. Billing is
  /// unchanged — a hit folds the same per-query statistics an evaluation
  /// would (evaluation is pure, so they are provably equal) — every
  /// session's conversation, budget, log and observer are byte-identical
  /// with the cache on or off; only evaluation CPU is saved. The
  /// hit/miss counters surface in MetricsSnapshot and /metrics.
  bool enable_answer_cache = false;

  /// Entry cap for the shared answer cache (0 = unbounded, FIFO eviction
  /// beyond the cap).
  size_t answer_cache_max_entries = 0;

  /// Time source for uptime/queue-wait accounting (nullptr -> the real
  /// clock). Injected so service metrics are testable on a FakeClock; it
  /// never affects answers or scheduling.
  Clock* clock = nullptr;
};

/// Per-session metering and admission, fixed at session-creation time.
/// Every layer is owned by the session and scoped to its conversation —
/// nothing here wraps or mutates service-wide state.
struct SessionOptions {
  /// Display/debug name; defaults to "session-<id>".
  std::string label;

  /// Hard per-session query budget (BudgetServer semantics: once spent,
  /// calls fail with ResourceExhausted until RefillBudget). Unlimited by
  /// default.
  uint64_t max_queries = kUnlimitedQueries;

  /// When set, streams the session's audit log — one line per answered
  /// query, AuditLog format (server/decorators.h) — to this stream (not
  /// owned; must outlive the session).
  std::ostream* query_log = nullptr;

  /// When set, invoked after every answered query, before its audit line
  /// (both ride the session's one ObservedServer layer).
  ObservedServer::Callback observer;

  /// When set, the session presents this (compatible) schema instead of
  /// the index's — e.g. numeric bounds tightened by domain discovery.
  SchemaPtr schema_override;

  /// Scheduling share of the service pool: this session's lane is dealt
  /// `weight` helper slots per round-robin cycle. Must be >= 1. Purely a
  /// scheduling knob — never changes answers or billing.
  unsigned weight = 1;

  /// Admission cap: at most this many pool workers serve this session's
  /// batches at once (the session's own calling thread always
  /// participates on top). 0 = no cap beyond the pool size. A heavy crawl
  /// given a small cap cannot monopolize the pool however large its
  /// batches are.
  unsigned max_lane_parallelism = 0;
};

/// Point-in-time view of one live session, inside CrawlServiceMetrics.
struct SessionMetrics {
  uint64_t id = 0;
  std::string label;
  unsigned weight = 1;
  unsigned max_lane_parallelism = 0;
  uint64_t queries_served = 0;
  uint64_t tuples_returned = 0;
  uint64_t overflow_count = 0;
  /// kUnlimitedQueries when the session has no budget.
  uint64_t budget_remaining = kUnlimitedQueries;
  /// Batches this session fanned out over the pool.
  uint64_t batches_submitted = 0;
  /// Queue wait of this session's lane (see WorkerPool::LaneStats): how
  /// long its batches sat before the pool first served them.
  double queue_wait_total_seconds = 0;
  double queue_wait_max_seconds = 0;
};

/// Service-wide health snapshot (CrawlService::MetricsSnapshot).
struct CrawlServiceMetrics {
  /// Sessions minted since construction / alive right now.
  uint64_t sessions_created = 0;
  uint64_t sessions_active = 0;
  /// Queries answered and tuples shipped across all sessions, including
  /// already-destroyed ones.
  uint64_t queries_served = 0;
  uint64_t tuples_returned = 0;
  double uptime_seconds = 0;
  /// queries_served / uptime_seconds — the service's lifetime throughput.
  double queries_per_second = 0;
  /// Helper workers in the shared pool, and how many are running batch
  /// items right now (the pool occupancy).
  unsigned pool_threads = 0;
  unsigned pool_busy = 0;
  /// Shared answer cache (CrawlServiceOptions::enable_answer_cache):
  /// queries answered from cache, queries that filled it, conditional
  /// re-asks, and live entries. All zero when the cache is disabled —
  /// revalidations stay zero over a frozen index and only move on
  /// version-reporting mutable backends.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_revalidations = 0;
  uint64_t cache_entries = 0;
  /// One entry per live session, ascending id.
  std::vector<SessionMetrics> sessions;
};

/// One crawl's private handle onto a CrawlService: a HiddenDbServer whose
/// conversation state (statistics, budget, log, observer) belongs to this
/// session alone, while evaluation runs against the service's shared
/// immutable index and worker pool — on this session's own lane.
class ServerSession : public HiddenDbServer {
 public:
  ~ServerSession() override;
  ServerSession(const ServerSession&) = delete;
  ServerSession& operator=(const ServerSession&) = delete;

  Status IssueBatch(const std::vector<Query>& queries,
                    std::vector<Response>* responses) override;
  uint64_t k() const override { return index_->k(); }
  const SchemaPtr& schema() const override;
  unsigned batch_parallelism() const override { return parallelism_; }

  /// In-process feedback: no latency boundary (latency_feedback stays
  /// false), but the session's cumulative lane queue wait is reported so a
  /// remote endpoint can piggyback it to its client (net/service_endpoint).
  ServerLoadHint load_hint() const override;

  uint64_t id() const { return id_; }
  const std::string& label() const { return label_; }
  unsigned weight() const { return weight_; }

  // --- Per-session accounting ------------------------------------------
  // The counters are atomics so CrawlService::MetricsSnapshot can read a
  // running session from another thread; the session itself is still
  // single-conversation.

  /// Queries answered for this session.
  uint64_t queries_served() const {
    return queries_served_.load(std::memory_order_relaxed);
  }
  /// Tuples shipped to this session.
  uint64_t tuples_returned() const {
    return tuples_returned_.load(std::memory_order_relaxed);
  }
  /// Answered queries that overflowed.
  uint64_t overflow_count() const {
    return overflow_count_.load(std::memory_order_relaxed);
  }

  /// Budget left (kUnlimitedQueries when the session has no budget).
  uint64_t budget_remaining() const {
    return budget_ != nullptr ? budget_->remaining() : kUnlimitedQueries;
  }
  /// Grants a fresh allotment; only valid on a budgeted session.
  void RefillBudget(uint64_t max_queries);

  /// Scheduling stats of this session's pool lane (all zero when the
  /// service runs without a pool, i.e. max_parallelism == 1).
  WorkerPool::LaneStats lane_stats() const;

 private:
  friend class CrawlService;

  /// Bottom of the per-session stack: pure evaluation against the shared
  /// index, accumulating into the owning session's counters.
  class Core : public HiddenDbServer {
   public:
    explicit Core(ServerSession* session) : session_(session) {}
    Status IssueBatch(const std::vector<Query>& queries,
                      std::vector<Response>* responses) override;
    uint64_t k() const override { return session_->index_->k(); }
    const SchemaPtr& schema() const override {
      return session_->index_->schema();
    }
    unsigned batch_parallelism() const override {
      return session_->parallelism_;
    }

   private:
    ServerSession* session_;
  };

  ServerSession(CrawlService* service, uint64_t id, WorkerPool::LaneId lane,
                SessionOptions options);

  void Fold(const QueryStats& stats) {
    queries_served_.fetch_add(stats.queries, std::memory_order_relaxed);
    tuples_returned_.fetch_add(stats.tuples, std::memory_order_relaxed);
    overflow_count_.fetch_add(stats.overflows, std::memory_order_relaxed);
  }

  CrawlService* service_;
  std::shared_ptr<const LocalIndex> index_;
  WorkerPool* pool_;  // owned by the service; may be null (parallelism 1)
  WorkerPool::LaneId lane_;
  unsigned parallelism_;
  uint64_t id_;
  std::string label_;
  unsigned weight_;
  unsigned max_lane_parallelism_;

  /// The session's metering stack, bottom (Core) to top, composed from
  /// SessionOptions at creation; each layer borrows the one below it and
  /// back() is the entry point. The raw pointers below alias its layers.
  std::vector<std::unique_ptr<HiddenDbServer>> layers_;
  BudgetServer* budget_ = nullptr;

  EvalScratch scratch_;
  std::atomic<uint64_t> queries_served_{0};
  std::atomic<uint64_t> tuples_returned_{0};
  std::atomic<uint64_t> overflow_count_{0};
};

/// Owns the shared halves — index and worker pool — and mints sessions.
/// Thread-safe: CreateSession and MetricsSnapshot may be called from any
/// thread, and the sessions it returns run concurrently with each other.
class CrawlService {
 public:
  CrawlService(std::shared_ptr<const LocalIndex> index,
               CrawlServiceOptions options = {});

  /// Convenience: builds the index in place (random-priority ranking when
  /// `policy` is null, as LocalServer).
  CrawlService(std::shared_ptr<const Dataset> dataset, uint64_t k,
               std::unique_ptr<RankingPolicy> policy = nullptr,
               CrawlServiceOptions options = {});

  CrawlService(const CrawlService&) = delete;
  CrawlService& operator=(const CrawlService&) = delete;

  /// Mints an independent session on its own scheduling lane. The service
  /// must outlive it.
  std::unique_ptr<ServerSession> CreateSession(SessionOptions options = {});

  /// Service-wide health: live sessions with their queue waits, pool
  /// occupancy, lifetime throughput. Safe to call while sessions run —
  /// the per-session counters are sampled, not synchronised with the
  /// conversations, so a snapshot taken mid-batch may be a few queries
  /// behind a session's own final accounting.
  CrawlServiceMetrics MetricsSnapshot() const;

  const std::shared_ptr<const LocalIndex>& index() const { return index_; }

  /// The shared answer cache, or nullptr when disabled.
  AnswerCache* answer_cache() const { return answer_cache_.get(); }

  uint64_t k() const { return index_->k(); }
  const SchemaPtr& schema() const { return index_->schema(); }
  unsigned max_parallelism() const { return options_.max_parallelism; }

  /// Sessions minted so far (monotonic).
  uint64_t sessions_created() const { return next_session_id_.load(); }

 private:
  friend class ServerSession;

  /// Called by ~ServerSession: folds the session's final accounting into
  /// the retired totals, releases its lane, and drops it from the
  /// registry.
  void Retire(ServerSession* session);

  std::shared_ptr<const LocalIndex> index_;
  CrawlServiceOptions options_;
  Clock* clock_;  // never null; immutable after construction
  std::unique_ptr<WorkerPool> pool_;  // max_parallelism - 1 workers
  std::unique_ptr<AnswerCache> answer_cache_;  // null when disabled
  std::atomic<uint64_t> next_session_id_{0};
  std::chrono::nanoseconds start_{0};

  /// Live sessions plus the accumulated accounting of retired ones.
  mutable Mutex sessions_mutex_;
  std::vector<ServerSession*> live_sessions_ HDC_GUARDED_BY(sessions_mutex_);
  uint64_t retired_queries_ HDC_GUARDED_BY(sessions_mutex_) = 0;
  uint64_t retired_tuples_ HDC_GUARDED_BY(sessions_mutex_) = 0;
};

}  // namespace hdc
