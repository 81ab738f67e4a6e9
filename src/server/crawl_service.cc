// Copyright (c) hdc authors. Apache-2.0 license.
#include "server/crawl_service.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <utility>

#include "util/macros.h"
#include "util/string_escape.h"

namespace hdc {

// --- ServerSession::Core ----------------------------------------------------

namespace {

/// The statistics one answered query folds into its session, whether it
/// was evaluated or served from the shared cache. Evaluation is pure given
/// the index, so for the same query these are exactly the stats an
/// evaluation would have produced — billing is cache-invisible.
QueryStats StatsFor(const Response& response) {
  QueryStats stats;
  stats.queries = 1;
  stats.tuples = response.size();
  stats.overflows = response.overflow ? 1 : 0;
  return stats;
}

/// The shared service cache sits over a frozen index, which never moves
/// off db_version 0.
constexpr uint64_t kFrozenVersion = 0;

}  // namespace

Status ServerSession::Core::IssueBatch(const std::vector<Query>& queries,
                                       std::vector<Response>* responses) {
  HDC_CHECK(responses != nullptr);
  AnswerCache* cache = session_->service_->answer_cache();
  if (cache == nullptr) {
    QueryStats stats;
    EvaluateBatch(*session_->index_, session_->pool_, queries, responses,
                  &stats, &session_->scratch_, session_->lane_);
    session_->Fold(stats);
    return Status::OK();
  }
  // Serve what the cache holds, evaluate only the misses (one sub-batch,
  // still fanned out over the pool), then merge back in member order.
  responses->assign(queries.size(), Response{});
  std::vector<size_t> miss_indices;
  std::vector<Query> miss_queries;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (cache->Probe(queries[i], kFrozenVersion, &(*responses)[i], nullptr) ==
        AnswerCache::ProbeResult::kHit) {
      session_->Fold(StatsFor((*responses)[i]));
    } else {
      miss_indices.push_back(i);
      miss_queries.push_back(queries[i]);
    }
  }
  if (!miss_queries.empty()) {
    QueryStats stats;
    std::vector<Response> miss_responses;
    EvaluateBatch(*session_->index_, session_->pool_, miss_queries,
                  &miss_responses, &stats, &session_->scratch_,
                  session_->lane_);
    session_->Fold(stats);
    for (size_t j = 0; j < miss_indices.size(); ++j) {
      cache->StoreMiss(miss_queries[j], miss_responses[j], kFrozenVersion);
      (*responses)[miss_indices[j]] = std::move(miss_responses[j]);
    }
  }
  return Status::OK();
}

// --- ServerSession ----------------------------------------------------------

ServerSession::ServerSession(CrawlService* service, uint64_t id,
                             WorkerPool::LaneId lane, SessionOptions options)
    : service_(service),
      index_(service->index()),
      pool_(service->pool_.get()),
      lane_(lane),
      parallelism_(service->max_parallelism()),
      id_(id),
      label_(options.label.empty() ? "session-" + std::to_string(id)
                                   : std::move(options.label)),
      weight_(options.weight),
      max_lane_parallelism_(options.max_lane_parallelism) {
  // Compose the metering stack bottom-up, each layer borrowing the one
  // below it. Order (bottom to top): evaluation core, observer, audit log,
  // budget, schema override — so a budget-refused query is neither logged
  // nor observed (it never happened), matching the sequential
  // BudgetServer(QueryLogServer(LocalServer)) conversation.
  layers_.push_back(std::make_unique<Core>(this));
  if (options.observer) {
    layers_.push_back(std::make_unique<ObservedServer>(
        layers_.back().get(), std::move(options.observer)));
  }
  if (options.query_log != nullptr) {
    auto log = std::make_unique<QueryLogServer>(layers_.back().get(),
                                                options.query_log);
    log_ = log.get();
    layers_.push_back(std::move(log));
  }
  if (options.max_queries != kUnlimitedQueries) {
    auto budget = std::make_unique<BudgetServer>(layers_.back().get(),
                                                 options.max_queries);
    budget_ = budget.get();
    layers_.push_back(std::move(budget));
  }
  if (options.schema_override != nullptr) {
    layers_.push_back(std::make_unique<SchemaOverrideServer>(
        layers_.back().get(), std::move(options.schema_override)));
  }
}

ServerSession::~ServerSession() { service_->Retire(this); }

Status ServerSession::IssueBatch(const std::vector<Query>& queries,
                                 std::vector<Response>* responses) {
  return layers_.back()->IssueBatch(queries, responses);
}

const SchemaPtr& ServerSession::schema() const {
  return layers_.back()->schema();
}

void ServerSession::RefillBudget(uint64_t max_queries) {
  HDC_CHECK_MSG(budget_ != nullptr,
                "RefillBudget on a session created without max_queries");
  budget_->Refill(max_queries);
}

Status ServerSession::SaveCheckpoint(std::ostream* out) const {
  if (out == nullptr) return Status::InvalidArgument("null output stream");
  *out << "hdc-session-checkpoint 1\n";
  *out << "label " << EscapeToken(label_) << '\n';
  if (budget_ != nullptr) {
    *out << "budget " << budget_->remaining() << '\n';
  } else {
    *out << "budget unlimited\n";
  }
  if (!*out) return Status::Internal("session checkpoint write failed");
  return Status::OK();
}

Status ServerSession::ResumeFrom(std::istream* in, bool restore_budget,
                                 std::string* recorded_label) {
  if (in == nullptr) return Status::InvalidArgument("null input stream");
  uint64_t line_number = 0;
  auto next = [in, &line_number](std::string* line) {
    ++line_number;
    if (!std::getline(*in, *line)) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_number) +
          ": session checkpoint truncated (unexpected end of input)");
    }
    if (!line->empty() && line->back() == '\r') line->pop_back();
    return Status::OK();
  };

  std::string line;
  HDC_RETURN_IF_ERROR(next(&line));
  if (line != "hdc-session-checkpoint 1") {
    return Status::InvalidArgument(
        "line 1: not an hdc session checkpoint: '" + line + "'");
  }

  HDC_RETURN_IF_ERROR(next(&line));
  if (line.rfind("label ", 0) != 0) {
    return Status::InvalidArgument("line 2: expected 'label ...', got '" +
                                   line + "'");
  }
  std::string label;
  HDC_RETURN_IF_ERROR(UnescapeToken(line.substr(6), &label));
  if (recorded_label != nullptr) *recorded_label = std::move(label);

  HDC_RETURN_IF_ERROR(next(&line));
  if (line.rfind("budget ", 0) != 0) {
    return Status::InvalidArgument("line 3: expected 'budget ...', got '" +
                                   line + "'");
  }
  const std::string value = line.substr(7);
  if (restore_budget && value != "unlimited") {
    uint64_t remaining = 0;
    auto [ptr, ec] =
        std::from_chars(value.data(), value.data() + value.size(), remaining);
    if (value.empty() || ec != std::errc() ||
        ptr != value.data() + value.size()) {
      return Status::InvalidArgument("line 3: malformed budget '" + value +
                                     "'");
    }
    if (budget_ == nullptr) {
      return Status::FailedPrecondition(
          "checkpoint records a query budget but this session was created "
          "without one (set SessionOptions::max_queries, or resume with "
          "restore_budget off)");
    }
    budget_->Refill(remaining);
  }
  return Status::OK();
}

ServerLoadHint ServerSession::load_hint() const {
  ServerLoadHint hint;
  hint.queue_wait_total_seconds = lane_stats().queue_wait_total_seconds;
  return hint;
}

WorkerPool::LaneStats ServerSession::lane_stats() const {
  return pool_ != nullptr ? pool_->lane_stats(lane_) : WorkerPool::LaneStats{};
}

// --- CrawlService -----------------------------------------------------------

CrawlService::CrawlService(std::shared_ptr<const LocalIndex> index,
                           CrawlServiceOptions options)
    : index_(std::move(index)),
      options_(options),
      clock_(options.clock != nullptr ? options.clock : RealClock::Get()),
      start_(clock_->Now()) {
  HDC_CHECK(index_ != nullptr);
  HDC_CHECK_MSG(options_.max_parallelism >= 1,
                "CrawlServiceOptions::max_parallelism must be >= 1 (it "
                "bounds the threads of a batch, calling thread included)");
  if (options_.max_parallelism > 1) {
    pool_ = std::make_unique<WorkerPool>(options_.max_parallelism - 1, clock_);
  }
  if (options_.enable_answer_cache) {
    // The index is immutable (version 0 forever), so version-check mode
    // serves every stored entry as a hit; TTL/revalidation churn would be
    // pure waste here.
    AnswerCacheOptions cache_options;
    cache_options.policy = RevalidationPolicy::kVersionCheck;
    cache_options.max_entries = options_.answer_cache_max_entries;
    answer_cache_ = std::make_unique<AnswerCache>(cache_options);
  }
}

CrawlService::CrawlService(std::shared_ptr<const Dataset> dataset, uint64_t k,
                           std::unique_ptr<RankingPolicy> policy,
                           CrawlServiceOptions options)
    : CrawlService(std::make_shared<const LocalIndex>(std::move(dataset), k,
                                                      std::move(policy)),
                   options) {}

std::unique_ptr<ServerSession> CrawlService::CreateSession(
    SessionOptions options) {
  HDC_CHECK_MSG(options.weight >= 1, "SessionOptions::weight must be >= 1");
  const uint64_t id = next_session_id_.fetch_add(1);
  WorkerPool::LaneId lane = WorkerPool::kDefaultLane;
  if (pool_ != nullptr) {
    WorkerPool::LaneOptions lane_options;
    lane_options.weight = options.weight;
    lane_options.max_parallelism = options.max_lane_parallelism;
    lane = pool_->OpenLane(lane_options);
  }
  // Not make_unique: the constructor is private to keep minting here.
  std::unique_ptr<ServerSession> session(
      new ServerSession(this, id, lane, std::move(options)));
  {
    MutexLock lock(&sessions_mutex_);
    live_sessions_.push_back(session.get());
  }
  return session;
}

void CrawlService::Retire(ServerSession* session) {
  MutexLock lock(&sessions_mutex_);
  retired_queries_ += session->queries_served();
  retired_tuples_ += session->tuples_returned();
  live_sessions_.erase(
      std::remove(live_sessions_.begin(), live_sessions_.end(), session),
      live_sessions_.end());
  if (pool_ != nullptr) pool_->CloseLane(session->lane_);
}

CrawlServiceMetrics CrawlService::MetricsSnapshot() const {
  CrawlServiceMetrics metrics;
  metrics.sessions_created = next_session_id_.load();
  metrics.uptime_seconds =
      std::chrono::duration<double>(clock_->Now() - start_).count();
  metrics.pool_threads = pool_ != nullptr ? pool_->threads() : 0;
  metrics.pool_busy = pool_ != nullptr ? pool_->busy_workers() : 0;
  if (answer_cache_ != nullptr) {
    const AnswerCacheStats cache_stats = answer_cache_->stats();
    metrics.cache_hits = cache_stats.hits;
    metrics.cache_misses = cache_stats.misses;
    metrics.cache_revalidations = cache_stats.revalidations();
    metrics.cache_entries = answer_cache_->size();
  }

  MutexLock lock(&sessions_mutex_);
  metrics.sessions_active = live_sessions_.size();
  metrics.queries_served = retired_queries_;
  metrics.tuples_returned = retired_tuples_;
  metrics.sessions.reserve(live_sessions_.size());
  for (const ServerSession* session : live_sessions_) {
    SessionMetrics s;
    s.id = session->id();
    s.label = session->label();
    s.weight = session->weight();
    s.max_lane_parallelism = session->max_lane_parallelism_;
    s.queries_served = session->queries_served();
    s.tuples_returned = session->tuples_returned();
    s.overflow_count = session->overflow_count();
    s.budget_remaining = session->budget_remaining();
    const WorkerPool::LaneStats lane = session->lane_stats();
    s.batches_submitted = lane.loops_submitted;
    s.queue_wait_total_seconds = lane.queue_wait_total_seconds;
    s.queue_wait_max_seconds = lane.queue_wait_max_seconds;
    metrics.queries_served += s.queries_served;
    metrics.tuples_returned += s.tuples_returned;
    metrics.sessions.push_back(std::move(s));
  }
  std::sort(metrics.sessions.begin(), metrics.sessions.end(),
            [](const SessionMetrics& a, const SessionMetrics& b) {
              return a.id < b.id;
            });
  if (metrics.uptime_seconds > 0) {
    metrics.queries_per_second =
        static_cast<double>(metrics.queries_served) / metrics.uptime_seconds;
  }
  return metrics;
}

}  // namespace hdc
