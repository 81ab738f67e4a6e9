// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/crawl_context.h"

#include <algorithm>

#include "core/crawl_plan.h"
#include "core/crawl_sink.h"
#include "core/frontier_log.h"
#include "util/clock.h"
#include "util/macros.h"

namespace hdc {

CrawlContext::CrawlContext(HiddenDbServer* server, CrawlState* state,
                           const CrawlOptions& options)
    : server_(server), state_(state), options_(options), k_(server->k()) {
  HDC_CHECK(server != nullptr);
  HDC_CHECK(state != nullptr);
  if (!state_->fatal.ok()) stopped_ = true;
  if (options_.batch_size == 0 && server_->load_hint().latency_feedback) {
    sizer_ = std::make_unique<AdaptiveBatchSizer>(
        options_.adaptive_batch, server_->batch_parallelism());
    clock_ = options_.clock != nullptr ? options_.clock : RealClock::Get();
  }
}

size_t CrawlContext::RoundSize(size_t frontier_width) {
  // Round boundary: the state is self-consistent here (the previous round
  // is fully applied, interrupted work re-pushed), so this is where the
  // write-ahead frontier log commits. The commit precedes the round it
  // enables — a crash between commit and the next one replays to this
  // boundary and re-bills nothing.
  if (options_.frontier_log != nullptr && !stopped_) {
    Status committed = options_.frontier_log->Commit(*state_);
    if (!committed.ok()) {
      interrupt_ = std::move(committed);
      stopped_ = true;
    }
  }
  if (options_.batch_size > 0) return options_.batch_size;
  const size_t cap = sizer_ != nullptr
                         ? sizer_->limit()
                         : std::max(1u, server_->batch_parallelism());
  return std::clamp<size_t>(frontier_width, 1, cap);
}

void CrawlContext::RecordAnswered(const Response& response) {
  ++run_queries_;
  ++state_->queries_issued;
  for (const ReturnedTuple& rt : response.tuples) {
    if (state_->seen_rows.insert(rt.hidden_id).second &&
        options_.frontier_log != nullptr) {
      options_.frontier_log->NoteSeen(rt.hidden_id);
    }
  }
  if (options_.record_trace) {
    state_->trace.push_back(TraceEntry{
        state_->queries_issued, response.resolved(),
        static_cast<uint32_t>(response.size()), state_->seen_rows.size(),
        state_->tuples_collected});
  }
}

std::vector<CrawlContext::Outcome> CrawlContext::IssueBatch(
    const std::vector<Query>& queries, std::vector<Response>* responses) {
  HDC_CHECK(responses != nullptr);
  const size_t n = queries.size();
  std::vector<Outcome> outcomes(n, Outcome::kStop);
  responses->assign(n, Response{});

  // Plan: apply budget and oracle member by member, exactly as one-member
  // rounds would — planned members count against the budget check of every
  // later member, pruned members cost nothing.
  std::vector<size_t> to_issue;
  to_issue.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (stopped_) continue;  // stays kStop
    if (run_queries_ + to_issue.size() >= options_.max_queries) {
      stopped_ = true;
      continue;
    }
    if ((options_.oracle != nullptr &&
         !options_.oracle->MayContainTuples(queries[i])) ||
        (options_.plan != nullptr &&
         !options_.plan->MayContainTuples(queries[i]))) {
      outcomes[i] = Outcome::kPrunedEmpty;
      continue;
    }
    to_issue.push_back(i);
  }
  if (to_issue.empty()) return outcomes;

  // Common case: nothing pruned or refused — forward the caller's vector
  // without copying the queries.
  std::vector<Query> filtered;
  const std::vector<Query>* batch = &queries;
  if (to_issue.size() != n) {
    filtered.reserve(to_issue.size());
    for (size_t i : to_issue) filtered.push_back(queries[i]);
    batch = &filtered;
  }
  std::vector<Response> answered;
  double round_start = 0, politeness_before = 0;
  if (sizer_ != nullptr) {
    round_start = clock_->NowSeconds();
    politeness_before = server_->load_hint().politeness_wait_total_seconds;
  }
  Status s = server_->IssueBatch(*batch, &answered);
  if (sizer_ != nullptr) {
    // Feed the adaptive loop: this wire round's size and round-trip, plus
    // the server's cumulative queue-wait reading after it. The politeness
    // sleep inside the round is a deliberate pacing choice, not transport
    // latency — subtract it so a polite crawl still grows its rounds.
    const ServerLoadHint hint = server_->load_hint();
    const double paced = std::max(
        0.0, hint.politeness_wait_total_seconds - politeness_before);
    const double rtt =
        std::max(0.0, clock_->NowSeconds() - round_start - paced);
    sizer_->RecordRound(batch->size(), rtt, hint);
  }
  HDC_CHECK_MSG(answered.size() <= batch->size(),
                "server answered more members than submitted");
  HDC_CHECK_MSG(s.ok() == (answered.size() == batch->size()),
                "server batch status inconsistent with answered prefix");

  // The answered prefix, in issue order.
  for (size_t j = 0; j < answered.size(); ++j) {
    const size_t i = to_issue[j];
    (*responses)[i] = std::move(answered[j]);
    RecordAnswered((*responses)[i]);
    outcomes[i] = (*responses)[i].overflow ? Outcome::kOverflow
                                           : Outcome::kResolved;
  }
  if (!s.ok()) {
    // Quota exhausted, connection dropped, server outage: stop cleanly.
    // Members past the failure stay kStop and the caller re-pushes them, so
    // the crawl resumes exactly where it was interrupted (wrap flaky
    // servers in RetryingServer to absorb transient failures instead).
    interrupt_ = std::move(s);
    stopped_ = true;
  }
  return outcomes;
}

void CrawlContext::Deliver(const Tuple& tuple) {
  // The residual predicate filter (constraints the plan's rectangle could
  // not express) gates confirmation itself, so sink, counter and log all
  // agree on what "collected" means.
  if (options_.plan != nullptr && options_.plan->has_residual() &&
      !options_.plan->Matches(tuple)) {
    return;
  }
  if (options_.materialize) state_->extracted.AddUnchecked(tuple);
  ++state_->tuples_collected;
  if (options_.sink != nullptr) options_.sink->Append(tuple);
  if (options_.frontier_log != nullptr) {
    options_.frontier_log->NoteTuple(tuple);
  }
}

void CrawlContext::CollectResponse(const Response& response) {
  HDC_CHECK_MSG(response.resolved(),
                "only resolved responses may be collected");
  for (const ReturnedTuple& rt : response.tuples) {
    Deliver(rt.tuple);
  }
  if (options_.record_trace && !state_->trace.empty()) {
    state_->trace.back().tuples_collected = state_->tuples_collected;
  }
}

void CrawlContext::CollectFiltered(const std::vector<ReturnedTuple>& bag,
                                   const Query& filter) {
  for (const ReturnedTuple& rt : bag) {
    if (filter.Matches(rt.tuple)) Deliver(rt.tuple);
  }
  if (options_.record_trace && !state_->trace.empty()) {
    state_->trace.back().tuples_collected = state_->tuples_collected;
  }
}

void CrawlContext::SetFatal(Status status) {
  HDC_CHECK(!status.ok());
  state_->fatal = std::move(status);
  stopped_ = true;
}

}  // namespace hdc
