// Copyright (c) hdc authors. Apache-2.0 license.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/batch_sizer.h"
#include "core/crawler.h"
#include "query/query.h"
#include "server/response.h"
#include "server/server.h"

namespace hdc {

class Clock;

/// Binds a crawl run together: the server, the mutable state and the run
/// options. All queries flow through IssueBatch(), which enforces the budget,
/// consults the dependency oracle and updates the seen-rows metric. All
/// collection flows through the Collect* methods, which append to the
/// extraction; callers are responsible for only collecting bags of
/// *resolved* queries over pairwise-disjoint regions (each algorithm's
/// correctness argument).
class CrawlContext {
 public:
  CrawlContext(HiddenDbServer* server, CrawlState* state,
               const CrawlOptions& options);

  enum class Outcome {
    kResolved,     // response holds the entire q(D)
    kOverflow,     // response holds k tuples + overflow signal
    kPrunedEmpty,  // oracle says empty; no query spent
    kStop,         // budget/server interruption or fatal; re-push work, stop
  };

  /// Issues the *independent* members of `queries` through one
  /// HiddenDbServer::IssueBatch call and returns one Outcome per member, in
  /// order. Budget and oracle are applied per member exactly as one-member
  /// rounds would: pruned members cost nothing, members past the budget
  /// boundary (or past a server failure) come back kStop and must be
  /// re-pushed by the caller. Any server failure (quota, outage) stops the
  /// run but keeps the crawl resumable — only SetFatal (e.g. Unsolvable)
  /// ends a crawl for good. Seen-row accounting (and the frontier log's
  /// seen-row delta) follows issue order.
  std::vector<Outcome> IssueBatch(const std::vector<Query>& queries,
                                  std::vector<Response>* responses);

  /// How many frontier items a crawler should drain into its next server
  /// round: the fixed CrawlOptions::batch_size when one was given (>= 1),
  /// otherwise (batch_size == 0, "auto") the current `frontier_width`
  /// capped by the server's evaluation parallelism — wide frontiers fill
  /// the server's lanes, narrow ones never pad the round. Against a
  /// single-lane server, auto degenerates to 1 and reproduces the
  /// sequential conversation exactly. Against a remote transport
  /// (ServerLoadHint::latency_feedback) the cap is the adaptive limit fed
  /// back from observed round-trip latency and server queue wait.
  ///
  /// The frontier driver (core/frontier.h) and the slice engine's eager
  /// preprocessing pass call this at the top of each round, when the
  /// previous round is fully applied and the state is self-consistent —
  /// which makes it the round *boundary*. When a frontier log is attached
  /// (CrawlOptions::frontier_log) this is where the durable delta commits:
  /// a commit always precedes the round it enables, so a crash never loses
  /// billed work (see core/frontier_log.h). A commit failure stops the run
  /// like a server failure would.
  size_t RoundSize(size_t frontier_width);

  /// The adaptive sizer driving auto rounds, or null when sizing is the
  /// deterministic parallelism rule (fixed batch_size, or an in-process
  /// server). Exposed for tests and metrics.
  const AdaptiveBatchSizer* batch_sizer() const { return sizer_.get(); }

  /// The server/budget status that interrupted the run, if any.
  const Status& interrupt() const { return interrupt_; }

  /// Appends every tuple of a resolved response to the extraction.
  void CollectResponse(const Response& response);

  /// Appends the tuples of a cached resolved bag that satisfy `filter`
  /// (slice-cover's local answering; costs no query).
  void CollectFiltered(const std::vector<ReturnedTuple>& bag,
                       const Query& filter);

  /// Marks the crawl as failed (e.g. Unsolvable). Sticky; also stops.
  void SetFatal(Status status);

  /// True when the run must halt (budget exhausted or fatal).
  bool stopped() const { return stopped_; }

  HiddenDbServer* server() { return server_; }
  CrawlState* state() { return state_; }
  uint64_t k() const { return k_; }

  /// Queries issued in this run (not cumulative).
  uint64_t run_queries() const { return run_queries_; }

 private:
  /// Budget/seen-rows bookkeeping for one answered query.
  void RecordAnswered(const Response& response);

  /// Confirms one tuple into the extraction: residual plan filter,
  /// materialization, sink delivery, frontier-log note.
  void Deliver(const Tuple& tuple);

  HiddenDbServer* server_;
  CrawlState* state_;
  CrawlOptions options_;
  uint64_t k_;
  uint64_t run_queries_ = 0;
  bool stopped_ = false;
  Status interrupt_;

  /// Set only for batch_size == 0 against a latency-feedback server.
  std::unique_ptr<AdaptiveBatchSizer> sizer_;
  Clock* clock_ = nullptr;  // round-trip measurement; set iff sizer_ is
};

}  // namespace hdc
