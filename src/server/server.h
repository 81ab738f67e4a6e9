// Copyright (c) hdc authors. Apache-2.0 license.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "data/schema.h"
#include "query/query.h"
#include "server/response.h"
#include "util/status.h"

namespace hdc {

/// Transport/load feedback a server exposes to adaptive batch sizing
/// (CrawlOptions::batch_size == 0, see core/batch_sizer.h). Purely
/// advisory: it never changes answers, billing, or batch semantics.
struct ServerLoadHint {
  /// True when every round crosses a high-latency boundary (a network
  /// transport): latency-aware auto sizing may then grow rounds beyond
  /// batch_parallelism() to amortize the per-round latency. In-process
  /// servers leave this false, which keeps auto sizing exactly the
  /// deterministic frontier-width-capped-by-parallelism rule.
  bool latency_feedback = false;

  /// Cumulative server-side queue wait attributable to this conversation,
  /// in seconds (0 when unknown). A remote server piggybacks its session
  /// lane's queue-wait total (util/worker_pool.h LaneStats) on each batch
  /// reply; the sizer diffs successive readings to see how long the *last*
  /// round sat behind other tenants — the congestion signal that tells a
  /// polite client to shrink its rounds. A reading *smaller* than the
  /// previous one means the conversation moved to a fresh server session
  /// (reconnect); the sizer treats it as a reset, not as zero wait.
  double queue_wait_total_seconds = 0;

  /// Cumulative time this server has spent sleeping for client-side
  /// politeness (PolitenessPolicy), in seconds. Latency-aware sizing
  /// subtracts the per-round delta from its measured round-trip: a pacing
  /// delay is a deliberate choice, not transport latency, and must not
  /// shrink rounds.
  double politeness_wait_total_seconds = 0;

  /// Per-shard cumulative queue waits for scatter-gather servers
  /// (server/sharding.h), one entry per shard, same semantics as
  /// queue_wait_total_seconds. Empty for unsharded servers. A scattered
  /// round is as slow as its slowest shard, so adaptive sizing reacts to
  /// the *maximum* per-shard delta rather than the sum — one congested
  /// shard among idle ones must still shrink rounds.
  std::vector<double> shard_queue_wait_seconds;
};

/// The crawler-facing contract of a hidden database server: submit a form
/// query, receive at most k tuples plus an overflow signal. Implementations:
/// LocalServer (in-memory evaluation, the paper's Section 6 methodology) and
/// the decorators in server/decorators.h (counting, budgets, tracing).
///
/// One entry point: IssueBatch() submits *independent* queries in one call
/// so an implementation may pipeline or parallelize them, and the cost model
/// counts its members (the paper counts queries, not round-trips). Issue()
/// is a convenience that submits a one-member batch; implementations
/// override IssueBatch only. Callers must not call either concurrently on
/// the same server object; IssueBatch members may be evaluated concurrently
/// *inside* an implementation (e.g. LocalServer's worker pool).
class HiddenDbServer {
 public:
  virtual ~HiddenDbServer() = default;

  /// Executes the members of `queries` in order. Returns non-OK only for
  /// environmental reasons (e.g. a BudgetServer's budget is exhausted) —
  /// never because of the data. The batched contract:
  ///
  ///  - *Ordering.* `responses` is parallel to `queries`: responses[i]
  ///    answers queries[i]. Implementations may evaluate members in any
  ///    order (or concurrently) but must produce the same responses the
  ///    sequential conversation would.
  ///  - *Partial failure (prefix semantics).* On return, `responses` holds
  ///    the longest prefix of answered members: responses->size() == m with
  ///    m <= queries.size(). The call returns OK iff m == queries.size();
  ///    otherwise it returns the status of member m — the first member that
  ///    failed — and members past m were not attempted (they consumed no
  ///    quota). The caller re-submits queries[m..] after recovering.
  ///  - *Budget truncation.* A metering wrapper (BudgetServer) answers as
  ///    many members as its budget allows, then fails the batch with
  ///    ResourceExhausted; the answered prefix is still valid and paid-for.
  ///  - *Sequential equivalence.* Submitting the members as consecutive
  ///    one-member batches yields the same responses, side effects and
  ///    failure behaviour.
  virtual Status IssueBatch(const std::vector<Query>& queries,
                            std::vector<Response>* responses) = 0;

  /// Executes `query` as a one-member IssueBatch. Servers under src/ never
  /// override it (tools/hdc_lint.py, rule issue-path); it stays virtual only
  /// so a measuring wrapper outside the library (perfbench's TimedServer)
  /// can time single calls.
  virtual Status Issue(const Query& query, Response* response) {
    std::vector<Response> responses;
    Status s = IssueBatch({query}, &responses);
    if (s.ok()) *response = std::move(responses.front());
    return s;
  }

  /// The server's result-size limit k (e.g. 1000 for Yahoo! Autos).
  virtual uint64_t k() const = 0;

  /// Hint: how many batch members the implementation can evaluate
  /// concurrently (1 means batching cannot shorten wall-clock time).
  /// Adaptive batch sizing (CrawlOptions::batch_size == 0) caps its round
  /// size here; decorators forward the wrapped server's value.
  virtual unsigned batch_parallelism() const { return 1; }

  /// Load/transport feedback for latency-aware batch sizing; decorators
  /// forward the wrapped server's value. The default — no latency
  /// feedback, no queue-wait signal — describes every in-process server.
  virtual ServerLoadHint load_hint() const { return ServerLoadHint{}; }

  /// The data space the server exposes. A real crawler learns this from the
  /// search form (Section 1.3, "Domain values").
  virtual const SchemaPtr& schema() const = 0;

  /// Monotonic data-version counter: a server whose contents can mutate
  /// bumps this on every mutation, so a cache (server/answer_cache.h) can
  /// prove a stored answer still fresh with zero queries. The default 0
  /// means "frozen": the paper's setting, and every immutable in-process
  /// backend. Decorators forward the wrapped server's value; RemoteServer
  /// reports the counter piggybacked on the handshake and on every
  /// batch-end frame.
  virtual uint64_t db_version() const { return 0; }
};

}  // namespace hdc
