// Copyright (c) hdc authors. Apache-2.0 license.
//
// Composable server wrappers (RocksDB-style decorators). A crawl against a
// remote site typically runs behind
//   BudgetServer( CountingServer( LocalServer ) )
// so it can be metered and interrupted.
//
// One composition style: each wrapper takes a HiddenDbServer* it does not
// own, and whoever composes the stack keeps every layer alive — on the
// stack around one crawl, or in a container of layers each borrowing the
// one below it. That is how ServerSession (server/crawl_service.h) builds
// its per-session metering stack over the shared index; the metering state
// is per session, never a wrapper around a process-wide singleton.
//
// Every decorator implements the single entry point of the HiddenDbServer
// contract, IssueBatch, keeping the prefix semantics documented in
// server/server.h: the wrapper answers (or forwards) an in-order prefix of
// the batch, and the first member that fails — a budget boundary, an
// injected connection drop, an exhausted retry allowance — truncates the
// batch there with that member's status. Issue() is a one-member batch, so
// it goes through the same code.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "server/server.h"
#include "util/macros.h"

namespace hdc {

/// Base decorator: forwards everything to the wrapped server, which it does
/// not own (the caller keeps it alive).
class ServerDecorator : public HiddenDbServer {
 public:
  explicit ServerDecorator(HiddenDbServer* base) : base_(base) {
    HDC_CHECK(base != nullptr);
  }

  Status IssueBatch(const std::vector<Query>& queries,
                    std::vector<Response>* responses) override {
    return base_->IssueBatch(queries, responses);
  }
  uint64_t k() const override { return base_->k(); }
  const SchemaPtr& schema() const override { return base_->schema(); }
  unsigned batch_parallelism() const override {
    return base_->batch_parallelism();
  }
  ServerLoadHint load_hint() const override { return base_->load_hint(); }
  uint64_t db_version() const override { return base_->db_version(); }

 protected:
  HiddenDbServer* base_;
};

/// Counts queries (the paper's cost metric).
///
/// Batches forward to the base server whole; every *answered* member counts
/// as one query. Retries are invisible from here unless this wrapper sits
/// *below* the retry layer: RetryingServer(CountingServer(base)) meters
/// every attempt, while CountingServer(RetryingServer(base)) counts only
/// queries that ultimately succeeded (each retried-then-successful query
/// counts once). To see each answered member, stack an ObservedServer —
/// the one per-query hook.
class CountingServer : public ServerDecorator {
 public:
  explicit CountingServer(HiddenDbServer* base) : ServerDecorator(base) {}

  Status IssueBatch(const std::vector<Query>& queries,
                    std::vector<Response>* responses) override {
    Status s = base_->IssueBatch(queries, responses);
    // Prefix semantics: everything in `responses` was answered (and paid
    // for) regardless of how the batch ended.
    queries_ += responses->size();
    return s;
  }

  uint64_t queries() const { return queries_; }
  void Reset() { queries_ = 0; }

 private:
  uint64_t queries_ = 0;
};

/// Enforces a hard query budget: once `max_queries` have been forwarded,
/// further issues fail with ResourceExhausted (the crawler checkpoints and
/// can resume against a fresh budget — e.g. the next day's quota).
///
/// A batch that crosses the budget boundary is truncated: the affordable
/// prefix is forwarded (and those answers returned), then the call fails
/// with ResourceExhausted. Refill() mid-crawl makes the *next* call start
/// against the fresh allotment; the truncated members were never forwarded,
/// so no work is lost or double-spent.
class BudgetServer : public ServerDecorator {
 public:
  BudgetServer(HiddenDbServer* base, uint64_t max_queries)
      : ServerDecorator(base), remaining_(max_queries) {}

  Status IssueBatch(const std::vector<Query>& queries,
                    std::vector<Response>* responses) override {
    const size_t allowed = static_cast<size_t>(
        std::min<uint64_t>(remaining(), queries.size()));
    if (allowed == 0 && !queries.empty()) {
      responses->clear();
      return Status::ResourceExhausted("query budget exhausted");
    }
    Status s;
    if (allowed == queries.size()) {
      s = base_->IssueBatch(queries, responses);
    } else {
      const std::vector<Query> head(queries.begin(),
                                    queries.begin() + allowed);
      s = base_->IssueBatch(head, responses);
    }
    // Only answered members consume budget (the base may itself have
    // truncated the prefix further, e.g. a flaky transport).
    Spend(responses->size());
    if (s.ok() && allowed < queries.size()) {
      return Status::ResourceExhausted("query budget exhausted mid-batch");
    }
    return s;
  }

  uint64_t remaining() const {
    return remaining_.load(std::memory_order_relaxed);
  }

  /// Grants a fresh allotment (e.g. quota reset).
  void Refill(uint64_t max_queries) {
    remaining_.store(max_queries, std::memory_order_relaxed);
  }

 private:
  void Spend(uint64_t queries) {
    const uint64_t before = remaining();
    remaining_.store(before - std::min(before, queries),
                     std::memory_order_relaxed);
  }

  /// Atomic so a metrics sampler (CrawlService::MetricsSnapshot) may read
  /// the quota while the conversation thread spends it; the conversation
  /// itself stays single-threaded, so plain load/store suffices.
  std::atomic<uint64_t> remaining_;
};

/// Presents a different — but compatible — schema to the crawler than the
/// wrapped server's: e.g. numeric bounds tightened by domain discovery
/// (core/domain_discovery.h), which is what lets binary-shrink run against
/// a server that declares unbounded numeric domains. Batches forward
/// unchanged (the base evaluates against its own schema).
class SchemaOverrideServer : public ServerDecorator {
 public:
  SchemaOverrideServer(HiddenDbServer* base, SchemaPtr schema)
      : ServerDecorator(base), schema_(std::move(schema)) {
    HDC_CHECK_MSG(schema_ != nullptr &&
                      schema_->CompatibleWith(*base_->schema()),
                  "override schema must be structurally compatible");
  }

  const SchemaPtr& schema() const override { return schema_; }

 private:
  SchemaPtr schema_;
};

/// Failure injection: deterministically fails every `period`-th query
/// attempt with an Internal error *before* reaching the wrapped server — a
/// dropped connection, which consumes no quota. period = 0 never fails.
///
/// Batch members count as individual attempts, in order. The member that
/// trips the period fails the batch there: the preceding members are
/// forwarded (as one sub-batch) and answered, the failing member and
/// everything after it never reach the base — exactly the sequence of
/// outcomes `period`-spaced one-member batches would produce.
class FlakyServer : public ServerDecorator {
 public:
  FlakyServer(HiddenDbServer* base, uint64_t period)
      : ServerDecorator(base), period_(period) {}

  Status IssueBatch(const std::vector<Query>& queries,
                    std::vector<Response>* responses) override {
    // Simulate the sequential attempt counter to find the member (if any)
    // that would trip the failure period.
    size_t clean = queries.size();
    bool trips = false;
    if (period_ > 0) {
      for (size_t i = 0; i < queries.size(); ++i) {
        if ((attempts_ + i + 1) % period_ == 0) {
          clean = i;
          trips = true;
          break;
        }
      }
    }
    Status s;
    if (clean == queries.size()) {
      s = base_->IssueBatch(queries, responses);
    } else {
      const std::vector<Query> head(queries.begin(), queries.begin() + clean);
      s = base_->IssueBatch(head, responses);
    }
    // Members the base answered were clean attempts; a base-side failure
    // means the sequential conversation stopped at the refused member —
    // which had already reached this layer, so its attempt counts too.
    // Members past it (and past our trip point) were never attempted.
    attempts_ += responses->size();
    if (!s.ok()) {
      ++attempts_;  // the refused member's own attempt
      return s;
    }
    if (trips) {
      ++attempts_;  // the tripping member's own attempt
      ++failures_;
      return Status::Internal("simulated connection failure");
    }
    return s;
  }

  uint64_t attempts() const { return attempts_; }
  uint64_t failures() const { return failures_; }

 private:
  uint64_t period_;
  uint64_t attempts_ = 0;
  uint64_t failures_ = 0;
};

/// Retries transient failures — Internal (simulated outages) and
/// Unavailable (transport drops, see net/remote_server.h) — up to
/// `max_retries` extra attempts per query. Deliberate refusals —
/// ResourceExhausted budgets — are never retried: a quota does not come
/// back by asking again.
///
/// A batch is forwarded whole; when the base fails the batch at some member
/// with a transient error, the unanswered suffix is re-submitted, charging
/// the retry to the member at the failure point. A member that exhausts its
/// allowance fails the batch there (prefix kept). See CountingServer for
/// which wrapper order meters retries as queries.
class RetryingServer : public ServerDecorator {
 public:
  RetryingServer(HiddenDbServer* base, uint64_t max_retries)
      : ServerDecorator(base), max_retries_(max_retries) {}

  Status IssueBatch(const std::vector<Query>& queries,
                    std::vector<Response>* responses) override {
    responses->clear();
    size_t done = 0;
    // Retries already spent on the member currently at position `done`.
    uint64_t front_retries = 0;
    while (done < queries.size()) {
      const std::vector<Query> rest(queries.begin() + done, queries.end());
      std::vector<Response> part;
      Status s = base_->IssueBatch(rest, &part);
      for (Response& r : part) responses->push_back(std::move(r));
      if (!part.empty()) front_retries = 0;
      done += part.size();
      if (s.ok()) {
        HDC_CHECK(done == queries.size());
        return s;
      }
      if (!s.IsTransient() || front_retries >= max_retries_) return s;
      ++front_retries;
      ++retries_performed_;
    }
    return Status::OK();
  }

  uint64_t retries_performed() const { return retries_performed_; }

 private:
  uint64_t max_retries_;
  uint64_t retries_performed_ = 0;
};

/// The one per-query hook: invokes a callback after every answered query,
/// batch members in issue order (answered prefix only), so subscribers see
/// the sequential conversation whatever the batch size. The audit log
/// (AuditLog) and the Figure 13 trace (ProgressRecorder) subscribe here.
class ObservedServer : public ServerDecorator {
 public:
  using Callback = std::function<void(const Query&, const Response&)>;

  ObservedServer(HiddenDbServer* base, Callback callback)
      : ServerDecorator(base), callback_(std::move(callback)) {}

  Status IssueBatch(const std::vector<Query>& queries,
                    std::vector<Response>* responses) override {
    Status s = base_->IssueBatch(queries, responses);
    if (callback_) {
      for (size_t i = 0; i < responses->size(); ++i) {
        callback_(queries[i], (*responses)[i]);
      }
    }
    return s;
  }

 private:
  Callback callback_;
};

/// Audit log, as an ObservedServer callback: streams one line per answered
/// query to `out` —
///   <index>\t<resolved|OVERFLOW>\t<returned>\t<query>
/// so an operator can review exactly what a crawl asked a site, or diff
/// two crawls' query sequences. The stream is not owned and must outlive
/// the callback.
inline ObservedServer::Callback AuditLog(std::ostream* out) {
  HDC_CHECK(out != nullptr);
  return [out, index = uint64_t{0}](const Query& query,
                                    const Response& response) mutable {
    *out << ++index << '\t' << (response.overflow ? "OVERFLOW" : "resolved")
         << '\t' << response.size() << '\t' << query.ToString() << '\n';
  };
}

/// One answered query as a ProgressRecorder saw it. rows_seen counts the
/// distinct hidden ids retrieved so far — Figure 13's "tuples output", and
/// CrawlState::seen_rows.size() for a recorder directly beneath a crawler.
struct ProgressSample {
  uint64_t query_index = 0;  // 1-based
  bool resolved = false;
  uint32_t returned = 0;  // tuples in this response
  uint64_t rows_seen = 0;
};

/// Figure 13's progress trace: pass it to an ObservedServer by reference
/// (std::ref) and it appends one ProgressSample per answered query. The
/// caller owns it, so one recorder spans a Crawl and every Resume after it.
class ProgressRecorder {
 public:
  void operator()(const Query& /*query*/, const Response& response) {
    for (const ReturnedTuple& rt : response.tuples) seen_.insert(rt.hidden_id);
    samples_.push_back(ProgressSample{samples_.size() + 1, response.resolved(),
                                      static_cast<uint32_t>(response.size()),
                                      seen_.size()});
  }

  const std::vector<ProgressSample>& samples() const { return samples_; }

 private:
  std::unordered_set<uint64_t> seen_;
  std::vector<ProgressSample> samples_;
};

}  // namespace hdc
