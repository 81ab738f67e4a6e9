// Copyright (c) hdc authors. Apache-2.0 license.
//
// In-memory hidden database server. This mirrors the paper's experimental
// methodology exactly (Section 6): "we implemented a local server. Our
// implementation conforms strictly to the problem setup in Section 1.1, so
// that the cost reported would be equivalent if the algorithms were executed
// on a remote web server. In a dataset, each tuple is assigned a random
// priority, so that if a query overflows, always the k tuples with the
// highest priorities are returned."
//
// LocalServer is the single-conversation shape of the split server stack:
// an immutable, shareable LocalIndex (server/local_index.h) plus this
// object's own mutable statistics. To serve many concurrent conversations
// over one index, use CrawlService (server/crawl_service.h) instead —
// or construct several LocalServers over one shared index.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "server/local_index.h"
#include "server/ranking.h"
#include "server/server.h"

namespace hdc {

class WorkerPool;

struct LocalServerOptions {
  /// Which LocalIndex evaluation engine answers queries (see IndexEngine):
  /// kBitmap is the fast default; kScan is the slow oracle it is
  /// cross-checked against. Only used by the dataset-taking constructor —
  /// a shared prebuilt index brings its own engine.
  IndexEngine engine = IndexEngine::kBitmap;

  /// Upper bound on threads (including the calling one) an IssueBatch call
  /// may use. Must be >= 1. 1 (default) evaluates batches sequentially on
  /// the calling thread; higher values fan batch members out across a
  /// worker pool owned by this server. Responses and server statistics are
  /// identical either way — evaluation is pure given the index.
  unsigned max_parallelism = 1;
};

/// Serves a Dataset through the top-k interface.
class LocalServer : public HiddenDbServer {
 public:
  /// Builds a private index. `policy` defaults to the paper's
  /// random-priority ranking (seeded for reproducibility).
  LocalServer(std::shared_ptr<const Dataset> dataset, uint64_t k,
              std::unique_ptr<RankingPolicy> policy = nullptr,
              LocalServerOptions options = {});

  /// Shares an existing index: the conversation state (statistics) is this
  /// server's own, the evaluation structures are `index`'s.
  explicit LocalServer(std::shared_ptr<const LocalIndex> index,
                       LocalServerOptions options = {});

  ~LocalServer() override;  // out of line: WorkerPool is forward-declared

  /// Native batch execution: members are independent lookups, dealt across
  /// the worker pool (up to max_parallelism threads in total). Responses
  /// and statistics match the sequential conversation exactly.
  Status IssueBatch(const std::vector<Query>& queries,
                    std::vector<Response>* responses) override;

  uint64_t k() const override { return index_->k(); }
  const SchemaPtr& schema() const override { return index_->schema(); }
  unsigned batch_parallelism() const override {
    return options_.max_parallelism;
  }

  const Dataset& dataset() const { return index_->dataset(); }

  /// The shared evaluation half; hand to another LocalServer or a
  /// CrawlService to serve further conversations over the same data.
  const std::shared_ptr<const LocalIndex>& index() const { return index_; }

  /// True iff Problem 1 is solvable against this server: no point of the
  /// data space holds more than k tuples (Section 1.1).
  bool IsCrawlable() const { return index_->IsCrawlable(); }

  // --- Introspection for tests & benches -------------------------------

  /// Number of queries served so far.
  uint64_t queries_served() const { return queries_served_; }
  /// Total tuples shipped in responses.
  uint64_t tuples_returned() const { return tuples_returned_; }
  /// Number of served queries that overflowed.
  uint64_t overflow_count() const { return overflow_count_; }
  void ResetStats();

  /// Exact |q(D)| (no k-truncation); used by tests as ground truth.
  uint64_t CountMatches(const Query& query) const {
    return index_->CountMatches(query);
  }

 private:
  std::shared_ptr<const LocalIndex> index_;
  LocalServerOptions options_;

  /// max_parallelism - 1 worker threads (the calling thread is the final
  /// lane); null when max_parallelism == 1.
  std::unique_ptr<WorkerPool> pool_;

  /// Scratch for batches evaluated on the calling thread (no pool, or a
  /// single member); pooled members use per-worker scratch.
  EvalScratch scratch_;

  uint64_t queries_served_ = 0;
  uint64_t tuples_returned_ = 0;
  uint64_t overflow_count_ = 0;
};

}  // namespace hdc
