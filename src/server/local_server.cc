// Copyright (c) hdc authors. Apache-2.0 license.
#include "server/local_server.h"

#include "util/macros.h"
#include "util/worker_pool.h"

namespace hdc {

LocalServer::LocalServer(std::shared_ptr<const Dataset> dataset, uint64_t k,
                         std::unique_ptr<RankingPolicy> policy,
                         LocalServerOptions options)
    : LocalServer(std::make_shared<const LocalIndex>(
                      std::move(dataset), k, std::move(policy),
                      LocalIndexOptions{options.engine}),
                  options) {}

LocalServer::LocalServer(std::shared_ptr<const LocalIndex> index,
                         LocalServerOptions options)
    : index_(std::move(index)), options_(options) {
  HDC_CHECK(index_ != nullptr);
  HDC_CHECK_MSG(options_.max_parallelism >= 1,
                "LocalServerOptions::max_parallelism must be >= 1 (it "
                "bounds the threads of a batch, calling thread included)");
  if (options_.max_parallelism > 1) {
    pool_ = std::make_unique<WorkerPool>(options_.max_parallelism - 1);
  }
}

LocalServer::~LocalServer() = default;

void LocalServer::ResetStats() {
  queries_served_ = 0;
  tuples_returned_ = 0;
  overflow_count_ = 0;
}

Status LocalServer::IssueBatch(const std::vector<Query>& queries,
                               std::vector<Response>* responses) {
  HDC_CHECK(responses != nullptr);
  QueryStats stats;
  EvaluateBatch(*index_, pool_.get(), queries, responses, &stats, &scratch_);
  queries_served_ += stats.queries;
  tuples_returned_ += stats.tuples;
  overflow_count_ += stats.overflows;
  return Status::OK();
}

}  // namespace hdc
