// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/dfs_crawler.h"

#include "core/frontier.h"

namespace hdc {

Status DfsCrawler::ValidateSchema(const Schema& schema) const {
  if (!schema.all_categorical()) {
    return Status::InvalidArgument(
        "DFS handles all-categorical data spaces only");
  }
  return Status::OK();
}

namespace {

/// DFS probes every node; an overflowing one expands one level further
/// (a resolved node's subtree is covered by its response — the pruning
/// rule).
class DfsRules : public FrontierRules {
 public:
  using FrontierRules::FrontierRules;

  bool Expand(const FrontierItem& item, const Response&) override {
    return ExpandNode(item, item.q.schema()->categorical_indices());
  }
};

}  // namespace

std::shared_ptr<CrawlState> DfsCrawler::MakeInitialState(
    HiddenDbServer* server, const CrawlOptions& options) const {
  return MakeSeededState(server->schema(), name(),
                         FrontierItem::Kind::kNode, options);
}

void DfsCrawler::Run(CrawlContext* ctx, CrawlState* state) const {
  DfsRules rules(ctx, state);
  RunFrontier(ctx, state, &rules);
}

}  // namespace hdc
