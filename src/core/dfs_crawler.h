// Copyright (c) hdc authors. Apache-2.0 license.
//
// DFS (paper, Section 3.1): the baseline categorical crawler — a pruned
// depth-first traversal of the data-space tree. Each node's query pins a
// prefix of the categorical attributes; a resolved node's subtree is pruned,
// an overflowing node is expanded into one child per value of the next
// attribute. This is the crawling outline of Jin et al. [15] and the
// comparison baseline of Figure 11.
#pragma once

#include "core/crawler.h"

namespace hdc {

class DfsCrawler : public Crawler {
 public:
  std::string name() const override { return "dfs"; }

  /// Requires an all-categorical schema.
  Status ValidateSchema(const Schema& schema) const override;

 protected:
  std::shared_ptr<CrawlState> MakeInitialState(
      HiddenDbServer* server, const CrawlOptions& options) const override;
  void Run(CrawlContext* ctx, CrawlState* state) const override;
};

}  // namespace hdc
