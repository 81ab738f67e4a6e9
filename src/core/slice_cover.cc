// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/slice_cover.h"

#include "core/crawl_plan.h"

namespace hdc {

Status SliceCoverCrawler::ValidateSchema(const Schema& schema) const {
  if (!schema.all_categorical()) {
    return Status::InvalidArgument(
        std::string(lazy_ ? "lazy-slice-cover" : "slice-cover") +
        " handles all-categorical data spaces only (use hybrid for mixed)");
  }
  return Status::OK();
}

std::shared_ptr<CrawlState> SliceCoverCrawler::MakeInitialState(
    HiddenDbServer* server, const CrawlOptions& options) const {
  return MakeSliceEngineState(
      server->schema(), name(), /*eager=*/!lazy_, order_,
      options.plan != nullptr ? &options.plan->root() : nullptr);
}

void SliceCoverCrawler::Run(CrawlContext* ctx, CrawlState* state) const {
  SliceEngineRun(ctx, static_cast<SliceEngineState*>(state),
                 RankShrinkOptions{});
}

}  // namespace hdc
