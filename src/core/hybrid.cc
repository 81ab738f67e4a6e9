// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/hybrid.h"

#include "core/crawl_plan.h"

namespace hdc {

HybridCrawler::HybridCrawler(HybridOptions options)
    : options_(std::move(options)) {}

Status HybridCrawler::ValidateSchema(const Schema& schema) const {
  (void)schema;  // every combination of attribute kinds is supported
  return Status::OK();
}

std::shared_ptr<CrawlState> HybridCrawler::MakeInitialState(
    HiddenDbServer* server, const CrawlOptions& options) const {
  return MakeSliceEngineState(
      server->schema(), name(), /*eager=*/!options_.lazy,
      options_.categorical_order,
      options.plan != nullptr ? &options.plan->root() : nullptr);
}

void HybridCrawler::Run(CrawlContext* ctx, CrawlState* state) const {
  SliceEngineRun(ctx, static_cast<SliceEngineState*>(state), options_.rank);
}

}  // namespace hdc
