// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/binary_shrink.h"

#include "core/crawl_context.h"
#include "core/frontier.h"

namespace hdc {

Status BinaryShrink::ValidateSchema(const Schema& schema) const {
  if (!schema.all_numeric()) {
    return Status::InvalidArgument(
        "binary-shrink handles all-numeric data spaces only");
  }
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    const AttributeSpec& spec = schema.attribute(i);
    if (spec.lo <= kNumericMin || spec.hi >= kNumericMax) {
      return Status::InvalidArgument(
          "binary-shrink needs bounded numeric domains (attribute " +
          spec.name + " is unbounded); use rank-shrink instead");
    }
  }
  return Status::OK();
}

namespace {

/// Binary-shrink's split: halve the first free attribute at its midpoint.
class BinaryShrinkRules : public FrontierRules {
 public:
  using FrontierRules::FrontierRules;

  bool Expand(const FrontierItem& item, const Response&) override {
    auto attr = item.q.FirstNonPinnedAttribute();
    if (!attr.has_value()) return Unsolvable(item.q);
    const AttrInterval& ext = item.q.extent(*attr);
    // Midpoint split: x = ceil((lo + hi) / 2); lo < x <= hi always holds
    // for a non-pinned extent, so both halves are non-empty.
    const Value x = ext.lo + (ext.hi - ext.lo + 1) / 2;
    TwoWaySplitResult halves = TwoWaySplit(item.q, *attr, x);
    frontier_->push_back(
        FrontierItem{FrontierItem::Kind::kRank, std::move(halves.right), 0});
    frontier_->push_back(
        FrontierItem{FrontierItem::Kind::kRank, std::move(halves.left), 0});
    return true;
  }
};

}  // namespace

std::shared_ptr<CrawlState> BinaryShrink::MakeInitialState(
    HiddenDbServer* server, const CrawlOptions& options) const {
  return MakeSeededState(server->schema(), name(),
                         FrontierItem::Kind::kRank, options);
}

void BinaryShrink::Run(CrawlContext* ctx, CrawlState* state) const {
  BinaryShrinkRules rules(ctx, state);
  RunFrontier(ctx, state, &rules);
}

}  // namespace hdc
