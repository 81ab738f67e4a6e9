// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/rank_shrink.h"

#include <algorithm>
#include <cmath>

#include "core/crawl_context.h"
#include "util/macros.h"

namespace hdc {

RankShrink::RankShrink(RankShrinkOptions options) : options_(options) {
  HDC_CHECK(options_.rank_fraction > 0.0 && options_.rank_fraction <= 1.0);
  HDC_CHECK(options_.three_way_fraction >= 0.0 &&
            options_.three_way_fraction < 1.0);
}

Status RankShrink::ValidateSchema(const Schema& schema) const {
  if (!schema.all_numeric()) {
    return Status::InvalidArgument(
        "rank-shrink handles all-numeric data spaces only (use hybrid for "
        "mixed spaces)");
  }
  return Status::OK();
}

std::optional<size_t> ChooseSplitAttribute(
    const Query& q, const std::vector<ReturnedTuple>& returned,
    const RankShrinkOptions& options) {
  const Schema& schema = *q.schema();
  if (options.attribute_strategy ==
      SplitAttributeStrategy::kFirstNonExhausted) {
    for (size_t i = 0; i < q.num_attributes(); ++i) {
      if (!q.IsPinned(i) && schema.IsNumeric(i)) return i;
    }
    return std::nullopt;
  }

  // kMostDistinctValues: count distinct response values per free attribute.
  std::optional<size_t> best;
  size_t best_distinct = 0;
  std::vector<Value> values;
  values.reserve(returned.size());
  for (size_t i = 0; i < q.num_attributes(); ++i) {
    if (q.IsPinned(i) || !schema.IsNumeric(i)) continue;
    values.clear();
    for (const ReturnedTuple& rt : returned) values.push_back(rt.tuple[i]);
    std::sort(values.begin(), values.end());
    const size_t distinct = static_cast<size_t>(
        std::unique(values.begin(), values.end()) - values.begin());
    if (!best.has_value() || distinct > best_distinct) {
      best = i;
      best_distinct = distinct;
    }
  }
  return best;
}

bool RankShrinkRules::Expand(const FrontierItem& item,
                             const Response& response) {
  const Query& q = item.q;
  const std::vector<ReturnedTuple>& returned = response.tuples;
  auto split = ChooseSplitAttribute(q, returned, options_);
  if (!split.has_value()) return Unsolvable(q);
  const size_t attr = *split;
  const uint64_t k = ctx_->k();
  HDC_CHECK_MSG(!returned.empty(), "an overflowing response holds k tuples");

  std::vector<Value> values;
  values.reserve(returned.size());
  for (const ReturnedTuple& rt : returned) values.push_back(rt.tuple[attr]);
  std::sort(values.begin(), values.end());

  // o = the (k * rank_fraction)-th tuple in ascending order (k/2 in the
  // paper); x is its value, c its multiplicity within the response.
  size_t rank = static_cast<size_t>(
      std::floor(static_cast<double>(k) * options_.rank_fraction));
  rank = std::clamp<size_t>(rank, 1, values.size());
  const Value x = values[rank - 1];
  const size_t c = static_cast<size_t>(
      std::upper_bound(values.begin(), values.end(), x) -
      std::lower_bound(values.begin(), values.end(), x));

  const AttrInterval& ext = q.extent(attr);
  const bool few_duplicates =
      static_cast<double>(c) <=
      static_cast<double>(k) * options_.three_way_fraction;
  auto push = [this](Query child) {
    frontier_->push_back(
        FrontierItem{FrontierItem::Kind::kRank, std::move(child), 0});
  };

  // Case 1 (c <= k/4): 2-way split at x; both halves receive >= k/4 of the
  // response. The paper shows x > lo always holds here (otherwise every
  // value below x would be missing and c >= k/2); the guard keeps the split
  // legal under ablated fractions too.
  if (few_duplicates && x > ext.lo) {
    TwoWaySplitResult halves = TwoWaySplit(q, attr, x);
    push(std::move(halves.right));
    push(std::move(halves.left));
    return true;
  }

  // Case 2: 3-way split; the middle slab [x, x] exhausts `attr` and becomes
  // a (d-1)-dimensional sub-problem (a resolvable point in 1-d).
  ThreeWaySplitResult parts = ThreeWaySplit(q, attr, x);
  if (parts.right.has_value()) push(std::move(*parts.right));
  push(std::move(parts.mid));
  if (parts.left.has_value()) push(std::move(*parts.left));
  return true;
}

std::shared_ptr<CrawlState> RankShrink::MakeInitialState(
    HiddenDbServer* server, const CrawlOptions& options) const {
  return MakeSeededState(server->schema(), name(),
                         FrontierItem::Kind::kRank, options);
}

void RankShrink::Run(CrawlContext* ctx, CrawlState* state) const {
  RankShrinkRules rules(ctx, state, options_);
  RunFrontier(ctx, state, &rules);
}

}  // namespace hdc
