// Copyright (c) hdc authors. Apache-2.0 license.
//
// rank-shrink (paper, Sections 2.2-2.3): the asymptotically optimal numeric
// crawler, O(d * n / k) queries. Differences from binary-shrink: (1) the
// split point is the (k/2)-th smallest returned value, guaranteeing >= k/4
// returned tuples land in each half (Case 1); (2) when more than k/4
// returned tuples tie on that value, a 3-way split isolates the duplicate
// slab, exhausting one attribute (Case 2). Multi-dimensional instances
// reduce inductively: the slab is a (d-1)-dimensional sub-problem.
#pragma once

#include <vector>

#include "core/crawler.h"
#include "core/frontier.h"
#include "query/query.h"
#include "server/response.h"

namespace hdc {

/// Which attribute an overflowing rectangle is split on.
enum class SplitAttributeStrategy {
  /// The paper's rule (Section 2.3): the lowest-index non-exhausted
  /// attribute — exhaust A1 completely, then recurse on A2..Ad. This is
  /// what the O(d*n/k) proof accounts.
  kFirstNonExhausted,
  /// Adaptive heuristic: the non-exhausted attribute whose values are most
  /// diverse within the returned k tuples (ties by index). Splits where
  /// the data actually spreads; correctness and termination hold, the
  /// Lemma 2 constant is not proven for it. Compared in the ablation
  /// bench.
  kMostDistinctValues,
};

/// Tuning knobs, exposed for the ablation bench. The paper's constants are
/// rank 1/2 and 3-way threshold 1/4; Lemma 1's accounting works for any
/// rank fraction r and threshold fraction t with t <= min(r, 1-r) — the
/// ablation bench shows why (1/2, 1/4) is the sweet spot.
struct RankShrinkOptions {
  /// Split at the ceil(k * rank_fraction)-th smallest returned value.
  double rank_fraction = 0.5;
  /// 3-way split when the split value's multiplicity in the response
  /// exceeds k * three_way_fraction.
  double three_way_fraction = 0.25;
  /// Split-attribute choice (see SplitAttributeStrategy).
  SplitAttributeStrategy attribute_strategy =
      SplitAttributeStrategy::kFirstNonExhausted;
};

/// Picks the attribute to split `q` on per `options.attribute_strategy`,
/// considering only non-exhausted *numeric* attributes. Returns nullopt if
/// there is none (q is a point of its free subspace) — the caller treats an
/// overflow there as Unsolvable.
std::optional<size_t> ChooseSplitAttribute(
    const Query& q, const std::vector<ReturnedTuple>& returned,
    const RankShrinkOptions& options);

/// Rank-shrink's frontier rule, also the slice engine's rule for its rank
/// items (the numeric sub-problem under each categorical point, Section
/// 5): an overflowing rectangle splits on ChooseSplitAttribute, 2-way or
/// 3-way, its children pushed in LIFO order (so the space is swept in
/// ascending value order); one with no numeric attribute left is a point.
class RankShrinkRules : public FrontierRules {
 public:
  RankShrinkRules(CrawlContext* ctx, CrawlState* state,
                  const RankShrinkOptions& options)
      : FrontierRules(ctx, state), options_(options) {}

  bool Expand(const FrontierItem& item, const Response& response) override;

 private:
  const RankShrinkOptions& options_;
};

class RankShrink : public Crawler {
 public:
  explicit RankShrink(RankShrinkOptions options = {});

  std::string name() const override { return "rank-shrink"; }

  /// Requires an all-numeric schema. Domains may be unbounded: split points
  /// are data values from responses, never midpoints.
  Status ValidateSchema(const Schema& schema) const override;

  const RankShrinkOptions& options() const { return options_; }

 protected:
  std::shared_ptr<CrawlState> MakeInitialState(
      HiddenDbServer* server, const CrawlOptions& options) const override;
  void Run(CrawlContext* ctx, CrawlState* state) const override;

 private:
  RankShrinkOptions options_;
};

}  // namespace hdc
