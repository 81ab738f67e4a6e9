// Copyright (c) hdc authors. Apache-2.0 license.
//
// The frontier driver shared by all six crawlers. Every algorithm of the
// paper is a depth-first walk over rectangles that differs only in how an
// overflowing rectangle splits: at the midpoint (binary-shrink, Section
// 2.1), at a rank of the returned values (rank-shrink, 2.2), into one child
// per value of the next categorical attribute (DFS 3.1, slice-cover 3.2),
// or both (hybrid, 5). RunFrontier owns the round loop; a family supplies
// only its FrontierRules.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/crawl_context.h"
#include "core/crawler.h"
#include "query/query.h"
#include "server/response.h"

namespace hdc {

/// A fresh state of a single-kind family: one `kind` item at level 0 over
/// the plan's root rectangle when `options.plan` is set, the full space
/// otherwise.
std::shared_ptr<CrawlState> MakeSeededState(const SchemaPtr& schema,
                                            const std::string& algorithm,
                                            FrontierItem::Kind kind,
                                            const CrawlOptions& options);

/// A family's rules for the driver. The default plan probes every item's
/// own rectangle; only the slice engine answers items locally or asks a
/// different query (a slice lookup) on an item's behalf.
class FrontierRules {
 public:
  enum class Step : uint8_t {
    kProbe,   // issue the item's own rectangle
    kLookup,  // issue Lookup(item); the item waits for the answer
    kDone,    // handled without a query (collected, expanded or parked)
  };

  FrontierRules(CrawlContext* ctx, CrawlState* state)
      : ctx_(ctx), frontier_(&state->frontier) {}
  virtual ~FrontierRules() = default;

  /// The width a round is sized from (CrawlContext::RoundSize): the stack
  /// size, or more when the family has more independent queries to ask.
  virtual size_t RoundWidth() { return frontier_->size(); }

  /// Decides what a popped item needs this round.
  virtual Step Plan(FrontierItem* /*item*/) { return Step::kProbe; }

  /// The query a kLookup item waits on (called only for kLookup).
  virtual Query Lookup(const FrontierItem& item) { return item.q; }

  /// The round is planned: items parked during planning re-enter here.
  virtual void Planned() {}

  /// Applies a lookup's answer (never kStop) to the item that waited on it.
  /// Returns false after CrawlContext::SetFatal.
  virtual bool Answered(FrontierItem /*item*/,
                        CrawlContext::Outcome /*outcome*/,
                        Response* /*response*/) {
    return true;
  }

  /// Pushes the children of an item whose own rectangle overflowed.
  /// Returns false after CrawlContext::SetFatal (see Unsolvable).
  virtual bool Expand(const FrontierItem& item, const Response& response) = 0;

 protected:
  /// Sets Unsolvable for a point rectangle that holds more than k tuples
  /// (Section 1.1) and returns false.
  bool Unsolvable(const Query& point);

  /// The categorical expansion shared by DFS and the slice engine: the
  /// node's next attribute `order[level]` either is pinned already (a plan
  /// root may pin it; descend without fanning out) or fans out into one
  /// child per domain value, pushed in descending order so they pop as
  /// 1..U. A node with no attribute left is a point: Unsolvable.
  bool ExpandNode(const FrontierItem& node, const std::vector<size_t>& order);

  CrawlContext* ctx_;
  std::vector<FrontierItem>* frontier_;
};

/// Drains `state`'s frontier against `ctx` until it is empty or the context
/// stops. Each round: RoundSize of the rules' RoundWidth, pop up to that
/// many items needing a query, one IssueBatch; unanswered members go back
/// in reverse, so the stack is exactly as if they had never been popped.
void RunFrontier(CrawlContext* ctx, CrawlState* state, FrontierRules* rules);

/// Checks a node's level against `order` (every attribute of
/// order[0..level) pinned) and that a rank item has level 0.
Status CheckItemLevel(const FrontierItem& item,
                      const std::vector<size_t>& order);

}  // namespace hdc
