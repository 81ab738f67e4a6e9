// Copyright (c) hdc authors. Apache-2.0 license.
//
// Shared engine behind slice-cover, lazy-slice-cover (paper, Section 3.2)
// and hybrid (Section 5).
//
// A *slice query* pins exactly one categorical attribute and is wildcard
// everywhere else. The engine keeps a lookup table of slice responses:
// resolved slices store their full bag, overflowing slices store only a bit
// ("we remember nothing but a bit"). extended-DFS then walks the data-space
// tree over the categorical attributes:
//   - the root is never issued: its children are enumerated directly;
//   - a child whose refining slice resolved is answered locally by
//     filtering the slice's cached bag (no query);
//   - a child whose slice overflowed is visited: its own query is issued
//     (except where the node query *is* the slice query: at level 1, and
//     along a plan root's pinned attributes) and, on overflow, expanded one
//     level further;
//   - a node with every categorical attribute pinned is the root of a
//     numeric sub-problem and is handed to rank-shrink (Section 5). With no
//     numeric attributes that sub-problem is a single point query, which
//     degenerates to exactly Section 3.2's behaviour.
//
// Eager mode issues all Sigma U_i slice queries up-front (slice-cover);
// lazy mode issues each slice on first need and memoizes
// (lazy-slice-cover), which never costs more (Section 3.2, "Heuristic").
// Both run on the one frontier driver (core/frontier.h). In eager mode,
// while a slice entry is unknown, each pop of the tree root re-pushes it
// and asks the next unknown slice instead, in rounds as wide as the server
// allows; a stop drops the round's unanswered lookups, which the resumed
// scan asks first. Once every entry is known the root expands.
// When a lazy slice query is the node's own rectangle and pins every
// categorical attribute (one categorical attribute, or a plan root pinning
// the others) and overflows, rank-shrink starts from that answer at once
// instead of asking it again; eager mode keeps only the bit and asks it
// again.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/crawler.h"
#include "core/rank_shrink.h"
#include "query/query.h"
#include "server/response.h"

namespace hdc {

/// One row of the slice lookup table.
struct SliceEntry {
  enum class State : uint8_t { kUnknown, kResolved, kOverflow };
  State state = State::kUnknown;
  /// Full result bag; only populated when state == kResolved.
  std::vector<ReturnedTuple> bag;
};

/// Order in which the extended-DFS consumes the categorical attributes.
/// The paper fixes the schema order (Section 6); the ablation bench shows
/// the optimal algorithms want narrow domains first — a wide first
/// attribute forces U_1 slice queries before anything can be pruned.
enum class CategoricalOrder {
  kSchemaOrder,     // the paper's setup
  kNarrowestFirst,  // ascending domain size (ties by schema position)
  kWidestFirst,     // descending domain size — the stress case
};

/// The extended-DFS frontier — kNode items are data-space-tree nodes over
/// cat_order, kRank items rank-shrink rectangles under a fully-pinned
/// categorical point — plus the slice table.
class SliceEngineState : public CrawlState {
 public:
  /// `algorithm` is the owning crawler's name ("slice-cover",
  /// "lazy-slice-cover" or "hybrid"); `eager` selects the up-front slice
  /// pass; `cat_order` lists the categorical attribute indices in
  /// traversal order (empty = schema order).
  SliceEngineState(SchemaPtr schema, std::string algorithm, bool eager,
                   std::vector<size_t> cat_order = {});

  /// The slice table lines (root, catorder, eager, slice/bag), then the
  /// item lines.
  size_t AppendFrontier(bool changed_only, std::string* out) const override;
  void MarkFrontierCommitted(uint64_t token) const override;
  Status DecodeFrontier(CheckpointReader* in) override;

  /// Change mark for the frontier log: slice entry (pos, v) was set since
  /// the last commit.
  void NoteSliceSet(size_t pos, Value v) {
    const std::pair<size_t, size_t> entry(pos, static_cast<size_t>(v));
    if (entry < slice_floor_) slice_floor_ = entry;
  }

  /// The rectangle the crawl covers: the full space, or a plan's pushdown
  /// root (core/crawl_plan.h). Slice queries and the tree root are scoped
  /// to it, so the engine never descends outside the satisfying subspace.
  Query root;

  /// Categorical attribute indices in traversal order; tree level L pins
  /// cat_order[0..L-1].
  std::vector<size_t> cat_order;

  /// slices[p][v]: entry for the slice query pinning attribute
  /// cat_order[p] to value v. Index 0 of the inner vector is unused
  /// (values are 1-based).
  std::vector<std::vector<SliceEntry>> slices;

  /// Slice-cover's up-front pass: every slice is asked before the root
  /// expands.
  bool eager = false;

 protected:
  Status DecodeLine(CheckpointReader* in, const std::string& line) override;
  /// Nodes pin a prefix of cat_order; rank items pin every categorical.
  Status CheckItem(const FrontierItem& item) const override;

 private:
  /// The first slice entry, as (position, value), set since the last
  /// commit; (slices.size(), 0) when none was.
  mutable std::pair<size_t, size_t> slice_floor_{0, 0};
};

/// Resolves a CategoricalOrder into the concrete attribute-index order.
std::vector<size_t> ResolveCategoricalOrder(const Schema& schema,
                                            CategoricalOrder order);

/// Creates the initial state: the frontier holds the tree root (or, with no
/// categorical attributes, a single rank-shrink rectangle covering D).
/// `root` scopes the crawl to a sub-rectangle (predicate pushdown); null
/// means the full space.
std::shared_ptr<SliceEngineState> MakeSliceEngineState(
    const SchemaPtr& schema, const std::string& algorithm, bool eager,
    CategoricalOrder order = CategoricalOrder::kSchemaOrder,
    const Query* root = nullptr);

/// Drains the state against the context until finished or stopped; rank
/// items split by rank-shrink's rule under `rank`.
void SliceEngineRun(CrawlContext* ctx, SliceEngineState* st,
                    const RankShrinkOptions& rank);

}  // namespace hdc
