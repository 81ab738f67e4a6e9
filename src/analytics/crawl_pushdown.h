// Copyright (c) hdc authors. Apache-2.0 license.
//
// Aggregate pushdown: answer an aggregate over a hidden database by
// crawling *only the satisfying subspace*, streaming tuples straight into
// the fold instead of materializing an extraction.
//
// The classic pipeline — crawl everything, then Aggregate(data, filter,
// spec) — spends queries proportional to the whole database. For a
// selective filter that is almost all waste: the filter is a rectangle, so
// it compiles into a CrawlPlan (core/crawl_plan.h) whose root seeds the
// crawl and whose pruning oracle rejects every region outside the filter.
// Query cost drops to what crawling just the filtered subspace costs
// (bench/bench_planner.cc measures the gap), and memory stays constant:
// tuples flow through a CrawlSink callback into the running fold
// (CrawlOptions::materialize off), never into a bag.
#pragma once

#include <cstdint>

#include "analytics/aggregates.h"
#include "core/crawler.h"
#include "query/query.h"
#include "util/status.h"

namespace hdc {

/// Crawl-side cost of a pushed-down aggregate.
struct PushdownStats {
  /// Top-k queries billed to the server conversation.
  uint64_t queries_issued = 0;
  /// Tuples that satisfied the filter and were folded.
  uint64_t tuples_folded = 0;
};

/// Evaluates `spec` over the hidden database tuples matching `filter`, by
/// crawling the filter's subspace with `crawler`. Produces exactly
/// Aggregate(D, filter, spec) — the pushdown changes cost, never the
/// answer. `base` seeds the crawl options (budget, batch size, oracle);
/// its plan/sink/materialize fields are overridden by the pushdown.
/// ResourceExhausted (budget ran out mid-crawl) and Unsolvable pass
/// through from the crawl.
Status CrawlAggregate(Crawler* crawler, HiddenDbServer* server,
                      const Query& filter, const AggregateSpec& spec,
                      AggregateResult* out, PushdownStats* stats = nullptr,
                      const CrawlOptions& base = {});

}  // namespace hdc
