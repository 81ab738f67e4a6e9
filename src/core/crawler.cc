// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/crawler.h"

#include "core/crawl_context.h"
#include "core/crawl_plan.h"
#include "core/frontier_log.h"
#include "util/macros.h"

namespace hdc {

CrawlResult Crawler::Crawl(HiddenDbServer* server,
                           const CrawlOptions& options) {
  HDC_CHECK(server != nullptr);
  CrawlResult bad(server->schema());
  bad.status = ValidateSchema(*server->schema());
  if (!bad.status.ok()) return bad;
  if (options.plan != nullptr &&
      !(*options.plan->schema() == *server->schema())) {
    bad.status = Status::InvalidArgument(
        "crawl plan was compiled against a different schema");
    return bad;
  }
  return RunAndPackage(server, MakeInitialState(server, options), options);
}

CrawlResult Crawler::Resume(HiddenDbServer* server,
                            std::shared_ptr<CrawlState> state,
                            const CrawlOptions& options) {
  HDC_CHECK(server != nullptr);
  CrawlResult bad(server->schema());
  if (state == nullptr) {
    bad.status = Status::InvalidArgument("resume requires a state");
    return bad;
  }
  if (state->algorithm() != name()) {
    bad.status = Status::InvalidArgument(
        "state produced by algorithm '" + state->algorithm() +
        "' cannot be resumed by '" + name() + "'");
    return bad;
  }
  return RunAndPackage(server, std::move(state), options);
}

CrawlResult Crawler::RunAndPackage(HiddenDbServer* server,
                                   std::shared_ptr<CrawlState> state,
                                   const CrawlOptions& options) {
  CrawlContext ctx(server, state.get(), options);
  if (!ctx.stopped()) Run(&ctx, state.get());

  CrawlResult result(server->schema());
  result.queries_issued = state->queries_issued;
  result.rows_seen = state->seen_rows.size();
  result.tuples_collected = state->tuples_collected;
  result.extracted = state->extracted;
  if (options.frontier_log != nullptr && state->fatal.ok()) {
    // Final commit: the run ended at a consistent point (crawlers re-push
    // in-flight work before stopping), so the log captures it durably —
    // completion included.
    Status committed = options.frontier_log->Commit(*state);
    if (!committed.ok() && !ctx.stopped()) {
      result.status = std::move(committed);
      result.resume_state = std::move(state);
      return result;
    }
  }
  if (!state->fatal.ok()) {
    result.status = state->fatal;
  } else if (state->Finished()) {
    result.status = Status::OK();
  } else {
    // Interrupted but resumable — by the internal budget, an external
    // BudgetServer, or a transient server failure.
    result.status = !ctx.interrupt().ok()
                        ? ctx.interrupt()
                        : Status::ResourceExhausted(
                              "query budget exhausted after " +
                              std::to_string(state->queries_issued) +
                              " queries; resumable");
    result.resume_state = std::move(state);
  }
  return result;
}

}  // namespace hdc
