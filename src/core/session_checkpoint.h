// Copyright (c) hdc authors. Apache-2.0 license.
//
// Session-scoped checkpointing: one file that snapshots *budget state with
// crawl state*, so a metered crawl against a CrawlService can be stopped —
// or killed — and picked up later with both halves consistent. The file is
// a crawl-state file (format: core/checkpoint.h) carrying the session
// record — the session's label and remaining query budget — which this
// layer writes and applies through ServerSession's label(),
// budget_remaining() and RefillBudget().
//
// The daily-quota pattern (examples/daily_quota.cpp): resume with
// SessionResumeOptions::restore_budget = false, so each process run keeps
// the fresh quota its session was minted with instead of inheriting
// yesterday's remainder.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "core/checkpoint.h"
#include "core/crawler.h"
#include "server/crawl_service.h"
#include "util/status.h"

namespace hdc {

struct SessionResumeOptions {
  /// Restore the session's query budget to the checkpointed remainder.
  /// Turn off to keep the resuming session's own allotment (a fresh daily
  /// quota per process run).
  bool restore_budget = true;
};

/// Writes the crawl checkpoint with the session record. The state must
/// belong to the session's (possibly overridden) schema.
Status SaveSessionCheckpoint(const ServerSession& session,
                             const CrawlState& state, std::ostream* out);

/// SaveSessionCheckpoint into `path`, crash-atomically (temp file + fsync +
/// rename — WriteFileDurably).
Status SaveSessionCheckpointFile(const ServerSession& session,
                                 const CrawlState& state,
                                 const std::string& path);

/// Reads the whole file (LoadCheckpoint, session record required) and only
/// then restores the session half: when `options.restore_budget` and the
/// record holds a numeric budget, the session's budget is refilled to it —
/// a typed FailedPrecondition if the session was created without one. The
/// recorded label is never applied: a session's label is fixed at
/// creation. On any error neither `*out` nor the budget is touched.
Status LoadSessionCheckpoint(std::istream* in, ServerSession* session,
                             std::shared_ptr<CrawlState>* out,
                             const SessionResumeOptions& options = {});

/// LoadSessionCheckpoint from `path`; NotFound when the file is missing.
Status LoadSessionCheckpointFile(const std::string& path,
                                 ServerSession* session,
                                 std::shared_ptr<CrawlState>* out,
                                 const SessionResumeOptions& options = {});

}  // namespace hdc
