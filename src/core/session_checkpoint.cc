// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/session_checkpoint.h"

#include <fstream>
#include <sstream>

#include "util/macros.h"

namespace hdc {

Status SaveSessionCheckpoint(const ServerSession& session,
                             const CrawlState& state, std::ostream* out) {
  SessionRecord record;
  record.label = session.label();
  if (session.budget_remaining() != kUnlimitedQueries) {
    record.budget_remaining = session.budget_remaining();
  }
  return SaveCheckpoint(state, *session.schema(), out, &record);
}

Status SaveSessionCheckpointFile(const ServerSession& session,
                                 const CrawlState& state,
                                 const std::string& path) {
  std::ostringstream out;
  HDC_RETURN_IF_ERROR(SaveSessionCheckpoint(session, state, &out));
  return WriteFileDurably(path, out.str());
}

Status LoadSessionCheckpoint(std::istream* in, ServerSession* session,
                             std::shared_ptr<CrawlState>* out,
                             const SessionResumeOptions& options) {
  if (in == nullptr || session == nullptr || out == nullptr) {
    return Status::InvalidArgument("null argument");
  }
  SessionRecord record;
  std::shared_ptr<CrawlState> state;
  HDC_RETURN_IF_ERROR(LoadCheckpoint(in, session->schema(), &state, &record));
  const bool restore =
      options.restore_budget && record.budget_remaining.has_value();
  if (restore && session->budget_remaining() == kUnlimitedQueries) {
    return Status::FailedPrecondition(
        "checkpoint records a query budget but this session was created "
        "without one (set SessionOptions::max_queries, or resume with "
        "restore_budget off)");
  }
  if (restore) session->RefillBudget(*record.budget_remaining);
  *out = std::move(state);
  return Status::OK();
}

Status LoadSessionCheckpointFile(const std::string& path,
                                 ServerSession* session,
                                 std::shared_ptr<CrawlState>* out,
                                 const SessionResumeOptions& options) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  return LoadSessionCheckpoint(&in, session, out, options);
}

}  // namespace hdc
