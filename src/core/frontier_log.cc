// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/frontier_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <utility>

#include "core/checkpoint.h"
#include "util/macros.h"

namespace hdc {
namespace {

/// Every successful commit marks its state with a fresh token, unique in
/// the process, so a writer trusts a state's change marks only when its own
/// last commit set them.
std::atomic<uint64_t> next_commit_token{1};

}  // namespace

FrontierLogWriter::FrontierLogWriter(std::string path,
                                     FrontierLogOptions options)
    : path_(std::move(path)), options_(std::move(options)) {}

FrontierLogWriter::~FrontierLogWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status FrontierLogWriter::Open(const std::string& path,
                               FrontierLogOptions options,
                               std::unique_ptr<FrontierLogWriter>* out) {
  if (path.empty() || out == nullptr) {
    return Status::InvalidArgument("null argument");
  }
  out->reset(new FrontierLogWriter(path, std::move(options)));
  return Status::OK();
}

void FrontierLogWriter::NoteSeen(uint64_t row_id) {
  ++pending_seen_;
  pending_seen_ids_ += ' ';
  AppendDecimal(row_id, &pending_seen_ids_);
}

void FrontierLogWriter::NoteTuple(const Tuple& tuple) {
  ++pending_tuples_;
  AppendTupleTokens(tuple, &pending_tuple_lines_);
  pending_tuple_lines_ += '\n';
}

void FrontierLogWriter::CacheFrontierFrom(size_t first,
                                          const std::string& text) {
  last_frontier_.resize(first < last_line_starts_.size()
                            ? last_line_starts_[first]
                            : last_frontier_.size());
  last_line_starts_.resize(first);
  for (size_t at = 0; at < text.size(); ++at) {
    last_line_starts_.push_back(last_frontier_.size() + at);
    at = text.find('\n', at);
    if (at == std::string::npos) break;
  }
  last_frontier_ += text;
}

Status FrontierLogWriter::WriteSnapshot(const CrawlState& state) {
  std::ostringstream out;
  HDC_RETURN_IF_ERROR(
      SaveCheckpoint(state, *state.extracted.schema(), &out));
  const std::string contents = out.str();
  HDC_RETURN_IF_ERROR(WriteFileDurably(path_, contents));

  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) {
    return Status::Internal("cannot reopen frontier log for append: " +
                            path_);
  }
  bytes_ = snapshot_bytes_ = contents.size();
  have_snapshot_ = true;
  ++seq_;
  changed_.clear();
  state.AppendFrontier(/*changed_only=*/false, &changed_);
  CacheFrontierFrom(0, changed_);
  return Status::OK();
}

Status FrontierLogWriter::AppendDurably(const std::string& record) {
  if (fd_ < 0) return Status::Internal("frontier log is not open: " + path_);
  if (!WriteAll(fd_, record)) {
    return Status::Internal("frontier log write failed: " + path_);
  }
  if (options_.sync && ::fsync(fd_) != 0) {
    return Status::Internal("frontier log fsync failed: " + path_);
  }
  bytes_ += record.size();
  return Status::OK();
}

Status FrontierLogWriter::Commit(const CrawlState& state) {
  // A failed crawl is not a resume point; leave the last good commit.
  if (!state.fatal.ok()) return Status::OK();

  Status written;
  if (!have_snapshot_) {
    written = WriteSnapshot(state);
  } else {
    // Encode from the first line that may differ from the last commit's
    // encoding: where the state's change marks say, when this writer's last
    // commit set them; line 0 for any other state.
    const bool marked = state.frontier_commit() == last_token_;
    changed_.clear();
    const size_t first = state.AppendFrontier(marked, &changed_);
    HDC_CHECK(first <= last_line_starts_.size());
    // Line-wise longest common prefix of the cached lines from `first` on
    // and the new ones: equal bytes up to the mismatch, cut back to the
    // last whole line.
    const size_t cached_from = first < last_line_starts_.size()
                                   ? last_line_starts_[first]
                                   : last_frontier_.size();
    const size_t span =
        std::min(changed_.size(), last_frontier_.size() - cached_from);
    const size_t same =
        std::mismatch(changed_.begin(), changed_.begin() + span,
                      last_frontier_.begin() + cached_from)
            .first -
        changed_.begin();
    const size_t kept_bytes =
        same == 0 ? 0 : changed_.rfind('\n', same - 1) + 1;
    const size_t keep =
        first + std::count(changed_.begin(), changed_.begin() + kept_bytes,
                           '\n');
    const size_t added = static_cast<size_t>(
        std::count(changed_.begin() + kept_bytes, changed_.end(), '\n'));
    const bool dirty = state.queries_issued != last_queries_ ||
                       state.tuples_collected != last_collected_ ||
                       pending_seen_ > 0 || pending_tuples_ > 0 ||
                       added > 0 || keep != last_line_starts_.size();
    if (!dirty) {
      // The state encodes exactly as the last commit: nothing to write.
      state.MarkFrontierCommitted(last_token_);
      return Status::OK();
    }

    // Rotate once the file has passed rotate_bytes and the records since
    // the last snapshot are at least as large as it: a rewrite then costs
    // no more than the appends it retires, however large the state.
    if (bytes_ >= options_.rotate_bytes &&
        bytes_ - snapshot_bytes_ >= snapshot_bytes_) {
      written = WriteSnapshot(state);
    } else {
      const uint64_t seq = seq_ + 1;
      record_.clear();
      record_ += "round ";
      AppendDecimal(seq, &record_);
      record_ += "\nqueries ";
      AppendDecimal(state.queries_issued, &record_);
      record_ += "\ncollected ";
      AppendDecimal(state.tuples_collected, &record_);
      record_ += "\nseen ";
      AppendDecimal(pending_seen_, &record_);
      record_ += pending_seen_ids_;
      record_ += "\ntuples ";
      AppendDecimal(pending_tuples_, &record_);
      record_ += '\n';
      record_ += pending_tuple_lines_;
      record_ += "frontier keep ";
      AppendDecimal(keep, &record_);
      record_ += " add ";
      AppendDecimal(added, &record_);
      record_ += '\n';
      record_.append(changed_, kept_bytes);
      record_ += "commit ";
      AppendDecimal(seq, &record_);
      record_ += '\n';
      written = AppendDurably(record_);
      if (written.ok()) {
        seq_ = seq;
        CacheFrontierFrom(first, changed_);
      }
    }
  }
  if (!written.ok()) {
    // A failed write or fsync leaves the file's tail unknown (a short
    // record, or a whole one that may or may not be durable). Never append
    // after it: the next commit starts a fresh snapshot segment.
    have_snapshot_ = false;
    last_token_ = 0;
    return written;
  }
  last_queries_ = state.queries_issued;
  last_collected_ = state.tuples_collected;
  last_token_ = next_commit_token.fetch_add(1);
  state.MarkFrontierCommitted(last_token_);
  pending_seen_ = 0;
  pending_seen_ids_.clear();
  pending_tuples_ = 0;
  pending_tuple_lines_.clear();
  if (options_.on_commit) options_.on_commit(seq_);
  return Status::OK();
}

}  // namespace hdc
