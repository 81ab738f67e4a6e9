// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/frontier_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <sstream>
#include <utility>

#include "core/checkpoint.h"
#include "util/macros.h"

namespace hdc {
namespace {

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::vector<std::string> EncodeFrontierLines(const CrawlState& state) {
  std::ostringstream out;
  state.EncodeFrontier(&out);
  return SplitLines(out.str());
}

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
  pending_seen_.push_back(row_id);
}

void FrontierLogWriter::NoteTuple(const Tuple& tuple) {
  std::ostringstream line;
  EncodeTupleTokens(tuple, &line);
  pending_tuples_.push_back(line.str());
}

Status FrontierLogWriter::WriteSnapshot(
    const CrawlState& state, std::vector<std::string> frontier_lines) {
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
  bytes_ = contents.size();
  have_snapshot_ = true;
  ++seq_;
  last_queries_ = state.queries_issued;
  last_collected_ = state.tuples_collected;
  last_frontier_ = std::move(frontier_lines);
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

  std::vector<std::string> frontier = EncodeFrontierLines(state);
  const bool dirty = !have_snapshot_ ||
                     state.queries_issued != last_queries_ ||
                     state.tuples_collected != last_collected_ ||
                     !pending_seen_.empty() || !pending_tuples_.empty() ||
                     frontier != last_frontier_;
  if (!dirty) return Status::OK();

  Status written;
  if (!have_snapshot_ || bytes_ >= options_.rotate_bytes) {
    written = WriteSnapshot(state, std::move(frontier));
  } else {
    const uint64_t seq = seq_ + 1;
    std::ostringstream rec;
    rec << "round " << seq << '\n';
    rec << "queries " << state.queries_issued << '\n';
    rec << "collected " << state.tuples_collected << '\n';
    rec << "seen " << pending_seen_.size();
    for (uint64_t id : pending_seen_) rec << ' ' << id;
    rec << '\n';
    rec << "tuples " << pending_tuples_.size() << '\n';
    for (const std::string& line : pending_tuples_) rec << line << '\n';
    size_t keep = 0;
    while (keep < frontier.size() && keep < last_frontier_.size() &&
           frontier[keep] == last_frontier_[keep]) {
      ++keep;
    }
    rec << "frontier keep " << keep << " add " << (frontier.size() - keep)
        << '\n';
    for (size_t i = keep; i < frontier.size(); ++i) {
      rec << frontier[i] << '\n';
    }
    rec << "commit " << seq << '\n';
    written = AppendDurably(rec.str());
    if (written.ok()) {
      seq_ = seq;
      last_queries_ = state.queries_issued;
      last_collected_ = state.tuples_collected;
      last_frontier_ = std::move(frontier);
    }
  }
  if (!written.ok()) {
    // A failed write or fsync leaves the file's tail unknown (a short
    // record, or a whole one that may or may not be durable). Never append
    // after it: the next commit starts a fresh snapshot segment.
    have_snapshot_ = false;
    return written;
  }
  pending_seen_.clear();
  pending_tuples_.clear();
  if (options_.on_commit) options_.on_commit(seq_);
  return Status::OK();
}

}  // namespace hdc
