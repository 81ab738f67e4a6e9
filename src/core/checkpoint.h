// Copyright (c) hdc authors. Apache-2.0 license.
//
// Durable crawl state. A crawl interrupted by a query budget — or killed
// mid-round — holds a resumable CrawlState (core/crawler.h). Every file
// that persists one (a checkpoint, a session checkpoint, a write-ahead
// frontier log, a delta crawl's record) uses the one text format below,
// and LoadCheckpoint is the one reader of it. Format (version 3):
//
//   hdc-crawl-state 3
//   session <escaped label> <remaining | unlimited>   # session files only
//   snapshot-begin
//   algorithm <name>
//   schema <spec>                  # data/csv_reader.h spec syntax
//   queries <cumulative count>
//   seen <count> <row id>...
//   extracted <count>
//   <v1> <v2> ... one line per extracted tuple
//   collected <cumulative count>   # tuples delivered, incl. non-materialized
//   frontier-begin
//   root <extents>                 # slice families only: the slice table
//   catorder <attr>...             # (core/slice_engine.h)
//   eager <0|1>
//   slice <position> <value> O     # overflowing: one bit
//   slice <position> <value> R <m> # resolved: its m-tuple bag follows
//   bag <row id> <v1> <v2> ...
//   version <db_version>           # crawl records only (core/delta_crawl.h)
//   region <hash> <m> <extents>    # a resolved rectangle: its m-tuple answer
//   bag <row id> <v1> <v2> ...     # follows as bag lines
//   item <node|rank> <level> <extents>  # the frontier stack, bottom first
//   frontier-end
//   snapshot-end
//   round <seq>                    # zero or more round records (logs only)
//   queries <cumulative>
//   collected <cumulative>
//   seen <m> <row ids newly seen since the previous commit>
//   tuples <m>
//   <m tuple lines>
//   frontier keep <K> add <M>      # keep the first K frontier lines,
//   <M frontier lines>             # then append M new ones
//   commit <seq>
//
// <extents> is the lo/hi pair of every attribute, in schema order. Every
// family writes its frontier as `item` lines (core/frontier.h), and the
// decoder rejects an item the family could not have produced (see
// CrawlState::CheckItem, core/frontier.cc).
//
// The round-record grammar does not depend on how a writer computes K: a
// writer that encodes only the changed frontier lines (core/frontier_log.h)
// writes the same bytes as one that re-encodes and diffs the whole
// frontier.
//
// A checkpoint is a log with one snapshot and no rounds. The session record
// (label escaped per util/string_escape.h, plus the remaining query budget)
// is written by core/session_checkpoint.h; the round records by
// FrontierLogWriter (core/frontier_log.h).
//
// The reader decodes the snapshot straight into the CrawlState and keeps
// only the frontier lines as text, so round records can edit them. It
// applies every complete round and drops a torn tail: a trailing record
// that is incomplete or lacks its matching `commit <seq>` line never became
// durable. The frontier is then decoded and the state validated once.
//
// Every decode error is typed and names the 1-based line of the file it
// occurred on — a frontier line keeps the number of the line it was read
// from, even when a round record added it. The output state is never
// assigned on failure, so a truncated file can not produce a
// partially-populated CrawlState. A count read from the file never sizes a
// container: containers grow only as elements are actually read.
#pragma once

#include <charconv>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/crawler.h"
#include "query/query.h"
#include "server/response.h"

namespace hdc {

/// Line reader that tracks 1-based line numbers so decode errors can name
/// the exact line. Shared by the crawl-state reader and the frontier codec.
class CheckpointReader {
 public:
  /// A line together with its 1-based number in the file.
  struct Line {
    std::string text;
    uint64_t number = 0;
  };

  explicit CheckpointReader(std::istream* in) : in_(in) {}

  /// Reads the next line, stripping a trailing CR. EOF is a typed error
  /// naming the missing line: inside a crawl-state file, running out of
  /// input is always truncation.
  Status Next(std::string* line);

  /// Like Next but EOF is an expected outcome: returns false at end of
  /// input, true when a line was read.
  bool TryNext(std::string* line);

  /// Serves `lines`, each under its recorded number, before any further
  /// input — how the replayed frontier reaches CrawlState::DecodeFrontier.
  void Requeue(std::vector<Line> lines);

  /// Number of the last line returned (0 before the first read).
  uint64_t line_number() const { return line_number_; }

  /// InvalidArgument prefixed with "line <n>: " for the last line read.
  Status Error(const std::string& message) const;

 private:
  std::istream* in_;
  std::vector<Line> queued_;
  size_t next_queued_ = 0;
  uint64_t lines_read_ = 0;  // lines consumed from in_
  uint64_t line_number_ = 0;
};

/// The record a session checkpoint carries next to the crawl state
/// (core/session_checkpoint.h).
struct SessionRecord {
  std::string label;
  std::optional<uint64_t> budget_remaining;  // nullopt: unlimited
};

/// Serializes `state` (validating it against `schema`) as a one-snapshot
/// crawl-state file, with the session record when `session` is set.
Status SaveCheckpoint(const CrawlState& state, const Schema& schema,
                      std::ostream* out,
                      const SessionRecord* session = nullptr);

/// Crash-atomic file variant: the serialized checkpoint is written to a
/// temp file in the target's directory, fsync'd, then renamed over the
/// target — a crash mid-save always leaves either the old checkpoint or the
/// new one, never a torn file.
Status SaveCheckpointFile(const CrawlState& state, const Schema& schema,
                          const std::string& path);

/// Reads any crawl-state file — checkpoint, session checkpoint or frontier
/// log — into a resumable CrawlState. When `session` is set the session
/// record is required and returned there; otherwise it is checked and
/// ignored. `schema` must match the recorded one exactly, or be
/// *compatible* with it (same attributes, kinds and categorical domains —
/// numeric bounds may differ, see Schema::CompatibleWith). The compatible
/// case covers resuming a crawl checkpointed under a narrowed session
/// schema_override when the caller holds only the service's full schema:
/// the restored state is then bound to the checkpoint's *recorded* schema,
/// the space the crawl actually ran in, so resume it against a session
/// presenting that same view.
Status LoadCheckpoint(std::istream* in, SchemaPtr schema,
                      std::shared_ptr<CrawlState>* out,
                      SessionRecord* session = nullptr);

/// LoadCheckpoint from `path`; NotFound when the file does not exist (a
/// fresh run, not an error).
Status LoadCheckpointFile(const std::string& path, SchemaPtr schema,
                          std::shared_ptr<CrawlState>* out);

// --- token helpers shared with the frontier codec (core/frontier.h) ----

/// Appends the decimal digits of `v` to `out` (the digits a stream's
/// operator<< writes, without a stream).
template <typename Int>
void AppendDecimal(Int v, std::string* out) {
  char digits[24];
  out->append(digits, std::to_chars(digits, digits + sizeof digits, v).ptr);
}

/// Appends the 2d extent values of `q` as space-separated tokens (no
/// newline).
void AppendQueryTokens(const Query& q, std::string* out);

/// Reads 2d extent values from `in` into a query over `schema`.
Status DecodeQueryTokens(std::istream* in, const SchemaPtr& schema,
                         Query* out);

/// Appends one tuple's values as space-separated tokens (no newline).
void AppendTupleTokens(const Tuple& t, std::string* out);

/// Reads `arity` values from `in`.
Status DecodeTupleTokens(std::istream* in, size_t arity, Tuple* out);

/// Appends one `bag <row id> <values>` line per tuple of a resolved answer
/// (a slice entry's or a crawl-record region's).
void AppendBagLines(const std::vector<ReturnedTuple>& bag, std::string* out);

/// Reads `count` bag lines into `bag`. The count never sizes `bag`: a count
/// past the end of input is a typed truncation error.
Status DecodeBagLines(CheckpointReader* in, uint64_t count, size_t arity,
                      std::vector<ReturnedTuple>* bag);

/// Returns the rest of `line` after a "tag " prefix, or an error.
Status ExpectTagged(const std::string& line, const std::string& tag,
                    std::string* rest);

/// Strict full-match decimal parse; a typed error on anything else (the
/// loader never throws on garbage counts).
Status ParseUint64Token(const std::string& s, uint64_t* out);

// --- durable writes, shared with the frontier log (core/frontier_log.h) --

/// Writes all of `bytes` to `fd`, retrying short writes.
bool WriteAll(int fd, const std::string& bytes);

/// Writes `contents` to `path` crash-atomically: temp file in the same
/// directory, fsync, rename over the target, fsync the directory.
Status WriteFileDurably(const std::string& path, const std::string& contents);

}  // namespace hdc
