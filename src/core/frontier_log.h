// Copyright (c) hdc authors. Apache-2.0 license.
//
// Write-ahead frontier log: crash-safe durability for long crawls.
//
// A checkpoint file (core/checkpoint.h) is a full snapshot — fine to write
// every few minutes, far too expensive to write every round. The frontier
// log generalizes it into an append-only WAL: one durable *delta* per round
// boundary, with periodic snapshot compaction. A process SIGKILLed mid-crawl
// replays the log and resumes from the last committed round.
//
// On-disk format: the crawl-state format of core/checkpoint.h — one
// snapshot followed by one round record per commit. The frontier delta in
// a round record is a longest-common-prefix diff against the previously
// committed frontier encoding: keep the first K lines, append M new ones.
//
// Commit cost follows what changed, not the frontier's size. The state
// keeps change marks since its last commit (CrawlState::AppendFrontier):
// the lowest stack size RunFrontier popped down to and, in the slice
// engine, the first slice entry set. The writer encodes only from the first
// line those marks name, compares just those lines with its cached copy of
// the last encoding, and so finds the same K as a full diff would. It
// trusts the marks only of the state object its own last successful commit
// marked; any other state (a loaded one, a second state on the same writer,
// any state after a failed commit) is encoded from line 0. Tuples and seen
// ids are appended to the pending record as they arrive.
//
// Items are the last frontier lines, so a round of a binary-shrink,
// rank-shrink or DFS crawl re-emits only the items above the lowest popped
// one. The slice table comes before the items, so a slice-family record
// re-emits every line after the first slice entry set that round: just the
// round's entries and the items in the eager pass, which sets entries in
// table order, but O(slice table) in a lazy crawl. Slice entries as their
// own delta records need a format change.
//
// Durability protocol: each commit is appended with a single write() and
// (when FrontierLogOptions::sync) fsync'd before Commit() returns. The
// snapshot segment is replaced via WriteFileDurably (temp file + fsync +
// rename), so the log is never in a torn state at a segment boundary.
// Replay is LoadCheckpointFile: a trailing record without its matching
// `commit <seq>` line is a torn tail from the crash and is discarded
// silently; everything up to the last commit is applied. A commit whose
// write or fsync failed is never built on: the writer cannot know what
// reached the disk, so its next commit replaces the file with a snapshot.
//
// Billing guarantee: CrawlContext commits at the *top* of each round —
// commit N captures the state produced by rounds 1..N-1 and happens-before
// any query of round N. A crash therefore loses at most the in-flight
// round; every completed (committed) round's queries are never re-billed on
// resume. The kill-and-resume test aborts inside on_commit, exactly at the
// boundary, and checks query counts stay byte-identical.
//
// Caveat — materialize=false: snapshots serialize the in-memory extraction,
// which is empty in streaming mode, so snapshot compaction drops the tuple
// history (the `collected` watermark survives). Streaming consumers must
// persist tuples themselves and truncate their output to the replayed
// state's tuples_collected watermark before resuming (see
// examples/daily_quota.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/crawler.h"
#include "data/tuple.h"
#include "util/status.h"

namespace hdc {

struct FrontierLogOptions {
  /// Rewrite the log as a fresh snapshot (compaction) once it grows past
  /// this many bytes and the records appended since the last snapshot are
  /// at least as large as that snapshot, so a state that encodes larger
  /// than this is not rewritten at every commit. The rewrite is
  /// crash-atomic.
  uint64_t rotate_bytes = 4ull << 20;

  /// fsync after every commit. Turning this off keeps the format and the
  /// torn-tail recovery but trades durability for speed (tests, benches).
  bool sync = true;

  /// Invoked after each commit becomes durable, with the commit sequence
  /// number. The kill-and-resume harness aborts the process here to prove
  /// resume correctness at exact round boundaries.
  std::function<void(uint64_t)> on_commit;
};

/// Appends round deltas to a frontier log. Wire into a crawl via
/// CrawlOptions::frontier_log; CrawlContext calls NoteSeen/NoteTuple as
/// rows arrive and Commit at every round boundary. Single-threaded, like
/// the crawl itself.
class FrontierLogWriter {
 public:
  /// Creates a writer for `path`. Nothing is written until the first
  /// Commit, which always starts a fresh snapshot segment (atomically
  /// replacing any previous log at `path` — resume therefore re-opens with
  /// the replayed state and compacts on its first commit).
  static Status Open(const std::string& path, FrontierLogOptions options,
                     std::unique_ptr<FrontierLogWriter>* out);

  ~FrontierLogWriter();
  FrontierLogWriter(const FrontierLogWriter&) = delete;
  FrontierLogWriter& operator=(const FrontierLogWriter&) = delete;

  /// Records a newly seen physical row id (delta since the last commit).
  void NoteSeen(uint64_t row_id);

  /// Records a newly collected tuple (delta since the last commit).
  void NoteTuple(const Tuple& tuple);

  /// Durably commits the state as of a round boundary. No-op commits
  /// (nothing changed since the last one) are skipped without touching the
  /// disk or firing on_commit. Skips (returns OK) when the state carries a
  /// fatal error — a failed crawl is not a resume point. After a failed
  /// commit the file's tail is unknown, so the next commit rewrites the log
  /// as a fresh snapshot instead of appending to it.
  Status Commit(const CrawlState& state);

  const std::string& path() const { return path_; }

  /// Commits written so far (snapshot segments count as one commit).
  uint64_t commits() const { return seq_; }

 private:
  FrontierLogWriter(std::string path, FrontierLogOptions options);

  Status WriteSnapshot(const CrawlState& state);
  Status AppendDurably(const std::string& record);

  /// Makes `text` (whole lines) the cached frontier encoding from line
  /// `first` on.
  void CacheFrontierFrom(size_t first, const std::string& text);

  std::string path_;
  FrontierLogOptions options_;
  int fd_ = -1;
  uint64_t bytes_ = 0;           // the file's size
  uint64_t snapshot_bytes_ = 0;  // the size of its snapshot segment
  uint64_t seq_ = 0;
  bool have_snapshot_ = false;
  uint64_t last_queries_ = 0;
  uint64_t last_collected_ = 0;
  /// The token the last successful commit marked its state with (see
  /// CrawlState::MarkFrontierCommitted); 0 after a failed commit.
  uint64_t last_token_ = 0;
  /// The last commit's frontier encoding, and where each line starts in it.
  std::string last_frontier_;
  std::vector<size_t> last_line_starts_;
  /// Deltas since the last commit, already in round-record form: " <id>"
  /// per newly seen row, one line per collected tuple.
  uint64_t pending_seen_ = 0;
  std::string pending_seen_ids_;
  uint64_t pending_tuples_ = 0;
  std::string pending_tuple_lines_;
  /// Scratch reused by every commit.
  std::string changed_;
  std::string record_;
};

}  // namespace hdc
