// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/delta_crawl.h"
#include "core/slice_engine.h"
#include "data/csv_reader.h"
#include "util/macros.h"
#include "util/string_escape.h"

namespace hdc {
namespace {

constexpr const char* kMagic = "hdc-crawl-state";
constexpr int kVersion = 3;

Status ErrorAtLine(uint64_t line, const std::string& message) {
  return Status::InvalidArgument("line " + std::to_string(line) + ": " +
                                 message);
}

}  // namespace

Status CheckpointReader::Next(std::string* line) {
  if (!TryNext(line)) {
    return ErrorAtLine(lines_read_ + 1,
                       "crawl-state file truncated (unexpected end of input)");
  }
  return Status::OK();
}

bool CheckpointReader::TryNext(std::string* line) {
  if (next_queued_ < queued_.size()) {
    Line& queued = queued_[next_queued_++];
    *line = std::move(queued.text);
    line_number_ = queued.number;
    return true;
  }
  if (!std::getline(*in_, *line)) return false;
  if (!line->empty() && line->back() == '\r') line->pop_back();
  line_number_ = ++lines_read_;
  return true;
}

void CheckpointReader::Requeue(std::vector<Line> lines) {
  queued_ = std::move(lines);
  next_queued_ = 0;
}

Status CheckpointReader::Error(const std::string& message) const {
  return ErrorAtLine(line_number_, message);
}

Status ExpectTagged(const std::string& line, const std::string& tag,
                    std::string* rest) {
  if (line.rfind(tag + " ", 0) != 0) {
    return Status::InvalidArgument("expected '" + tag + " ...', got '" +
                                   line + "'");
  }
  *rest = line.substr(tag.size() + 1);
  return Status::OK();
}

Status ParseUint64Token(const std::string& s, uint64_t* out) {
  uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::InvalidArgument("malformed count '" + s + "'");
  }
  *out = v;
  return Status::OK();
}

bool WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

Status WriteFileDurably(const std::string& path,
                        const std::string& contents) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::InvalidArgument("cannot open for writing: " + tmp);
  }
  if (!WriteAll(fd, contents)) {
    ::close(fd);
    return Status::Internal("write failed: " + tmp);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::Internal("fsync failed: " + tmp);
  }
  if (::close(fd) != 0) return Status::Internal("close failed: " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("rename failed: " + tmp + " -> " + path);
  }
  // Persist the rename itself: fsync the containing directory (best-effort
  // on filesystems that reject directory fds).
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

void AppendQueryTokens(const Query& q, std::string* out) {
  for (size_t i = 0; i < q.num_attributes(); ++i) {
    if (i > 0) *out += ' ';
    AppendDecimal(q.lo(i), out);
    *out += ' ';
    AppendDecimal(q.hi(i), out);
  }
}

Status DecodeQueryTokens(std::istream* in, const SchemaPtr& schema,
                         Query* out) {
  Query q = Query::FullSpace(schema);
  for (size_t i = 0; i < schema->num_attributes(); ++i) {
    Value lo, hi;
    if (!(*in >> lo >> hi)) {
      return Status::InvalidArgument("malformed query extents");
    }
    if (schema->IsCategorical(i)) {
      const Value domain = static_cast<Value>(schema->domain_size(i));
      if (lo == hi) {
        if (lo < 1 || lo > domain) {
          return Status::InvalidArgument("categorical value out of domain");
        }
        q = q.WithCategoricalEquals(i, lo);
      } else if (lo != 1 || hi != domain) {
        return Status::InvalidArgument(
            "categorical extent must be pinned or the full domain");
      }
    } else {
      if (lo > hi) return Status::InvalidArgument("extent out of order");
      q = q.WithNumericRange(i, lo, hi);
    }
  }
  *out = std::move(q);
  return Status::OK();
}

void AppendTupleTokens(const Tuple& t, std::string* out) {
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) *out += ' ';
    AppendDecimal(t[i], out);
  }
}

Status DecodeTupleTokens(std::istream* in, size_t arity, Tuple* out) {
  std::vector<Value> values(arity);
  for (auto& v : values) {
    if (!(*in >> v)) return Status::InvalidArgument("malformed tuple");
  }
  *out = Tuple(std::move(values));
  return Status::OK();
}

void AppendBagLines(const std::vector<ReturnedTuple>& bag, std::string* out) {
  for (const ReturnedTuple& rt : bag) {
    *out += "bag ";
    AppendDecimal(rt.hidden_id, out);
    *out += ' ';
    AppendTupleTokens(rt.tuple, out);
    *out += '\n';
  }
}

Status DecodeBagLines(CheckpointReader* in, uint64_t count, size_t arity,
                      std::vector<ReturnedTuple>* bag) {
  std::string line;
  for (uint64_t i = 0; i < count; ++i) {
    HDC_RETURN_IF_ERROR(in->Next(&line));
    std::istringstream tokens(line);
    std::string tag;
    ReturnedTuple rt;
    if (!(tokens >> tag >> rt.hidden_id) || tag != "bag") {
      return in->Error("malformed bag line: " + line);
    }
    if (Status s = DecodeTupleTokens(&tokens, arity, &rt.tuple); !s.ok()) {
      return in->Error(s.message());
    }
    bag->push_back(std::move(rt));
  }
  return Status::OK();
}

Status SaveCheckpoint(const CrawlState& state, const Schema& schema,
                      std::ostream* out, const SessionRecord* session) {
  if (out == nullptr) return Status::InvalidArgument("null output stream");
  if (!state.fatal.ok()) {
    return Status::FailedPrecondition(
        "refusing to checkpoint a failed crawl: " + state.fatal.ToString());
  }
  if (!(*state.extracted.schema() == schema)) {
    return Status::InvalidArgument("state does not belong to this schema");
  }

  *out << kMagic << ' ' << kVersion << '\n';
  if (session != nullptr) {
    *out << "session " << EscapeToken(session->label) << ' ';
    if (session->budget_remaining.has_value()) {
      *out << *session->budget_remaining << '\n';
    } else {
      *out << "unlimited\n";
    }
  }
  *out << "snapshot-begin\n";
  *out << "algorithm " << state.algorithm() << '\n';
  *out << "schema " << FormatSchemaSpec(schema) << '\n';
  *out << "queries " << state.queries_issued << '\n';

  *out << "seen " << state.seen_rows.size();
  for (uint64_t id : state.seen_rows) *out << ' ' << id;
  *out << '\n';

  *out << "extracted " << state.extracted.size() << '\n';
  std::string line;
  for (const Tuple& t : state.extracted.tuples()) {
    line.clear();
    AppendTupleTokens(t, &line);
    line += '\n';
    *out << line;
  }
  *out << "collected " << state.tuples_collected << '\n';

  *out << "frontier-begin\n";
  state.EncodeFrontier(out);
  *out << "frontier-end\n";
  *out << "snapshot-end\n";
  if (!*out) return Status::Internal("checkpoint write failed");
  return Status::OK();
}

Status SaveCheckpointFile(const CrawlState& state, const Schema& schema,
                          const std::string& path) {
  std::ostringstream out;
  HDC_RETURN_IF_ERROR(SaveCheckpoint(state, schema, &out));
  return WriteFileDurably(path, out.str());
}

namespace {

using Line = CheckpointReader::Line;

/// Fresh zero-progress CrawlState of the named crawler family, or an
/// InvalidArgument for an unknown algorithm.
Status MakeCrawlStateForAlgorithm(const std::string& algorithm,
                                  const SchemaPtr& schema,
                                  std::shared_ptr<CrawlState>* out) {
  if (algorithm == "slice-cover" || algorithm == "lazy-slice-cover" ||
      algorithm == "hybrid") {
    // The eager flag is restored by DecodeFrontier.
    *out = std::make_shared<SliceEngineState>(schema, algorithm,
                                              /*eager=*/false);
  } else if (algorithm == "binary-shrink" || algorithm == "rank-shrink" ||
             algorithm == "dfs") {
    *out = std::make_shared<CrawlState>(
        schema, algorithm,
        algorithm == "dfs" ? FrontierItem::Kind::kNode
                           : FrontierItem::Kind::kRank);
  } else if (algorithm == CrawlRecord::kAlgorithm) {
    *out = std::make_shared<CrawlRecord>(schema);
  } else {
    return Status::InvalidArgument("unknown algorithm '" + algorithm + "'");
  }
  return Status::OK();
}

/// Reads the next line, which must be "<tag> <rest>".
Status NextTagged(CheckpointReader* in, const std::string& tag,
                  std::string* rest) {
  std::string line;
  HDC_RETURN_IF_ERROR(in->Next(&line));
  if (Status s = ExpectTagged(line, tag, rest); !s.ok()) {
    return in->Error(s.message());
  }
  return Status::OK();
}

/// Reads the next line, which must be "<tag> <decimal count>".
Status NextCount(CheckpointReader* in, const std::string& tag,
                 uint64_t* value) {
  std::string rest;
  HDC_RETURN_IF_ERROR(NextTagged(in, tag, &rest));
  if (Status s = ParseUint64Token(rest, value); !s.ok()) {
    return in->Error(s.message());
  }
  return Status::OK();
}

/// Reads the next line, which must be exactly `expected`.
Status NextExactly(CheckpointReader* in, const std::string& expected) {
  std::string line;
  HDC_RETURN_IF_ERROR(in->Next(&line));
  if (line != expected) {
    return in->Error("expected " + expected + ", got '" + line + "'");
  }
  return Status::OK();
}

/// Parses the payload of a `seen` line, "<count> <id>...". The count is
/// checked against the ids actually present, never used to size anything.
bool ParseSeenIds(const std::string& rest, std::vector<uint64_t>* ids) {
  std::istringstream tokens(rest);
  uint64_t count = 0;
  if (!(tokens >> count)) return false;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    if (!(tokens >> id)) return false;
    ids->push_back(id);
  }
  return true;
}

Status AddTupleLine(const Line& line, Dataset* extracted) {
  std::istringstream tokens(line.text);
  Tuple t;
  if (Status s = DecodeTupleTokens(
          &tokens, extracted->schema()->num_attributes(), &t);
      !s.ok()) {
    return ErrorAtLine(line.number, s.message());
  }
  extracted->AddUnchecked(std::move(t));
  return Status::OK();
}

Status ParseSessionRecord(const CheckpointReader& in, const std::string& rest,
                          SessionRecord* out) {
  std::istringstream tokens(rest);
  std::string label, budget, extra;
  if (!(tokens >> label >> budget) || (tokens >> extra)) {
    return in.Error("malformed session record '" + rest + "'");
  }
  if (Status s = UnescapeToken(label, &out->label); !s.ok()) {
    return in.Error(s.message());
  }
  out->budget_remaining.reset();
  if (budget != "unlimited") {
    uint64_t remaining = 0;
    if (Status s = ParseUint64Token(budget, &remaining); !s.ok()) {
      return in.Error("malformed budget: " + s.message());
    }
    out->budget_remaining = remaining;
  }
  return Status::OK();
}

/// Reads the snapshot section, from the `algorithm` line through
/// `snapshot-end`, straight into a fresh state. The frontier lines stay
/// text in `frontier`, followed by their `frontier-end` line.
Status ReadSnapshot(CheckpointReader* in, SchemaPtr schema,
                    std::shared_ptr<CrawlState>* out,
                    std::vector<Line>* frontier) {
  std::string algorithm, spec, rest, line;
  HDC_RETURN_IF_ERROR(NextTagged(in, "algorithm", &algorithm));
  HDC_RETURN_IF_ERROR(NextTagged(in, "schema", &spec));
  if (spec != FormatSchemaSpec(*schema)) {
    // Not the exact schema — accept a *compatible* recorded one (same
    // attributes, kinds and categorical domains; numeric bounds may
    // differ). This is the session-resume case: a crawl checkpointed under
    // a narrowed schema_override (e.g. bounds tightened by domain
    // discovery) must be restorable when the caller only holds the
    // service's full schema. The state is rebuilt against the *recorded*
    // schema — the frontier's extents and the partial extraction only make
    // sense in the space the crawl actually ran in.
    SchemaPtr recorded;
    Status parsed = ParseSchemaSpec(spec, &recorded);
    if (!parsed.ok() || !recorded->CompatibleWith(*schema)) {
      return in->Error(
          "checkpoint was taken against an incompatible schema: " + spec);
    }
    schema = std::move(recorded);
  }
  std::shared_ptr<CrawlState> state;
  if (Status s = MakeCrawlStateForAlgorithm(algorithm, schema, &state);
      !s.ok()) {
    return in->Error(s.message());
  }

  HDC_RETURN_IF_ERROR(NextCount(in, "queries", &state->queries_issued));

  HDC_RETURN_IF_ERROR(NextTagged(in, "seen", &rest));
  std::vector<uint64_t> seen;
  if (!ParseSeenIds(rest, &seen)) {
    return in->Error("malformed seen line: fewer row ids than its count");
  }
  state->seen_rows.insert(seen.begin(), seen.end());

  uint64_t extracted_count = 0;
  HDC_RETURN_IF_ERROR(NextCount(in, "extracted", &extracted_count));
  for (uint64_t i = 0; i < extracted_count; ++i) {
    HDC_RETURN_IF_ERROR(in->Next(&line));
    HDC_RETURN_IF_ERROR(
        AddTupleLine(Line{std::move(line), in->line_number()},
                     &state->extracted));
  }
  HDC_RETURN_IF_ERROR(NextCount(in, "collected", &state->tuples_collected));

  HDC_RETURN_IF_ERROR(NextExactly(in, "frontier-begin"));
  do {
    HDC_RETURN_IF_ERROR(in->Next(&line));
    frontier->push_back(Line{line, in->line_number()});
  } while (line != "frontier-end");
  HDC_RETURN_IF_ERROR(NextExactly(in, "snapshot-end"));
  *out = std::move(state);
  return Status::OK();
}

/// One round record, staged until its commit line proves it durable.
struct Round {
  uint64_t queries = 0;
  uint64_t collected = 0;
  std::vector<uint64_t> seen;
  std::vector<Line> tuples;
  uint64_t keep = 0;
  std::vector<Line> added;
};

bool TryTagged(CheckpointReader* in, const std::string& tag,
               std::string* rest) {
  std::string line;
  return in->TryNext(&line) && ExpectTagged(line, tag, rest).ok();
}

bool TryCount(CheckpointReader* in, const std::string& tag,
              uint64_t* value) {
  std::string rest;
  return TryTagged(in, tag, &rest) && ParseUint64Token(rest, value).ok();
}

bool TryLines(CheckpointReader* in, uint64_t count, std::vector<Line>* out) {
  for (uint64_t i = 0; i < count; ++i) {
    Line line;
    if (!in->TryNext(&line.text)) return false;
    line.number = in->line_number();
    out->push_back(std::move(line));
  }
  return true;
}

/// Reads the next round record against a frontier of `frontier_size`
/// lines. False at the end of the file and on a torn tail — whatever is
/// malformed there never became durable, so it is dropped, not an error.
bool ReadRound(CheckpointReader* in, size_t frontier_size, Round* round) {
  uint64_t seq = 0, tuple_count = 0, add = 0;
  std::string rest, keep_word, add_word, line;
  if (!TryCount(in, "round", &seq) ||
      !TryCount(in, "queries", &round->queries) ||
      !TryCount(in, "collected", &round->collected) ||
      !TryTagged(in, "seen", &rest) || !ParseSeenIds(rest, &round->seen) ||
      !TryCount(in, "tuples", &tuple_count) ||
      !TryLines(in, tuple_count, &round->tuples) ||
      !TryTagged(in, "frontier", &rest)) {
    return false;
  }
  std::istringstream tokens(rest);
  if (!(tokens >> keep_word >> round->keep >> add_word >> add) ||
      keep_word != "keep" || add_word != "add" ||
      round->keep > frontier_size) {
    return false;
  }
  return TryLines(in, add, &round->added) && in->TryNext(&line) &&
         line == "commit " + std::to_string(seq);
}

}  // namespace

Status LoadCheckpoint(std::istream* in, SchemaPtr schema,
                      std::shared_ptr<CrawlState>* out,
                      SessionRecord* session) {
  if (in == nullptr || schema == nullptr || out == nullptr) {
    return Status::InvalidArgument("null argument");
  }
  CheckpointReader reader(in);
  std::string line, rest;

  HDC_RETURN_IF_ERROR(reader.Next(&line));
  {
    std::istringstream header(line);
    std::string magic;
    int version = 0;
    header >> magic >> version;
    if (magic != kMagic) return reader.Error("not an hdc crawl-state file");
    if (version != kVersion) {
      return Status::NotSupported("unsupported crawl-state version " +
                                  std::to_string(version));
    }
  }

  SessionRecord recorded;
  HDC_RETURN_IF_ERROR(reader.Next(&line));
  if (ExpectTagged(line, "session", &rest).ok()) {
    HDC_RETURN_IF_ERROR(ParseSessionRecord(reader, rest, &recorded));
    HDC_RETURN_IF_ERROR(reader.Next(&line));
  } else if (session != nullptr) {
    return reader.Error("expected 'session ...', got '" + line + "'");
  }
  if (line != "snapshot-begin") {
    return reader.Error("expected snapshot-begin, got '" + line + "'");
  }

  std::shared_ptr<CrawlState> state;
  std::vector<Line> frontier;
  HDC_RETURN_IF_ERROR(
      ReadSnapshot(&reader, std::move(schema), &state, &frontier));
  Line frontier_end = std::move(frontier.back());
  frontier.pop_back();

  Round round;
  while (ReadRound(&reader, frontier.size(), &round)) {
    state->queries_issued = round.queries;
    state->tuples_collected = round.collected;
    state->seen_rows.insert(round.seen.begin(), round.seen.end());
    for (const Line& t : round.tuples) {
      HDC_RETURN_IF_ERROR(AddTupleLine(t, &state->extracted));
    }
    frontier.resize(round.keep);
    for (Line& f : round.added) frontier.push_back(std::move(f));
    round = Round();
  }

  frontier.push_back(std::move(frontier_end));
  reader.Requeue(std::move(frontier));
  HDC_RETURN_IF_ERROR(state->DecodeFrontier(&reader));
  HDC_RETURN_IF_ERROR(state->extracted.Validate());

  if (session != nullptr) *session = std::move(recorded);
  *out = std::move(state);
  return Status::OK();
}

Status LoadCheckpointFile(const std::string& path, SchemaPtr schema,
                          std::shared_ptr<CrawlState>* out) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  return LoadCheckpoint(&in, std::move(schema), out);
}

}  // namespace hdc
