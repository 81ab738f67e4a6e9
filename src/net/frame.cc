// Copyright (c) hdc authors. Apache-2.0 license.
#include "net/frame.h"

#include <cstring>

#include "server/answer_cache.h"

namespace hdc {
namespace net {

// --- WireWriter -------------------------------------------------------------

void WireWriter::PutU8(uint8_t v) {
  data_.push_back(static_cast<char>(v));
}

void WireWriter::PutU32(uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    data_.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void WireWriter::PutU64(uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    data_.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void WireWriter::PutI64(int64_t v) {
  PutU64(static_cast<uint64_t>(v));
}

void WireWriter::PutDouble(double v) {
  static_assert(sizeof(double) == sizeof(uint64_t), "IEEE-754 assumed");
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void WireWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  data_.append(s);
}

// --- WireReader -------------------------------------------------------------

bool WireReader::GetU8(uint8_t* v) {
  if (data_.size() - pos_ < 1) return false;
  *v = static_cast<uint8_t>(data_[pos_++]);
  return true;
}

bool WireReader::GetU32(uint32_t* v) {
  if (data_.size() - pos_ < 4) return false;
  uint32_t out = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++]))
           << shift;
  }
  *v = out;
  return true;
}

bool WireReader::GetU64(uint64_t* v) {
  if (data_.size() - pos_ < 8) return false;
  uint64_t out = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++]))
           << shift;
  }
  *v = out;
  return true;
}

bool WireReader::GetI64(int64_t* v) {
  uint64_t bits;
  if (!GetU64(&bits)) return false;
  *v = static_cast<int64_t>(bits);
  return true;
}

bool WireReader::GetDouble(double* v) {
  uint64_t bits;
  if (!GetU64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(bits));
  return true;
}

bool WireReader::GetString(std::string* s) {
  uint32_t len;
  if (!GetU32(&len)) return false;
  if (data_.size() - pos_ < len) return false;
  s->assign(data_, pos_, len);
  pos_ += len;
  return true;
}

// --- Status on the wire -----------------------------------------------------

bool StatusCodeFromWire(uint8_t wire, Status::Code* out) {
  switch (static_cast<Status::Code>(wire)) {
    case Status::Code::kOk:
    case Status::Code::kInvalidArgument:
    case Status::Code::kNotSupported:
    case Status::Code::kFailedPrecondition:
    case Status::Code::kResourceExhausted:
    case Status::Code::kUnsolvable:
    case Status::Code::kNotFound:
    case Status::Code::kInternal:
    case Status::Code::kUnavailable:
      *out = static_cast<Status::Code>(wire);
      return true;
  }
  return false;
}

Status MakeStatus(Status::Code code, std::string message) {
  switch (code) {
    case Status::Code::kOk:
      return Status::OK();
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case Status::Code::kNotSupported:
      return Status::NotSupported(std::move(message));
    case Status::Code::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(message));
    case Status::Code::kResourceExhausted:
      return Status::ResourceExhausted(std::move(message));
    case Status::Code::kUnsolvable:
      return Status::Unsolvable(std::move(message));
    case Status::Code::kNotFound:
      return Status::NotFound(std::move(message));
    case Status::Code::kInternal:
      return Status::Internal(std::move(message));
    case Status::Code::kUnavailable:
      return Status::Unavailable(std::move(message));
  }
  return Status::Internal("unknown status code on the wire");
}

namespace {

Status Malformed(const char* what) {
  return Status::Unavailable(std::string("malformed frame: ") + what);
}

}  // namespace

void PutStatus(const Status& status, WireWriter* writer) {
  writer->PutU8(static_cast<uint8_t>(status.code()));
  writer->PutString(status.message());
}

bool GetStatus(WireReader* reader, Status* out) {
  uint8_t wire;
  std::string message;
  Status::Code code;
  if (!reader->GetU8(&wire) || !reader->GetString(&message) ||
      !StatusCodeFromWire(wire, &code)) {
    return false;
  }
  *out = MakeStatus(code, std::move(message));
  return true;
}

// --- handshake --------------------------------------------------------------

std::string EncodeHello(const HelloMessage& msg) {
  WireWriter w;
  w.PutU32(msg.magic);
  w.PutU32(msg.version);
  w.PutU64(msg.max_queries);
  w.PutU32(msg.weight);
  w.PutU32(msg.max_lane_parallelism);
  w.PutString(msg.label);
  return w.Take();
}

Status DecodeHello(const std::string& payload, HelloMessage* out) {
  WireReader r(payload);
  if (!r.GetU32(&out->magic) || !r.GetU32(&out->version) ||
      !r.GetU64(&out->max_queries) || !r.GetU32(&out->weight) ||
      !r.GetU32(&out->max_lane_parallelism) || !r.GetString(&out->label) ||
      !r.AtEnd()) {
    return Malformed("hello");
  }
  if (out->magic != kProtocolMagic) {
    return Status::FailedPrecondition("peer is not speaking hdc wire");
  }
  if (out->version != kProtocolVersion) {
    return Status::FailedPrecondition("unsupported protocol version");
  }
  if (out->weight < 1) {
    return Malformed("hello: weight must be >= 1");
  }
  return Status::OK();
}

std::string EncodeWelcome(const WelcomeMessage& msg) {
  WireWriter w;
  w.PutU64(msg.session_id);
  w.PutU64(msg.k);
  w.PutU32(msg.batch_parallelism);
  w.PutU64(msg.db_version);
  w.PutU32(static_cast<uint32_t>(msg.attributes.size()));
  for (const AttributeSpec& attr : msg.attributes) {
    w.PutU8(attr.is_categorical() ? 1 : 0);
    w.PutU64(attr.domain_size);
    w.PutI64(attr.lo);
    w.PutI64(attr.hi);
    w.PutString(attr.name);
  }
  return w.Take();
}

Status DecodeWelcome(const std::string& payload, WelcomeMessage* out) {
  WireReader r(payload);
  uint32_t num_attrs;
  if (!r.GetU64(&out->session_id) || !r.GetU64(&out->k) ||
      !r.GetU32(&out->batch_parallelism) || !r.GetU64(&out->db_version) ||
      !r.GetU32(&num_attrs)) {
    return Malformed("welcome");
  }
  if (out->k == 0 || out->batch_parallelism == 0 || num_attrs == 0 ||
      num_attrs > 4096) {
    return Malformed("welcome: implausible server parameters");
  }
  out->attributes.clear();
  out->attributes.reserve(num_attrs);
  for (uint32_t i = 0; i < num_attrs; ++i) {
    uint8_t categorical;
    AttributeSpec attr;
    if (!r.GetU8(&categorical) || !r.GetU64(&attr.domain_size) ||
        !r.GetI64(&attr.lo) || !r.GetI64(&attr.hi) ||
        !r.GetString(&attr.name)) {
      return Malformed("welcome attribute");
    }
    attr.kind =
        categorical != 0 ? AttributeKind::kCategorical : AttributeKind::kNumeric;
    if (attr.is_categorical() && attr.domain_size == 0) {
      return Malformed("welcome: empty categorical domain");
    }
    if (attr.is_numeric() && attr.lo > attr.hi) {
      return Malformed("welcome: inverted numeric bounds");
    }
    out->attributes.push_back(std::move(attr));
  }
  if (!r.AtEnd()) return Malformed("welcome: trailing bytes");
  return Status::OK();
}

// --- batches ----------------------------------------------------------------

std::string EncodeQueryBatch(const std::vector<Query>& queries) {
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(queries.size()));
  for (const Query& q : queries) {
    for (size_t i = 0; i < q.num_attributes(); ++i) {
      w.PutI64(q.lo(i));
      w.PutI64(q.hi(i));
    }
  }
  return w.Take();
}

Status DecodeQueryBatch(const std::string& payload, const SchemaPtr& schema,
                        std::vector<Query>* out) {
  WireReader r(payload);
  uint32_t count;
  if (!r.GetU32(&count)) return Malformed("batch header");
  const size_t d = schema->num_attributes();
  // 16 bytes per extent: reject a count the payload cannot possibly hold
  // before reserving anything.
  if (payload.size() < 4 + static_cast<size_t>(count) * d * 16) {
    return Malformed("batch: count exceeds payload");
  }
  out->clear();
  out->reserve(count);
  for (uint32_t n = 0; n < count; ++n) {
    Query q = Query::FullSpace(schema);
    for (size_t i = 0; i < d; ++i) {
      int64_t lo, hi;
      if (!r.GetI64(&lo) || !r.GetI64(&hi)) return Malformed("query extent");
      if (schema->IsCategorical(i)) {
        const Value domain = static_cast<Value>(schema->domain_size(i));
        if (lo == 1 && hi == domain) continue;  // wildcard
        if (lo != hi || lo < 1 || lo > domain) {
          return Malformed("query: categorical slot neither wildcard "
                           "nor a legal pinned value");
        }
        q = q.WithCategoricalEquals(i, lo);
      } else {
        if (lo > hi) return Malformed("query: empty numeric range");
        // Any non-empty range is legal: numeric bounds are crawler
        // knowledge, not a server contract (Schema::CompatibleWith) — a
        // probe outside the declared extent answers from the actual data,
        // exactly as the in-process servers do (the reference LocalServer
        // conversation in the conformance suite includes such probes).
        q = q.WithNumericRange(i, lo, hi);
      }
    }
    out->push_back(std::move(q));
  }
  if (!r.AtEnd()) return Malformed("batch: trailing bytes");
  return Status::OK();
}

std::string EncodeResponse(const Response& response,
                           const uint64_t* content_hash) {
  size_t bytes = 1 + 1 + (content_hash != nullptr ? 8 : 0) + 4;
  for (const ReturnedTuple& rt : response.tuples) {
    bytes += 8 + 8 * rt.tuple.size();
  }
  WireWriter w;
  w.Reserve(bytes);
  w.PutU8(response.overflow ? 1 : 0);
  w.PutU8(content_hash != nullptr ? 1 : 0);
  if (content_hash != nullptr) w.PutU64(*content_hash);
  w.PutU32(static_cast<uint32_t>(response.tuples.size()));
  for (const ReturnedTuple& rt : response.tuples) {
    w.PutU64(rt.hidden_id);
    for (Value v : rt.tuple.values()) w.PutI64(v);
  }
  return w.Take();
}

Status DecodeResponse(const std::string& payload, size_t arity,
                      Response* out, uint64_t* content_hash) {
  WireReader r(payload);
  uint8_t overflow;
  uint8_t has_hash;
  uint64_t wire_hash = 0;
  uint32_t count;
  if (!r.GetU8(&overflow) || !r.GetU8(&has_hash) || has_hash > 1 ||
      (has_hash != 0 && !r.GetU64(&wire_hash)) || !r.GetU32(&count)) {
    return Malformed("response header");
  }
  if (payload.size() < 6 + static_cast<size_t>(count) * (8 + arity * 8)) {
    return Malformed("response: count exceeds payload");
  }
  out->overflow = overflow != 0;
  out->tuples.clear();
  out->tuples.reserve(count);
  for (uint32_t n = 0; n < count; ++n) {
    ReturnedTuple rt;
    if (!r.GetU64(&rt.hidden_id)) return Malformed("tuple id");
    std::vector<Value> values(arity);
    for (size_t i = 0; i < arity; ++i) {
      if (!r.GetI64(&values[i])) return Malformed("tuple value");
    }
    rt.tuple = Tuple(std::move(values));
    out->tuples.push_back(std::move(rt));
  }
  if (!r.AtEnd()) return Malformed("response: trailing bytes");
  if (has_hash != 0 && HashResponse(*out) != wire_hash) {
    // A hash the decoded answer does not reproduce means the frame was
    // corrupted or tampered with in flight; it must never seed a cache.
    return Malformed("response: content hash mismatch");
  }
  if (content_hash != nullptr) *content_hash = wire_hash;
  return Status::OK();
}

std::string EncodeBatchEnd(const BatchEndMessage& msg) {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(msg.code));
  w.PutString(msg.message);
  w.PutDouble(msg.queue_wait_total_seconds);
  w.PutU64(msg.db_version);
  return w.Take();
}

Status DecodeBatchEnd(const std::string& payload, BatchEndMessage* out) {
  WireReader r(payload);
  uint8_t wire;
  if (!r.GetU8(&wire) || !r.GetString(&out->message) ||
      !r.GetDouble(&out->queue_wait_total_seconds) ||
      !r.GetU64(&out->db_version) || !r.AtEnd() ||
      !StatusCodeFromWire(wire, &out->code)) {
    return Malformed("batch end");
  }
  return Status::OK();
}

// --- stats / budget ---------------------------------------------------------

std::string EncodeStats(const StatsMessage& msg) {
  WireWriter w;
  w.PutU64(msg.queries_served);
  w.PutU64(msg.tuples_returned);
  w.PutU64(msg.overflow_count);
  w.PutU64(msg.budget_remaining);
  return w.Take();
}

Status DecodeStats(const std::string& payload, StatsMessage* out) {
  WireReader r(payload);
  if (!r.GetU64(&out->queries_served) || !r.GetU64(&out->tuples_returned) ||
      !r.GetU64(&out->overflow_count) || !r.GetU64(&out->budget_remaining) ||
      !r.AtEnd()) {
    return Malformed("stats");
  }
  return Status::OK();
}

std::string EncodeRefill(uint64_t max_queries) {
  WireWriter w;
  w.PutU64(max_queries);
  return w.Take();
}

Status DecodeRefill(const std::string& payload, uint64_t* out) {
  WireReader r(payload);
  if (!r.GetU64(out) || !r.AtEnd()) return Malformed("refill");
  return Status::OK();
}

std::string EncodeAck(const Status& status) {
  WireWriter w;
  PutStatus(status, &w);
  return w.Take();
}

Status DecodeAck(const std::string& payload, Status* out) {
  WireReader r(payload);
  if (!GetStatus(&r, out) || !r.AtEnd()) return Malformed("ack");
  return Status::OK();
}

}  // namespace net
}  // namespace hdc
