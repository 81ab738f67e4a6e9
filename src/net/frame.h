// Copyright (c) hdc authors. Apache-2.0 license.
//
// The hdc wire protocol: length-prefixed binary frames carrying the
// HiddenDbServer conversation across a process boundary.
//
// Every frame is
//
//   uint32  payload length (little-endian, excludes this 5-byte header)
//   uint8   frame type (FrameType)
//   bytes   payload
//
// and every scalar inside a payload is fixed-width little-endian (strings
// are u32 length + raw bytes). The conversation:
//
//   client                          server
//   ------                          ------
//   kHello  ------------------->            (magic, version, session opts)
//           <-------------------  kWelcome  (session id, k, parallelism,
//                                            schema)
//   kIssueBatch  -------------->            (n queries, pipelined)
//           <-------------------  kResponse  x m   (answered prefix,
//                                                   streamed in order)
//           <-------------------  kBatchEnd  (status + queue-wait signal)
//   kStatsRequest  ------------>
//           <-------------------  kStatsReply
//   kRefillBudget  ------------>
//           <-------------------  kRefillAck
//
// Responses are *streamed* member by member, so a connection dropped
// mid-batch naturally leaves the client holding a valid answered prefix —
// exactly the IssueBatch partial-failure contract (server/server.h). The
// batch-end frame carries the server's own status (OK, ResourceExhausted
// from the session budget, ...) plus the session lane's cumulative
// queue-wait total, the congestion signal latency-aware batch sizing feeds
// on (core/batch_sizer.h).
//
// Frames cap their payload at kMaxFramePayload; a length prefix beyond the
// cap, a truncated payload, or an undecodable message is a *malformed
// frame* — the receiving side closes the connection (server) or surfaces
// Status::Unavailable (client). Decoding never trusts the peer: every
// read is bounds-checked and every query/value is validated against the
// schema before it reaches an index.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/attribute.h"
#include "data/schema.h"
#include "query/query.h"
#include "server/response.h"
#include "util/status.h"

namespace hdc {
namespace net {

/// "HDC" + protocol generation; a peer speaking anything else is refused.
/// v2 piggybacks the server's monotonic db_version on the welcome and on
/// every batch-end frame (so a client-side answer cache can prove cached
/// answers fresh across reconnects) and adds an optional per-answer
/// content hash to response frames (integrity-checked at decode; the
/// cache's conditional-re-ask fingerprint).
inline constexpr uint32_t kProtocolMagic = 0x48444301;
inline constexpr uint32_t kProtocolVersion = 2;

/// Hard cap on one frame's payload. Generous: the largest legitimate frame
/// is a kResponse of k tuples (k ~ 1000, d ~ dozens => a few hundred KB).
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

enum class FrameType : uint8_t {
  kHello = 1,
  kWelcome = 2,
  kIssueBatch = 3,
  kResponse = 4,
  kBatchEnd = 5,
  kStatsRequest = 6,
  kStatsReply = 7,
  kRefillBudget = 8,
  kRefillAck = 9,
};

/// One decoded frame: type plus raw payload bytes.
struct Frame {
  FrameType type = FrameType::kHello;
  std::string payload;
};

// --- raw byte writer/reader -------------------------------------------------

/// Appends fixed-width little-endian scalars to a byte string.
class WireWriter {
 public:
  void PutU8(uint8_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  void PutDouble(double v);
  /// u32 length + raw bytes.
  void PutString(const std::string& s);

  /// Pre-sizes the buffer for an encoder that knows its payload size.
  void Reserve(size_t bytes) { data_.reserve(bytes); }

  const std::string& data() const { return data_; }
  std::string Take() { return std::move(data_); }

 private:
  std::string data_;
};

/// Bounds-checked reader over a payload. Every Get* returns false once the
/// payload is exhausted or a length is implausible; decoding then fails
/// without ever reading out of bounds. The results are [[nodiscard]]: an
/// unchecked Get* is exactly the bug class the reader exists to prevent
/// (Status returns get the same treatment from the class-level attribute
/// on Status itself).
class WireReader {
 public:
  explicit WireReader(const std::string& data) : data_(data) {}

  [[nodiscard]] bool GetU8(uint8_t* v);
  [[nodiscard]] bool GetU32(uint32_t* v);
  [[nodiscard]] bool GetU64(uint64_t* v);
  [[nodiscard]] bool GetI64(int64_t* v);
  [[nodiscard]] bool GetDouble(double* v);
  [[nodiscard]] bool GetString(std::string* s);

  /// True when every byte has been consumed — trailing garbage is malformed.
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

// --- messages ---------------------------------------------------------------

/// Client handshake: protocol identity plus the session shape it requests
/// (applied by the endpoint within its configured limits).
struct HelloMessage {
  uint32_t magic = kProtocolMagic;
  uint32_t version = kProtocolVersion;
  uint64_t max_queries = UINT64_MAX;  // kUnlimitedQueries
  uint32_t weight = 1;
  uint32_t max_lane_parallelism = 0;
  std::string label;
};

/// Server handshake reply: everything a client needs to act as a full
/// HiddenDbServer — k, evaluation parallelism, and the schema.
struct WelcomeMessage {
  uint64_t session_id = 0;
  uint64_t k = 0;
  uint32_t batch_parallelism = 1;
  /// The backend's data version at session creation (0 = frozen backend);
  /// see HiddenDbServer::db_version().
  uint64_t db_version = 0;
  std::vector<AttributeSpec> attributes;
};

/// End of one batch: the server-side status of the batch (OK or the first
/// failing member's status) plus the session's cumulative queue-wait total
/// (ServerLoadHint::queue_wait_total_seconds).
struct BatchEndMessage {
  Status::Code code = Status::Code::kOk;
  std::string message;
  double queue_wait_total_seconds = 0;
  /// The backend's data version after the batch — keeps the client's view
  /// current without a dedicated poll round trip.
  uint64_t db_version = 0;
};

/// Server-side per-session accounting, mirrored to the client on request.
struct StatsMessage {
  uint64_t queries_served = 0;
  uint64_t tuples_returned = 0;
  uint64_t overflow_count = 0;
  uint64_t budget_remaining = UINT64_MAX;
};

std::string EncodeHello(const HelloMessage& msg);
Status DecodeHello(const std::string& payload, HelloMessage* out);

std::string EncodeWelcome(const WelcomeMessage& msg);
Status DecodeWelcome(const std::string& payload, WelcomeMessage* out);

std::string EncodeBatchEnd(const BatchEndMessage& msg);
Status DecodeBatchEnd(const std::string& payload, BatchEndMessage* out);

std::string EncodeStats(const StatsMessage& msg);
Status DecodeStats(const std::string& payload, StatsMessage* out);

/// kIssueBatch payload: u32 count, then each query as 2d i64 extents in
/// schema order.
std::string EncodeQueryBatch(const std::vector<Query>& queries);
/// Validates every decoded extent against `schema`: categorical slots must
/// be the full domain or pinned to a legal value (the only forms the Query
/// type can represent), numeric slots any non-empty range — numeric bounds
/// are crawler knowledge, not a server contract (Schema::CompatibleWith),
/// so out-of-extent probes answer from the data like every in-process
/// server.
Status DecodeQueryBatch(const std::string& payload, const SchemaPtr& schema,
                        std::vector<Query>* out);

/// kResponse payload: overflow u8, hash-present u8 (+ u64 content hash
/// when set), u32 tuple count, each tuple as a u64 hidden id plus d i64
/// values. `content_hash` attaches the answer's 64-bit truncated SHA-256
/// (server/answer_cache.h HashResponse); nullptr omits it.
std::string EncodeResponse(const Response& response,
                           const uint64_t* content_hash = nullptr);
/// When the payload carries a content hash, the decoded answer is hashed
/// and verified against it — a mismatch is a malformed frame, so a
/// corrupted or tampered answer never reaches a cache. `content_hash`
/// (optional) receives the verified hash, or 0 when absent.
Status DecodeResponse(const std::string& payload, size_t arity,
                      Response* out, uint64_t* content_hash = nullptr);

/// kRefillBudget payload: u64 allotment. kRefillAck payload: status.
std::string EncodeRefill(uint64_t max_queries);
Status DecodeRefill(const std::string& payload, uint64_t* out);
std::string EncodeAck(const Status& status);
Status DecodeAck(const std::string& payload, Status* out);

/// Lossless Status <-> wire round-trip (code byte + message string).
void PutStatus(const Status& status, WireWriter* writer);
[[nodiscard]] bool GetStatus(WireReader* reader, Status* out);

/// Maps a wire code byte back to Status::Code; false when out of range.
[[nodiscard]] bool StatusCodeFromWire(uint8_t wire, Status::Code* out);

/// Rebuilds a Status from a decoded (code, message) pair.
Status MakeStatus(Status::Code code, std::string message);

}  // namespace net
}  // namespace hdc
