// Copyright (c) hdc authors. Apache-2.0 license.
//
// Unit tests of the wire codec (net/frame.h): every message round-trips
// losslessly, and every malformed payload — truncation, trailing bytes,
// implausible counts, illegal query extents — is rejected with a typed
// error instead of being trusted.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "net/frame.h"
#include "server/answer_cache.h"

namespace hdc {
namespace net {
namespace {

SchemaPtr MixedSchema() {
  return Schema::Make({AttributeSpec::Categorical("Make", 5),
                       AttributeSpec::NumericBounded("Price", 0, 1000),
                       AttributeSpec::Numeric("Mileage")});
}

TEST(WireScalarTest, RoundTripsAndBoundsChecks) {
  WireWriter w;
  w.PutU8(7);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI64(-42);
  w.PutDouble(3.25);
  w.PutString("hdc");

  WireReader r(w.data());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double d;
  std::string s;
  ASSERT_TRUE(r.GetU8(&u8));
  ASSERT_TRUE(r.GetU32(&u32));
  ASSERT_TRUE(r.GetU64(&u64));
  ASSERT_TRUE(r.GetI64(&i64));
  ASSERT_TRUE(r.GetDouble(&d));
  ASSERT_TRUE(r.GetString(&s));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 7u);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(d, 3.25);
  EXPECT_EQ(s, "hdc");

  // Reading past the end fails instead of inventing bytes.
  uint64_t extra;
  EXPECT_FALSE(r.GetU64(&extra));
}

TEST(WireScalarTest, StringLengthBeyondPayloadIsRejected) {
  WireWriter w;
  w.PutU32(1000);  // claims 1000 bytes follow
  w.PutU8('x');
  WireReader r(w.data());
  std::string s;
  EXPECT_FALSE(r.GetString(&s));
}

TEST(HelloCodecTest, RoundTrip) {
  HelloMessage hello;
  hello.max_queries = 12345;
  hello.weight = 3;
  hello.max_lane_parallelism = 2;
  hello.label = "tenant-a";
  HelloMessage decoded;
  ASSERT_TRUE(DecodeHello(EncodeHello(hello), &decoded).ok());
  EXPECT_EQ(decoded.max_queries, 12345u);
  EXPECT_EQ(decoded.weight, 3u);
  EXPECT_EQ(decoded.max_lane_parallelism, 2u);
  EXPECT_EQ(decoded.label, "tenant-a");
}

TEST(HelloCodecTest, WrongMagicOrVersionRefused) {
  HelloMessage hello;
  hello.magic = 0x12345678;
  HelloMessage out;
  EXPECT_EQ(DecodeHello(EncodeHello(hello), &out).code(),
            Status::Code::kFailedPrecondition);

  hello.magic = kProtocolMagic;
  hello.version = kProtocolVersion + 1;
  EXPECT_EQ(DecodeHello(EncodeHello(hello), &out).code(),
            Status::Code::kFailedPrecondition);
}

TEST(WelcomeCodecTest, RoundTripsSchema) {
  SchemaPtr schema = MixedSchema();
  WelcomeMessage welcome;
  welcome.session_id = 9;
  welcome.k = 100;
  welcome.batch_parallelism = 4;
  welcome.db_version = 77;
  for (size_t i = 0; i < schema->num_attributes(); ++i) {
    welcome.attributes.push_back(schema->attribute(i));
  }
  WelcomeMessage decoded;
  ASSERT_TRUE(DecodeWelcome(EncodeWelcome(welcome), &decoded).ok());
  EXPECT_EQ(decoded.session_id, 9u);
  EXPECT_EQ(decoded.k, 100u);
  EXPECT_EQ(decoded.batch_parallelism, 4u);
  EXPECT_EQ(decoded.db_version, 77u);
  SchemaPtr rebuilt = Schema::Make(decoded.attributes);
  EXPECT_TRUE(*rebuilt == *schema)
      << "schema must survive the wire byte-for-byte: "
      << rebuilt->ToString();
}

TEST(WelcomeCodecTest, TruncatedPayloadRejected) {
  WelcomeMessage welcome;
  welcome.k = 10;
  welcome.batch_parallelism = 1;
  welcome.attributes.push_back(AttributeSpec::Categorical("A", 4));
  std::string wire = EncodeWelcome(welcome);
  WelcomeMessage out;
  for (size_t cut = 1; cut < wire.size(); ++cut) {
    EXPECT_FALSE(DecodeWelcome(wire.substr(0, wire.size() - cut), &out).ok())
        << "truncated by " << cut << " bytes";
  }
  EXPECT_FALSE(DecodeWelcome(wire + "x", &out).ok()) << "trailing bytes";
}

TEST(QueryBatchCodecTest, RoundTrip) {
  SchemaPtr schema = MixedSchema();
  std::vector<Query> batch;
  batch.push_back(Query::FullSpace(schema));
  batch.push_back(Query::FullSpace(schema).WithCategoricalEquals(0, 3));
  batch.push_back(Query::FullSpace(schema)
                      .WithNumericRange(1, 100, 200)
                      .WithNumericRange(2, -50, 50));
  std::vector<Query> decoded;
  ASSERT_TRUE(
      DecodeQueryBatch(EncodeQueryBatch(batch), schema, &decoded).ok());
  ASSERT_EQ(decoded.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(decoded[i] == batch[i]) << decoded[i].ToString();
  }
}

TEST(QueryBatchCodecTest, IllegalExtentsRejected) {
  SchemaPtr schema = MixedSchema();
  // Hand-craft a categorical range that is neither wildcard nor pinned:
  // [2, 4] on a domain of 5.
  WireWriter w;
  w.PutU32(1);
  w.PutI64(2);
  w.PutI64(4);  // categorical: illegal
  w.PutI64(0);
  w.PutI64(1000);
  w.PutI64(-100);
  w.PutI64(100);
  std::vector<Query> out;
  Status s = DecodeQueryBatch(w.data(), schema, &out);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();

  // Pinned value outside the domain.
  WireWriter w2;
  w2.PutU32(1);
  w2.PutI64(9);
  w2.PutI64(9);  // categorical pinned to 9, domain is 5
  w2.PutI64(0);
  w2.PutI64(1000);
  w2.PutI64(-100);
  w2.PutI64(100);
  EXPECT_FALSE(DecodeQueryBatch(w2.data(), schema, &out).ok());

  // Inverted numeric range.
  WireWriter w3;
  w3.PutU32(1);
  w3.PutI64(1);
  w3.PutI64(1);
  w3.PutI64(200);
  w3.PutI64(100);  // lo > hi
  w3.PutI64(-100);
  w3.PutI64(100);
  EXPECT_FALSE(DecodeQueryBatch(w3.data(), schema, &out).ok());

}

TEST(QueryBatchCodecTest, OutOfExtentNumericProbesAreLegal) {
  // Numeric bounds are crawler knowledge, not a server contract
  // (Schema::CompatibleWith): a probe beyond Price's declared [0, 1000]
  // must decode — in-process servers answer it (empty or not) and the
  // remote transport must converse identically.
  SchemaPtr schema = MixedSchema();
  std::vector<Query> batch;
  batch.push_back(
      Query::FullSpace(schema).WithNumericRange(1, -5000, 5000));
  std::vector<Query> decoded;
  ASSERT_TRUE(
      DecodeQueryBatch(EncodeQueryBatch(batch), schema, &decoded).ok());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_TRUE(decoded[0] == batch[0]);
}

TEST(QueryBatchCodecTest, CountBeyondPayloadRejected) {
  SchemaPtr schema = MixedSchema();
  WireWriter w;
  w.PutU32(1000000);  // claims a million queries in a tiny payload
  std::vector<Query> out;
  EXPECT_FALSE(DecodeQueryBatch(w.data(), schema, &out).ok());
}

TEST(ResponseCodecTest, RoundTrip) {
  Response response;
  response.overflow = true;
  for (uint64_t id = 0; id < 3; ++id) {
    ReturnedTuple rt;
    rt.hidden_id = 1000 + id;
    rt.tuple = Tuple{static_cast<Value>(id), 7, -9};
    response.tuples.push_back(rt);
  }
  Response decoded;
  ASSERT_TRUE(
      DecodeResponse(EncodeResponse(response), /*arity=*/3, &decoded).ok());
  EXPECT_TRUE(decoded.overflow);
  ASSERT_EQ(decoded.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded.tuples[i].hidden_id, response.tuples[i].hidden_id);
    EXPECT_EQ(decoded.tuples[i].tuple, response.tuples[i].tuple);
  }
}

TEST(ResponseCodecTest, ContentHashRoundTripsAndIsVerified) {
  Response response;
  for (uint64_t id = 0; id < 2; ++id) {
    ReturnedTuple rt;
    rt.hidden_id = id;
    rt.tuple = Tuple{static_cast<Value>(id * 3), 1, 2};
    response.tuples.push_back(rt);
  }
  const uint64_t hash = HashResponse(response);
  const std::string wire = EncodeResponse(response, &hash);

  Response decoded;
  uint64_t decoded_hash = 0;
  ASSERT_TRUE(DecodeResponse(wire, 3, &decoded, &decoded_hash).ok());
  EXPECT_EQ(decoded_hash, hash);
  ASSERT_EQ(decoded.size(), 2u);

  // The hash is also verified when the caller does not ask for it back.
  ASSERT_TRUE(DecodeResponse(wire, 3, &decoded).ok());

  // Any flipped content byte must be rejected — a corrupt frame may never
  // seed a cache with a plausible-looking answer.
  for (size_t i = 0; i < wire.size(); ++i) {
    std::string tampered = wire;
    tampered[i] ^= 0x01;
    Status s = DecodeResponse(tampered, 3, &decoded);
    EXPECT_FALSE(s.ok()) << "flipping byte " << i << " went unnoticed";
  }

  // A hash-less frame (old-style peer with hashes disabled) still decodes.
  Response plain_decoded;
  ASSERT_TRUE(
      DecodeResponse(EncodeResponse(response), 3, &plain_decoded).ok());
  EXPECT_EQ(plain_decoded.size(), 2u);
}

// The committed fuzz seed was written by an earlier build's encoder and
// hasher: decoding it re-hashes the answer with today's code, so a digest
// that drifted by one bit fails here, not just in a live crawl.
TEST(ResponseCodecTest, CommittedHashedSeedStillVerifies) {
  std::ifstream in(std::string(HDC_FRAME_CORPUS_DIR) + "/response_hashed",
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_GE(bytes.size(), 1u);
  ASSERT_EQ(bytes[0], 5) << "first byte is the fuzz harness's frame selector";
  const std::string payload = bytes.substr(1);

  Response decoded;
  uint64_t wire_hash = 0;
  // The fuzz schema: a categorical and a numeric attribute.
  ASSERT_TRUE(DecodeResponse(payload, /*arity=*/2, &decoded, &wire_hash).ok());
  EXPECT_EQ(wire_hash, HashResponse(decoded));
  EXPECT_EQ(wire_hash, 0xd61581549ab0b0d6ULL);
  EXPECT_EQ(EncodeResponse(decoded, &wire_hash), payload);
}

TEST(ResponseCodecTest, CountBeyondPayloadRejected) {
  WireWriter w;
  w.PutU8(0);
  w.PutU32(50000);
  Response out;
  EXPECT_FALSE(DecodeResponse(w.data(), 3, &out).ok());
}

TEST(BatchEndCodecTest, RoundTripsEveryStatusCode) {
  for (Status::Code code :
       {Status::Code::kOk, Status::Code::kResourceExhausted,
        Status::Code::kInternal, Status::Code::kUnavailable,
        Status::Code::kFailedPrecondition}) {
    BatchEndMessage end;
    end.code = code;
    end.message = code == Status::Code::kOk ? "" : "why it stopped";
    end.queue_wait_total_seconds = 0.125;
    end.db_version = 42;
    BatchEndMessage decoded;
    ASSERT_TRUE(DecodeBatchEnd(EncodeBatchEnd(end), &decoded).ok());
    EXPECT_EQ(decoded.code, code);
    EXPECT_EQ(decoded.message, end.message);
    EXPECT_EQ(decoded.queue_wait_total_seconds, 0.125);
    EXPECT_EQ(decoded.db_version, 42u);
  }
}

TEST(BatchEndCodecTest, UnknownStatusCodeRejected) {
  WireWriter w;
  w.PutU8(250);  // no such Status::Code
  w.PutString("?");
  w.PutDouble(0);
  BatchEndMessage out;
  EXPECT_FALSE(DecodeBatchEnd(w.data(), &out).ok());
}

TEST(StatsCodecTest, RoundTrip) {
  StatsMessage stats;
  stats.queries_served = 11;
  stats.tuples_returned = 222;
  stats.overflow_count = 3;
  stats.budget_remaining = 44;
  StatsMessage decoded;
  ASSERT_TRUE(DecodeStats(EncodeStats(stats), &decoded).ok());
  EXPECT_EQ(decoded.queries_served, 11u);
  EXPECT_EQ(decoded.tuples_returned, 222u);
  EXPECT_EQ(decoded.overflow_count, 3u);
  EXPECT_EQ(decoded.budget_remaining, 44u);
}

TEST(AckCodecTest, RoundTripsStatus) {
  Status refused = Status::FailedPrecondition("no budget to refill");
  Status decoded;
  ASSERT_TRUE(DecodeAck(EncodeAck(refused), &decoded).ok());
  EXPECT_EQ(decoded, refused);

  ASSERT_TRUE(DecodeAck(EncodeAck(Status::OK()), &decoded).ok());
  EXPECT_TRUE(decoded.ok());
}

}  // namespace
}  // namespace net
}  // namespace hdc
