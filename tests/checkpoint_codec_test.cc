// Copyright (c) hdc authors. Apache-2.0 license.
//
// Property tests of the checkpoint token codecs: random queries and tuples
// must round-trip exactly, and malformed inputs must be rejected, never
// crash.
#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/frontier.h"

#include "util/random.h"

namespace hdc {
namespace {

SchemaPtr MixedSchema() {
  return Schema::Make({
      AttributeSpec::Categorical("C1", 7),
      AttributeSpec::NumericBounded("N1", -100, 100),
      AttributeSpec::Categorical("C2", 3),
      AttributeSpec::Numeric("N2"),
  });
}

Query RandomQuery(const SchemaPtr& schema, Rng* rng) {
  Query q = Query::FullSpace(schema);
  if (rng->Bernoulli(0.5)) {
    q = q.WithCategoricalEquals(0, rng->UniformInt(1, 7));
  }
  if (rng->Bernoulli(0.5)) {
    Value lo = rng->UniformInt(-100, 100);
    q = q.WithNumericRange(1, lo, rng->UniformInt(lo, 100));
  }
  if (rng->Bernoulli(0.5)) {
    q = q.WithCategoricalEquals(2, rng->UniformInt(1, 3));
  }
  if (rng->Bernoulli(0.5)) {
    Value lo = rng->UniformInt(-1000000, 1000000);
    q = q.WithNumericRange(3, lo, rng->UniformInt(lo, 1000000));
  }
  return q;
}

TEST(CheckpointCodecTest, QueryRoundTripProperty) {
  SchemaPtr schema = MixedSchema();
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    Query original = RandomQuery(schema, &rng);
    std::string text;
    AppendQueryTokens(original, &text);
    std::istringstream in(text);
    Query decoded = Query::FullSpace(schema);
    ASSERT_TRUE(DecodeQueryTokens(&in, schema, &decoded).ok())
        << original.ToString();
    ASSERT_EQ(decoded, original) << original.ToString();
  }
}

TEST(CheckpointCodecTest, TupleRoundTripProperty) {
  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Value> values(1 + rng.UniformU64(6));
    for (auto& v : values) v = rng.UniformInt(-1000000000, 1000000000);
    Tuple original(values);
    std::string text;
    AppendTupleTokens(original, &text);
    std::istringstream in(text);
    Tuple decoded;
    ASSERT_TRUE(DecodeTupleTokens(&in, values.size(), &decoded).ok());
    ASSERT_EQ(decoded, original);
  }
}

TEST(CheckpointCodecTest, DecodeQueryRejectsBadInput) {
  SchemaPtr schema = MixedSchema();
  Query q = Query::FullSpace(schema);

  {  // too few tokens
    std::istringstream in("1 1 0");
    EXPECT_FALSE(DecodeQueryTokens(&in, schema, &q).ok());
  }
  {  // categorical value out of domain
    std::istringstream in("9 9 0 0 1 3 0 0");
    EXPECT_FALSE(DecodeQueryTokens(&in, schema, &q).ok());
  }
  {  // categorical range that is neither pinned nor full
    std::istringstream in("2 5 0 0 1 3 0 0");
    EXPECT_FALSE(DecodeQueryTokens(&in, schema, &q).ok());
  }
  {  // numeric extent out of order
    std::istringstream in("1 1 50 -50 1 3 0 0");
    EXPECT_FALSE(DecodeQueryTokens(&in, schema, &q).ok());
  }
  {  // non-numeric garbage
    std::istringstream in("a b c d e f g h");
    EXPECT_FALSE(DecodeQueryTokens(&in, schema, &q).ok());
  }
}

TEST(CheckpointCodecTest, DecodeTupleRejectsShortInput) {
  std::istringstream in("1 2");
  Tuple t;
  EXPECT_FALSE(DecodeTupleTokens(&in, 3, &t).ok());
}

TEST(CheckpointCodecTest, ItemFrontierRejectsMissingTerminator) {
  CrawlState state(Schema::Numeric(1), "rank-shrink",
                      FrontierItem::Kind::kRank);
  std::istringstream in("item rank 0 0 5\nitem rank 0 6 9\n");
  CheckpointReader reader(&in);
  EXPECT_FALSE(state.DecodeFrontier(&reader).ok());
}

TEST(CheckpointCodecTest, ItemFrontierRoundTripsInStackOrder) {
  CrawlState state(MixedSchema(), "hybrid", FrontierItem::Kind::kRank);
  const std::string text =
      "item rank 0 1 1 -100 100 1 3 -5 5\n"
      "item rank 0 1 7 0 0 2 2 0 9\n";
  std::istringstream in(text + "frontier-end\n");
  CheckpointReader reader(&in);
  ASSERT_TRUE(state.DecodeFrontier(&reader).ok());
  ASSERT_EQ(state.frontier.size(), 2u);
  EXPECT_EQ(state.frontier[0].q.lo(0), 1);
  EXPECT_EQ(state.frontier[0].q.hi(3), 5);
  EXPECT_TRUE(state.frontier[1].q.IsPinned(2));
  std::ostringstream out;
  state.EncodeFrontier(&out);
  EXPECT_EQ(out.str(), text);
}

TEST(CheckpointCodecTest, ItemFrontierRejectsMalformedLines) {
  const SchemaPtr schema = Schema::Numeric(1);
  for (const std::string line :
       {"q 0 5", "node 0 0 5", "item 0 5", "item leaf 0 0 5",
        "item rank x 0 5", "item rank 0 5", "item rank 0 9 5"}) {
    CrawlState state(schema, "rank-shrink", FrontierItem::Kind::kRank);
    std::istringstream in(line + "\nfrontier-end\n");
    CheckpointReader reader(&in);
    const Status s = state.DecodeFrontier(&reader);
    EXPECT_TRUE(s.IsInvalidArgument()) << line << ": " << s.ToString();
    EXPECT_NE(s.message().find("line 1"), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace hdc
