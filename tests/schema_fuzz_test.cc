// Copyright (c) hdc authors. Apache-2.0 license.
//
// Randomized-schema fuzz of the flagship hybrid crawler: arbitrary
// arities, attribute-kind layouts, domain sizes, skews and duplicate
// loads — every instance must extract the exact multiset. Also exercises
// the audit-log observer on one instance.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/hybrid.h"
#include "server/decorators.h"
#include "server/local_server.h"
#include "util/random.h"

namespace hdc {
namespace {

/// Builds a random schema with 1..5 attributes of random kinds.
SchemaPtr RandomSchema(Rng* rng) {
  const size_t d = 1 + rng->UniformU64(5);
  std::vector<AttributeSpec> attrs;
  for (size_t i = 0; i < d; ++i) {
    if (rng->Bernoulli(0.5)) {
      attrs.push_back(AttributeSpec::Categorical(
          "C" + std::to_string(i), 2 + rng->UniformU64(30)));
    } else {
      const Value lo = rng->UniformInt(-500, 0);
      attrs.push_back(AttributeSpec::NumericBounded(
          "N" + std::to_string(i), lo, lo + rng->UniformInt(1, 2000)));
    }
  }
  return Schema::Make(std::move(attrs));
}

Dataset RandomData(const SchemaPtr& schema, Rng* rng) {
  const size_t n = 50 + rng->UniformU64(1500);
  Dataset data(schema);
  // Optional duplicate pool to stress point multiplicity.
  std::vector<Tuple> pool;
  const double dup_prob = rng->Bernoulli(0.5) ? 0.1 : 0.0;

  auto draw = [&]() {
    std::vector<Value> v(schema->num_attributes());
    for (size_t a = 0; a < v.size(); ++a) {
      const AttributeSpec& spec = schema->attribute(a);
      v[a] = spec.is_categorical()
                 ? rng->UniformInt(1, static_cast<Value>(spec.domain_size))
                 : rng->UniformInt(spec.lo, spec.hi);
    }
    return Tuple(std::move(v));
  };

  for (int i = 0; i < 3; ++i) pool.push_back(draw());
  for (size_t i = 0; i < n; ++i) {
    if (dup_prob > 0 && rng->Bernoulli(dup_prob)) {
      data.AddUnchecked(pool[rng->UniformU64(pool.size())]);
    } else {
      data.AddUnchecked(draw());
    }
  }
  return data;
}

class SchemaFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchemaFuzz, HybridExtractsExactlyOnRandomInstance) {
  Rng rng(GetParam() * 7919 + 13);
  SchemaPtr schema = RandomSchema(&rng);
  auto data = std::make_shared<Dataset>(RandomData(schema, &rng));
  ASSERT_TRUE(data->Validate().ok()) << schema->ToString();
  const uint64_t k = std::max<uint64_t>(1 + rng.UniformU64(64),
                                        data->MaxPointMultiplicity());

  LocalServer server(data, k, MakeRandomPriorityPolicy(GetParam()));
  HybridCrawler crawler;
  CrawlResult result = crawler.Crawl(&server);
  ASSERT_TRUE(result.status.ok())
      << schema->ToString() << " k=" << k << ": "
      << result.status.ToString();
  EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, *data))
      << schema->ToString() << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchemaFuzz, ::testing::Range<uint64_t>(0, 24),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(AuditLogTest, LogsEveryIssuedQuery) {
  SchemaPtr schema = Schema::Make({
      AttributeSpec::Categorical("C", 3),
      AttributeSpec::NumericBounded("N", 0, 50),
  });
  auto data = std::make_shared<Dataset>(schema);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    data->Add(Tuple({rng.UniformInt(1, 3), rng.UniformInt(0, 50)}));
  }
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());
  LocalServer base(data, k);
  std::ostringstream log;
  ObservedServer logged(&base, AuditLog(&log));

  HybridCrawler crawler;
  CrawlResult result = crawler.Crawl(&logged);
  ASSERT_TRUE(result.status.ok());

  // One line per query, each mentioning an outcome tag.
  size_t lines = 0, outcomes = 0;
  std::istringstream in(log.str());
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
    outcomes += line.find("resolved") != std::string::npos ||
                line.find("OVERFLOW") != std::string::npos;
  }
  EXPECT_EQ(lines, result.queries_issued);
  EXPECT_EQ(outcomes, lines);
}

}  // namespace
}  // namespace hdc
