// Copyright (c) hdc authors. Apache-2.0 license.
//
// Engine-equivalence differential suite: the two LocalIndex evaluation
// engines (kScan oracle, kBitmap block-compressed bitmaps) must return
// bit-identical responses and counts on every query.
// The randomized battery sweeps schema shapes, dataset sizes straddling
// the bitmap block and array/bitset cutover boundaries, k in {1, 2, n},
// narrowed session schema views, and degenerate extents.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gen/synthetic.h"
#include "server/local_server.h"
#include "util/random.h"

namespace hdc {
namespace {

constexpr IndexEngine kEngines[] = {IndexEngine::kScan, IndexEngine::kBitmap};

std::string Digest(const Response& r) {
  std::ostringstream out;
  out << (r.overflow ? "OVERFLOW" : "resolved") << ' ' << r.size();
  for (const ReturnedTuple& rt : r.tuples) {
    out << " #" << rt.hidden_id << rt.tuple.ToString();
  }
  return out.str();
}

/// One server per engine over the same dataset, k and ranking seed.
struct EnginePair {
  std::vector<std::unique_ptr<LocalServer>> servers;

  EnginePair(std::shared_ptr<const Dataset> dataset, uint64_t k,
             uint64_t policy_seed = 11) {
    for (IndexEngine engine : kEngines) {
      LocalServerOptions options;
      options.engine = engine;
      servers.push_back(std::make_unique<LocalServer>(
          dataset, k, MakeRandomPriorityPolicy(policy_seed), options));
    }
  }

  /// Issues `query` on every engine and records a test failure on any
  /// response or count divergence from the kScan oracle (a fatal one if an
  /// Issue call itself fails).
  void ExpectAgreement(const Query& query) {
    Response want;
    ASSERT_TRUE(servers[0]->Issue(query, &want).ok());
    const std::string want_digest = Digest(want);
    const uint64_t want_count = servers[0]->CountMatches(query);
    for (size_t e = 1; e < servers.size(); ++e) {
      Response got;
      ASSERT_TRUE(servers[e]->Issue(query, &got).ok());
      EXPECT_EQ(Digest(got), want_digest)
          << IndexEngineName(kEngines[e]) << " diverged on "
          << query.ToString();
      EXPECT_EQ(servers[e]->CountMatches(query), want_count)
          << IndexEngineName(kEngines[e]) << " CountMatches diverged on "
          << query.ToString();
    }
  }
};

/// Random query over `schema`: each categorical slot is pinned with
/// probability 1/2; each numeric slot gets a range that may be a point
/// (lo == hi), partially or fully out of the data's value span, or the
/// exact span boundary.
Query RandomQuery(const SchemaPtr& schema, Value value_range, Rng* rng) {
  Query q = Query::FullSpace(schema);
  for (size_t a = 0; a < schema->num_attributes(); ++a) {
    if (schema->IsCategorical(a)) {
      if (rng->Bernoulli(0.5)) {
        q = q.WithCategoricalEquals(
            a, rng->UniformInt(1, static_cast<int64_t>(schema->domain_size(a))));
      }
    } else if (rng->Bernoulli(0.7)) {
      // Bias toward narrow ranges; stray below 0 and above the span so
      // empty and clamped extents are exercised too.
      Value lo = rng->UniformInt(-5, value_range + 5);
      Value hi = rng->Bernoulli(0.15) ? lo
                                      : rng->UniformInt(lo, value_range + 5);
      q = q.WithNumericRange(a, lo, hi);
    }
  }
  return q;
}

TEST(IndexEngineTest, RandomizedDifferentialAcrossSchemas) {
  struct Config {
    std::vector<uint64_t> domains;
    size_t num_numeric;
    size_t n;
    Value value_range;
    double zipf;
    uint64_t k;
  };
  const Config configs[] = {
      {{5, 9}, 2, 3000, 50, 0.7, 16},   // the classic mixed shape
      {{3}, 0, 800, 0, 1.2, 1},         // categorical-only, k = 1
      {{}, 3, 1200, 40, 0.0, 2},        // numeric-only, k = 2, heavy ties
      {{7, 2, 4}, 1, 2500, 30, 0.9, 2500},  // k = n: nothing overflows
  };

  uint64_t seed = 1000;
  for (const Config& config : configs) {
    SyntheticMixedOptions gen;
    gen.domain_sizes = config.domains;
    gen.num_numeric = config.num_numeric;
    gen.n = config.n;
    gen.value_range = std::max<Value>(config.value_range, 1);
    gen.zipf_s = config.zipf;
    gen.seed = ++seed;
    auto data = std::make_shared<const Dataset>(GenerateSyntheticMixed(gen));

    EnginePair pair(data, config.k, /*policy_seed=*/seed);
    Rng rng(seed * 7);
    for (int trial = 0; trial < 200; ++trial) {
      pair.ExpectAgreement(
          RandomQuery(data->schema(), config.value_range, &rng));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(IndexEngineTest, ContainerCutoverStraddlingFrequencies) {
  // 70k rows span two 65536-id blocks; domain sizes are picked so the same
  // categorical value is bitset-coded in block 0 (dense) and array-coded
  // in block 1 (the 4464-row tail), exercising the mixed-container
  // intersection paths. The zipf skew additionally spreads per-value
  // frequencies across the 4096-id cutover within one block.
  SyntheticMixedOptions gen;
  gen.domain_sizes = {2, 12};
  gen.num_numeric = 1;
  gen.n = 70000;
  gen.value_range = 500;
  gen.zipf_s = 0.8;
  gen.seed = 42;
  auto data = std::make_shared<const Dataset>(GenerateSyntheticMixed(gen));

  EnginePair pair(data, /*k=*/32);
  SchemaPtr schema = data->schema();
  Rng rng(99);
  // Every (cat0, cat1) pair, with and without a numeric band.
  for (Value c0 = 1; c0 <= 2; ++c0) {
    for (Value c1 = 1; c1 <= 12; ++c1) {
      Query q = Query::FullSpace(schema)
                    .WithCategoricalEquals(0, c0)
                    .WithCategoricalEquals(1, c1);
      pair.ExpectAgreement(q);
      Value lo = rng.UniformInt(0, 499);
      pair.ExpectAgreement(q.WithNumericRange(2, lo, rng.UniformInt(lo, 499)));
      if (HasFatalFailure()) return;
    }
  }
  for (int trial = 0; trial < 100; ++trial) {
    pair.ExpectAgreement(RandomQuery(schema, 500, &rng));
    if (HasFatalFailure()) return;
  }
}

TEST(IndexEngineTest, BoundaryExtents) {
  SchemaPtr schema = Schema::Make({AttributeSpec::Categorical("C", 4),
                                   AttributeSpec::NumericBounded("X", 0, 100),
                                   AttributeSpec::NumericBounded("Y", 0, 100)});
  auto data = std::make_shared<Dataset>(schema);
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    data->Add(Tuple({rng.UniformInt(1, 4), rng.UniformInt(0, 100),
                     rng.UniformInt(0, 100)}));
  }
  auto shared = std::shared_ptr<const Dataset>(std::move(data));

  for (uint64_t k : {uint64_t{1}, uint64_t{2}, uint64_t{400}}) {
    EnginePair pair(shared, k);
    const Query full = Query::FullSpace(schema);
    pair.ExpectAgreement(full);                            // all-wildcard
    pair.ExpectAgreement(full.WithNumericRange(1, 0, 100));   // full domain
    pair.ExpectAgreement(full.WithNumericRange(1, 37, 37));   // lo == hi
    pair.ExpectAgreement(full.WithNumericRange(1, 0, 0));     // left edge
    pair.ExpectAgreement(full.WithNumericRange(1, 100, 100)); // right edge
    pair.ExpectAgreement(
        full.WithNumericRange(1, 37, 37).WithNumericRange(2, 37, 37));
    pair.ExpectAgreement(full.WithCategoricalEquals(0, 1)
                             .WithNumericRange(1, 0, 100)
                             .WithNumericRange(2, 100, 100));
    if (HasFatalFailure()) return;
  }
}

TEST(IndexEngineTest, NarrowedSessionSchemaView) {
  // A session schema override may tighten numeric bounds below the
  // dataset's. A query that is all-wildcard *relative to the narrowed
  // schema* still constrains rows of the wider dataset — every engine must
  // apply it against the server-side domain, not the query's.
  SyntheticMixedOptions gen;
  gen.domain_sizes = {4};
  gen.num_numeric = 2;
  gen.n = 5000;
  gen.value_range = 1000;
  gen.seed = 17;
  auto data = std::make_shared<const Dataset>(GenerateSyntheticMixed(gen));

  const Schema& wide = *data->schema();
  std::vector<AttributeSpec> narrowed_specs;
  for (size_t a = 0; a < wide.num_attributes(); ++a) {
    narrowed_specs.push_back(wide.attribute(a));
  }
  narrowed_specs[1].lo = 200;  // numeric attr 1 tightened to [200, 600]
  narrowed_specs[1].hi = 600;
  SchemaPtr narrowed = Schema::Make(std::move(narrowed_specs));
  ASSERT_TRUE(narrowed->CompatibleWith(wide));

  EnginePair pair(data, /*k=*/24);
  const Query narrowed_full = Query::FullSpace(narrowed);
  pair.ExpectAgreement(narrowed_full);
  pair.ExpectAgreement(narrowed_full.WithCategoricalEquals(0, 2));
  pair.ExpectAgreement(narrowed_full.WithNumericRange(2, 100, 300));
  Rng rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    Query q = Query::FullSpace(narrowed);
    if (rng.Bernoulli(0.5)) {
      q = q.WithCategoricalEquals(0, rng.UniformInt(1, 4));
    }
    if (rng.Bernoulli(0.6)) {
      Value lo = rng.UniformInt(200, 600);
      q = q.WithNumericRange(1, lo, rng.UniformInt(lo, 600));
    }
    if (rng.Bernoulli(0.6)) {
      Value lo = rng.UniformInt(0, 999);
      q = q.WithNumericRange(2, lo, rng.UniformInt(lo, 999));
    }
    pair.ExpectAgreement(q);
    if (HasFatalFailure()) return;
  }
}

TEST(IndexEngineTest, BlockLocalIdZeroSurvivesArrayIntersection) {
  // Regression guard for the vectorized sorted-array intersection: the
  // SSE4.2 kernel is an implicit-length string compare for which element
  // value 0 is a terminator, yet block-local id 0 (any row sitting exactly
  // on a 65536-id block boundary) is a legal array element. Every block
  // here places its boundary row in BOTH predicate arrays; dropping it
  // would diverge from the scan oracle. Moduli are chosen so both values
  // stay under the array/bitset cutover (65536/17 and 65536/19 ids per
  // block) and within the SIMD dispatch band (size ratio << 16).
  SchemaPtr schema = Schema::Make({AttributeSpec::Categorical("A", 20),
                                   AttributeSpec::Categorical("B", 20)});
  auto data = std::make_shared<Dataset>(schema);
  const size_t n = 70000;  // two blocks; block 1 is a short tail
  for (size_t i = 0; i < n; ++i) {
    const uint32_t local = static_cast<uint32_t>(i) & 65535u;
    const Value a =
        (local % 17 == 0) ? 1 : 2 + static_cast<Value>(local % 18);
    const Value b =
        (local % 19 == 0) ? 1 : 2 + static_cast<Value>((local * 7) % 18);
    data->AddUnchecked(Tuple{a, b});
  }
  auto shared = std::shared_ptr<const Dataset>(std::move(data));

  // k = n resolves the whole bag in id order: the digest then compares
  // every matched id, so a single dropped boundary row fails loudly.
  EnginePair resolved(shared, /*k=*/n);
  const Query full = Query::FullSpace(schema);
  const Query conj =
      full.WithCategoricalEquals(0, 1).WithCategoricalEquals(1, 1);
  resolved.ExpectAgreement(conj);
  resolved.ExpectAgreement(full.WithCategoricalEquals(0, 1));

  // Small k exercises the overflowing heap path over the same arrays.
  EnginePair heap(shared, /*k=*/8);
  heap.ExpectAgreement(conj);
  heap.ExpectAgreement(full.WithCategoricalEquals(1, 1));
}

TEST(IndexEngineTest, EmptyDataset) {
  SchemaPtr schema = Schema::Make({AttributeSpec::Categorical("C", 3),
                                   AttributeSpec::NumericBounded("X", 0, 9)});
  auto data = std::make_shared<const Dataset>(Dataset(schema));
  EnginePair pair(data, /*k=*/1);
  pair.ExpectAgreement(Query::FullSpace(schema));
  pair.ExpectAgreement(Query::FullSpace(schema)
                           .WithCategoricalEquals(0, 1)
                           .WithNumericRange(1, 4, 4));
}

TEST(IndexEngineTest, BuildStatsReportWhatWasBuilt) {
  SyntheticMixedOptions gen;
  gen.domain_sizes = {2};
  gen.num_numeric = 1;
  gen.n = 70000;  // two id blocks
  gen.value_range = 100;
  gen.seed = 3;
  auto data = std::make_shared<const Dataset>(GenerateSyntheticMixed(gen));

  LocalServer bitmap(data, 8);
  EXPECT_EQ(bitmap.index()->engine(), IndexEngine::kBitmap);
  const IndexBuildStats& stats = bitmap.index()->build_stats();
  // ~35k rows per categorical value: dense in block 0 (bitset), sparse in
  // the 4464-row tail block (array).
  EXPECT_GT(stats.bitset_containers, 0u);
  EXPECT_GT(stats.array_containers, 0u);
  EXPECT_EQ(stats.zone_map_blocks, 2u);  // 1 numeric attr x 2 blocks

  LocalServerOptions scan_options;
  scan_options.engine = IndexEngine::kScan;
  LocalServer scan(data, 8, nullptr, scan_options);
  EXPECT_EQ(scan.index()->build_stats().array_containers, 0u);
  EXPECT_EQ(scan.index()->build_stats().zone_map_blocks, 0u);
  EXPECT_STREQ(IndexEngineName(scan.index()->engine()), "scan");
}

TEST(IndexEngineTest, ScratchTrimsBackToRetentionCap) {
  EvalScratch scratch;
  scratch.ids.assign(EvalScratch::kRetainIds * 4, 0);
  ASSERT_GT(scratch.ids.capacity(), EvalScratch::kRetainIds);
  scratch.TrimAfterBatch();
  EXPECT_TRUE(scratch.ids.empty());
  EXPECT_LE(scratch.ids.capacity(), EvalScratch::kRetainIds * 2);
  // Within the cap nothing is touched: contents survive.
  scratch.ids.assign(100, 7);
  scratch.TrimAfterBatch();
  EXPECT_EQ(scratch.ids.size(), 100u);
}

}  // namespace
}  // namespace hdc
