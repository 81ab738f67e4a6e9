// Copyright (c) hdc authors. Apache-2.0 license.
//
// Engine-equivalence differential suite: the two LocalIndex evaluation
// engines (kScan oracle, kBitmap block-compressed bitmaps) must return
// bit-identical responses and counts on every query.
// The randomized battery sweeps schema shapes, dataset sizes straddling
// the bitmap block and array/bitset cutover boundaries, k in {1, 2, n},
// tie-heavy rankings, narrowed session schema views, and degenerate
// extents; a 3-block dataset pins where the rank-ordered walk stops.
#include <gtest/gtest.h>

#include <functional>
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

bool SameResponse(const Response& a, const Response& b) {
  if (a.overflow != b.overflow || a.tuples.size() != b.tuples.size()) {
    return false;
  }
  for (size_t i = 0; i < a.tuples.size(); ++i) {
    if (a.tuples[i].hidden_id != b.tuples[i].hidden_id ||
        a.tuples[i].tuple != b.tuples[i].tuple) {
      return false;
    }
  }
  return true;
}

/// Makes the ranking for one server of an EnginePair; called once per
/// engine, so every engine ranks the dataset identically.
using PolicyFactory =
    std::function<std::unique_ptr<RankingPolicy>(const Dataset&)>;

PolicyFactory RandomPolicy(uint64_t seed) {
  return [seed](const Dataset&) { return MakeRandomPriorityPolicy(seed); };
}

/// One server per engine over the same dataset, k and ranking.
struct EnginePair {
  std::vector<std::unique_ptr<LocalServer>> servers;

  EnginePair(std::shared_ptr<const Dataset> dataset, uint64_t k,
             const PolicyFactory& make_policy = RandomPolicy(11)) {
    for (IndexEngine engine : kEngines) {
      LocalServerOptions options;
      options.engine = engine;
      servers.push_back(std::make_unique<LocalServer>(
          dataset, k, make_policy(*dataset), options));
    }
  }

  /// Issues `query` on every engine and records a test failure on any
  /// response or count divergence from the kScan oracle (a fatal one if an
  /// Issue call itself fails).
  void ExpectAgreement(const Query& query) {
    Response want;
    ASSERT_TRUE(servers[0]->Issue(query, &want).ok());
    const uint64_t want_count = servers[0]->CountMatches(query);
    for (size_t e = 1; e < servers.size(); ++e) {
      Response got;
      ASSERT_TRUE(servers[e]->Issue(query, &got).ok());
      // Digests only on a mismatch: answers run to ~10^5 tuples here.
      if (!SameResponse(got, want)) {
        EXPECT_EQ(Digest(got), Digest(want))
            << IndexEngineName(kEngines[e]) << " diverged on "
            << query.ToString();
      }
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
  // Attribute 0 is a 3-value categorical wherever the shape has
  // categoricals: the by-attribute ranking below ties it massively.
  const Config configs[] = {
      {{3, 5, 9}, 2, 3000, 50, 0.7, 16},   // the classic mixed shape
      {{3}, 0, 800, 0, 1.2, 1},            // categorical-only, k = 1
      {{}, 3, 1200, 40, 0.0, 2},           // numeric-only, k = 2, heavy ties
      {{3, 7, 2, 4}, 1, 2500, 30, 0.9, 2500},  // k = n: nothing overflows
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

    // Random priorities never tie and the id-order rankings follow
    // dataset id; by-attribute-0 and all-equal tie on nearly every row,
    // so only the dataset-id tie break orders them.
    const std::pair<const char*, PolicyFactory> policies[] = {
        {"random", RandomPolicy(seed)},
        {"oldest-first",
         [](const Dataset&) { return MakeIdOrderPolicy(true); }},
        {"newest-first",
         [](const Dataset&) { return MakeIdOrderPolicy(false); }},
        {"by-attribute-0",
         [](const Dataset&) { return MakeByAttributePolicy(0, true); }},
        {"all-equal",
         [](const Dataset& d) {
           return MakeFixedPriorityPolicy(std::vector<uint64_t>(d.size(), 7));
         }},
    };
    for (const auto& [name, make_policy] : policies) {
      SCOPED_TRACE(name);
      EnginePair pair(data, config.k, make_policy);
      Rng rng(seed * 7);
      for (int trial = 0; trial < 200; ++trial) {
        pair.ExpectAgreement(
            RandomQuery(data->schema(), config.value_range, &rng));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(IndexEngineTest, EarlyStopAcrossIdBlocks) {
  // 140,000 rows fill three 65536-id blocks, so the rank-ordered walk must
  // stop in blocks after the first, on every path: fully covered blocks,
  // range-only partial blocks, bitset AND and array fold. Under the
  // oldest-first ranking internal ids equal dataset ids, so the per-query
  // k values below put match k+1 exactly on a block's last match or the
  // next block's first.
  SchemaPtr schema = Schema::Make(
      {AttributeSpec::Categorical("Dense", 2),
       AttributeSpec::Categorical("Mid", 8),
       AttributeSpec::Categorical("Sparse", 64),
       AttributeSpec::Categorical("Sparser", 32),
       AttributeSpec::NumericBounded("X", 0, 2000)});
  auto data = std::make_shared<Dataset>(schema);
  Rng rng(140);
  const size_t n = 140000;
  for (size_t i = 0; i < n; ++i) {
    data->AddUnchecked(Tuple{rng.UniformInt(1, 2), rng.UniformInt(1, 8),
                             rng.UniformInt(1, 64), rng.UniformInt(1, 32),
                             rng.UniformInt(0, 999)});
  }
  auto shared = std::shared_ptr<const Dataset>(std::move(data));

  const Query full = Query::FullSpace(schema);
  const Query queries[] = {
      full,                                  // fully covered blocks
      full.WithNumericRange(4, 0, 1500),     // zone covers every block
      full.WithNumericRange(4, 100, 899),    // range-only partial blocks
      full.WithCategoricalEquals(0, 1),      // one bitset
      full.WithCategoricalEquals(0, 1).WithCategoricalEquals(1, 3),  // AND
      full.WithCategoricalEquals(0, 2).WithNumericRange(4, 0, 499),
      full.WithCategoricalEquals(2, 5),      // one array
      full.WithCategoricalEquals(2, 5).WithCategoricalEquals(3, 9),  // fold
      full.WithCategoricalEquals(2, 7).WithCategoricalEquals(1, 2),
  };
  const PolicyFactory oldest_first = [](const Dataset&) {
    return MakeIdOrderPolicy(true);
  };
  // The full-space query overflows on the last row of block 0 and on the
  // first row of block 1; every other query stops mid-block.
  for (const PolicyFactory& make_policy : {oldest_first, RandomPolicy(11)}) {
    for (uint64_t k : {uint64_t{65535}, uint64_t{65536}}) {
      EnginePair pair(shared, k, make_policy);
      for (const Query& q : queries) pair.ExpectAgreement(q);
      if (HasFatalFailure()) return;
    }
  }
  // Per query, match k+1 on the last match of block 0 or 1, or on the
  // first match of block 1 or 2.
  for (const Query& q : queries) {
    uint64_t before[2] = {0, 0};  // matches in blocks 0 and 0-1
    for (size_t i = 0; i < size_t{2} << 16; ++i) {
      if (q.Matches(shared->tuple(i))) ++before[i >> 16];
    }
    before[1] += before[0];
    for (uint64_t k : {before[0] - 1, before[0], before[1] - 1, before[1]}) {
      EnginePair pair(shared, k, oldest_first);
      pair.ExpectAgreement(q);
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

  // Small k exercises the overflowing top-k path over the same arrays.
  EnginePair topk(shared, /*k=*/8);
  topk.ExpectAgreement(conj);
  topk.ExpectAgreement(full.WithCategoricalEquals(1, 1));
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
