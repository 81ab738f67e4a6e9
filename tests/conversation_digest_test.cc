// Copyright (c) hdc authors. Apache-2.0 license.
//
// Pins the whole crawler<->server conversation of every crawler family:
// the SHA-256 of the audit-log transcript (server/decorators.h AuditLog) of
// a full crawl, at batch 1, batch 4 and auto against a 4-lane LocalServer,
// plus a batch-4 crawl interrupted every 13 queries and resumed (which
// exercises the re-push of unanswered round members). Any change to which
// rectangles a crawl asks, or in which order, or how rounds are cut, moves
// a digest. Schemas carry zero, two or three categorical attributes.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/crawl_plan.h"
#include "core/crawlers.h"
#include "gen/synthetic.h"
#include "server/decorators.h"
#include "server/local_server.h"
#include "util/sha256.h"

namespace hdc {
namespace {

Dataset Numeric(size_t d, size_t n, Value range, uint64_t seed) {
  SyntheticNumericOptions gen;
  gen.d = d;
  gen.n = n;
  gen.value_range = range;
  gen.seed = seed;
  return GenerateSyntheticNumeric(gen);
}

Dataset Categorical(std::vector<uint64_t> domains, size_t n, uint64_t seed) {
  SyntheticCategoricalOptions gen;
  gen.domain_sizes = std::move(domains);
  gen.n = n;
  gen.seed = seed;
  return GenerateSyntheticCategorical(gen);
}

Dataset Mixed(std::vector<uint64_t> domains, size_t num_numeric, size_t n,
              uint64_t seed) {
  SyntheticMixedOptions gen;
  gen.domain_sizes = std::move(domains);
  gen.num_numeric = num_numeric;
  gen.n = n;
  gen.value_range = 100;
  gen.seed = seed;
  return GenerateSyntheticMixed(gen);
}

struct DigestCase {
  std::string label;
  std::function<std::unique_ptr<Crawler>()> make_crawler;
  std::function<Dataset()> make_data;
  /// Optional pushdown predicate (pins attributes of the crawl root).
  std::optional<CrawlPredicate> predicate;
  /// Transcript digests: batch 1, batch 4, auto, batch 4 resumed.
  std::vector<std::string> digests;
};

std::unique_ptr<Crawler> EagerHybrid() {
  HybridOptions options;
  options.lazy = false;
  return std::make_unique<HybridCrawler>(options);
}

std::vector<DigestCase> Cases() {
  auto binary = [] { return std::make_unique<BinaryShrink>(); };
  auto rank = [] { return std::make_unique<RankShrink>(); };
  auto dfs = [] { return std::make_unique<DfsCrawler>(); };
  auto eager = [] { return std::make_unique<SliceCoverCrawler>(false); };
  auto lazy = [] { return std::make_unique<SliceCoverCrawler>(true); };
  auto hybrid = [] { return std::make_unique<HybridCrawler>(); };
  auto num2 = [] { return Numeric(2, 400, 128, 31); };
  auto num3 = [] { return Numeric(3, 600, 300, 32); };
  auto cat2 = [] { return Categorical({6, 5}, 500, 33); };
  auto cat3 = [] { return Categorical({5, 6, 4}, 600, 34); };
  auto mix2 = [] { return Mixed({4, 5}, 1, 700, 35); };
  auto mix3 = [] { return Mixed({3, 4, 3}, 2, 900, 36); };
  CrawlPredicate pin_second;
  pin_second.AddIn(1, {2});
  CrawlPredicate pin_first_and_range;
  pin_first_and_range.AddIn(0, {2}).AddRange(3, 10, 80);
  return {
      {"binary_shrink_num2", binary, num2, std::nullopt,
       {"75a83977b3283ec3dbcebea50f07191bd796e91b5f0c39fe444cf8839e598f9a",
        "8f7c40d5a76b84ecba46b27232005060d6542853cd9463255c7a4c5ad28ef27d",
        "8f7c40d5a76b84ecba46b27232005060d6542853cd9463255c7a4c5ad28ef27d",
        "45b8abb8c7136f983d97e6efeb67ccfcbc387fedcbe05004dff1ac8659abd1a5"}},
      {"rank_shrink_num3", rank, num3, std::nullopt,
       {"4cd46bf7bd2b1cb2f42a2f0c2725ec01dd641517b78c652857e9cd2fab2515c1",
        "fefb8a5bcede416e2d23440d8ce3bb04643b76b485536e9f0013a0bf350b6443",
        "fefb8a5bcede416e2d23440d8ce3bb04643b76b485536e9f0013a0bf350b6443",
        "0e5d235b893d6de7381786c3399f4384454b5e8a75f9efc71b21e4dea4bb11b7"}},
      {"dfs_cat2", dfs, cat2, std::nullopt,
       {"ecb510a61493b1937197cd4b27d5274d8d3ff10ea47db40e5ebd985ce5802324",
        "6f6bc27c48e5e3ebc2fe0aa8294787ee7387de2bea2d745c631983fe528353c8",
        "6f6bc27c48e5e3ebc2fe0aa8294787ee7387de2bea2d745c631983fe528353c8",
        "6f6bc27c48e5e3ebc2fe0aa8294787ee7387de2bea2d745c631983fe528353c8"}},
      {"dfs_cat3", dfs, cat3, std::nullopt,
       {"c9afc2330a25be3c251593882959b58c8aac6c610cb9bc005c4dafbe14fe6371",
        "8ddef10384375a8be9c40867cdec653b11b84d7991e7e7eb9945204a6567eeb6",
        "8ddef10384375a8be9c40867cdec653b11b84d7991e7e7eb9945204a6567eeb6",
        "8397774e7be98b52f3c59f06e7298191f2ae2f3ad420980b41d570ad78705449"}},
      {"dfs_cat3_plan", dfs, cat3, pin_second,
       {"fe25b8c563606f888732abd84d69e69cb53fb680989ea317131aff8ce141f9ec",
        "fe75e933742a363a76daff4546002dd7d6da1a4c5bb443d09ff8b6efc24136e1",
        "fe75e933742a363a76daff4546002dd7d6da1a4c5bb443d09ff8b6efc24136e1",
        "fe75e933742a363a76daff4546002dd7d6da1a4c5bb443d09ff8b6efc24136e1"}},
      {"slice_cover_cat2", eager, cat2, std::nullopt,
       {"0ad19694f7c0a8e5ad9eee73e27baec290c769c51e8ff8cb39c78c54251d12b4",
        "0ad19694f7c0a8e5ad9eee73e27baec290c769c51e8ff8cb39c78c54251d12b4",
        "0ad19694f7c0a8e5ad9eee73e27baec290c769c51e8ff8cb39c78c54251d12b4",
        "0ad19694f7c0a8e5ad9eee73e27baec290c769c51e8ff8cb39c78c54251d12b4"}},
      {"slice_cover_cat3", eager, cat3, std::nullopt,
       {"1aa8b9566e93454b9e936c4a25b068e11aa926d663c49589d73267335587de1b",
        "0a2840805e995854868354076729b3798f1cbf9448f71d27544dd4d6bb34deb1",
        "56df6686f9e4e67658cb6e5c07efe8c55065de240b37a6fa524f79a5baeae7f0",
        "2bc6ff723ae7e770efdfb681ce74436da77f937a5c52757be8e4a135e4fd36ae"}},
      {"lazy_slice_cover_cat2", lazy, cat2, std::nullopt,
       {"8789101646f0eba4645d440a239ec894499c520795dd3ed77a54881e197f52ca",
        "cd9eac3940f5b707564bc67b265cd9faa80746110e49d30d4b684e0e0d91521a",
        "d5d561583d3c6582412cbcacc56998adb1f4141e401b083c1f81cf204e5392df",
        "cd9eac3940f5b707564bc67b265cd9faa80746110e49d30d4b684e0e0d91521a"}},
      {"lazy_slice_cover_cat3", lazy, cat3, std::nullopt,
       {"f2f283bcbdb118691e61d65e5ef3ba05a7d5ae7e8c628b6327eb299fcd39bd69",
        "ee4d3124840df5a6709d7e5404b673f8c0b2aaa583b026f28e23552de9962cff",
        "5a37e5d1ce4f43210146ff03328fa7dfbc370a5184ac0c9bc2dc8638c987b92f",
        "ca4c4fe0ca4204836a13de42d0734cb3adef5266fe755b14a6925f163f1b14d1"}},
      {"lazy_slice_cover_cat3_plan", lazy, cat3, pin_second,
       {"bdfc68924195d1fb1dce4a908666c5d262dc70983262856cfba41fb35511da4e",
        "3914550b81b9b059070a5d3f70b511d867bbd63484101215c8442e33a89ca9bc",
        "bfb4f5e1adb58e30ee0af24d93bc9fb89f867c79da6451f62d7e7954ccab4ed7",
        "3914550b81b9b059070a5d3f70b511d867bbd63484101215c8442e33a89ca9bc"}},
      {"hybrid_num3", hybrid, num3, std::nullopt,
       {"4cd46bf7bd2b1cb2f42a2f0c2725ec01dd641517b78c652857e9cd2fab2515c1",
        "fefb8a5bcede416e2d23440d8ce3bb04643b76b485536e9f0013a0bf350b6443",
        "fefb8a5bcede416e2d23440d8ce3bb04643b76b485536e9f0013a0bf350b6443",
        "0e5d235b893d6de7381786c3399f4384454b5e8a75f9efc71b21e4dea4bb11b7"}},
      {"hybrid_mix2", hybrid, mix2, std::nullopt,
       {"92532a546e2e62e7596ad9e5b5814b7911967ebb02910a015ee853b4bd73b62e",
        "08f56ca592cbef730514ef621e0b4baea31900ca64eabe8b0c829f4cf5528ed8",
        "248e8c8e1640626e064b9d098423a7dc0d3ba034674958a8dcd19b956ba6f10c",
        "6ecdb7e6d7de32382b6e545c7dac8c07c6f2f73b8ca8bfa659d644a335b7163b"}},
      {"hybrid_mix3", hybrid, mix3, std::nullopt,
       {"6d4425339e1037e1fce66f3a4569a1e42051780e404e7569204d31b1bdd94417",
        "df2765d85377de175783ae03c674767d435881ae7649d4d8ef61340f6d6042af",
        "d6529c4d100d7c6954643b857a7ee4f2869443233cfd2b6e4e50c48dbe0983a1",
        "7c7e9a6a5561d2aa45c808ac9f80c68e07c0872f0e39bcd4c26f4f92e6809e14"}},
      {"hybrid_mix3_plan", hybrid, mix3, pin_first_and_range,
       {"856f7bd96f7d644b76c668a9d0b6fc9284e4cfc19d6d15ef0741bcc0a57e5b5d",
        "2131fe4ba309a710af0fda8c40b33b3be8ae6180b3d339104fb9349e490702e0",
        "7f3d91b8d20c2b0c145849bf9734137fb38e55f2a9462fb8d5b6df9ff919c2ea",
        "385d9e1a048bb80d2b431080915917eb472fb052c16039b56deb9c1b755c57a3"}},
      {"eager_hybrid_mix2", EagerHybrid, mix2, std::nullopt,
       {"e08c4c50e613a2d59beb8103f58a9eee515952fbeec54cc1cbaf0a9ccc3d2554",
        "57fe54184d3c3a8f2833d9980361f10c9be418a69b49b0d91fe7daae721824a7",
        "275f11e076412afd09b6f12591d5a1a27a97eb7c56f6679e8f5faaa301e75d52",
        "b926e07eece1692bd97a96d1a1af1e2fda78cf5ead9f74bf22926b164617fc61"}},
  };
}

struct Mode {
  std::string label;
  uint32_t batch_size;
  uint64_t budget_per_run;
};

const std::vector<Mode>& Modes() {
  static const std::vector<Mode> modes = {{"batch 1", 1, UINT64_MAX},
                                          {"batch 4", 4, UINT64_MAX},
                                          {"auto", 0, UINT64_MAX},
                                          {"batch 4 resumed", 4, 13}};
  return modes;
}

/// Crawls `test_case` to completion in `mode` against a 4-lane server and
/// returns the audit-log transcript of every run.
std::string Transcript(const DigestCase& test_case, const Mode& mode) {
  auto data = std::make_shared<Dataset>(test_case.make_data());
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());
  LocalServerOptions server_options;
  server_options.max_parallelism = 4;
  LocalServer base(data, k, nullptr, server_options);
  std::ostringstream log;
  ObservedServer logged(&base, AuditLog(&log));

  CrawlPlan plan;
  CrawlOptions options;
  options.batch_size = mode.batch_size;
  options.max_queries = mode.budget_per_run;
  if (test_case.predicate.has_value()) {
    EXPECT_TRUE(
        CompileCrawlPlan(data->schema(), *test_case.predicate, &plan).ok());
    options.plan = &plan;
  }
  auto crawler = test_case.make_crawler();
  CrawlResult result = crawler->Crawl(&logged, options);
  while (result.status.IsResourceExhausted()) {
    result = crawler->Resume(&logged, result.resume_state, options);
  }
  EXPECT_TRUE(result.status.ok())
      << test_case.label << " @ " << mode.label << ": "
      << result.status.ToString();
  EXPECT_EQ(result.queries_issued, base.queries_served());
  return log.str();
}

TEST(ConversationDigestTest, EveryFamilyKeepsItsConversation) {
  for (const DigestCase& test_case : Cases()) {
    ASSERT_EQ(test_case.digests.size(), Modes().size());
    for (size_t m = 0; m < Modes().size(); ++m) {
      const std::string transcript = Transcript(test_case, Modes()[m]);
      EXPECT_EQ(Sha256(transcript).ToHex(), test_case.digests[m])
          << test_case.label << " @ " << Modes()[m].label << " ("
          << std::count(transcript.begin(), transcript.end(), '\n')
          << " queries)";
    }
  }
}

/// True when `q` is a slice query of the crawl root `root`: `root` with one
/// categorical attribute pinned. A plan root is the slice query of every
/// attribute it pins.
bool IsSliceOf(const Query& q, const Query& root) {
  for (size_t attr : q.schema()->categorical_indices()) {
    if (q.IsPinned(attr) &&
        root.WithCategoricalEquals(attr, q.lo(attr)) == q) {
      return true;
    }
  }
  return false;
}

/// Runs `crawler` over `data` (under `plan`, when set) at `batch_size` and
/// returns the number of times each rectangle was issued beyond its first,
/// split into repeated slice queries of the crawl root and any other
/// repeats.
struct Repeats {
  size_t slices = 0;
  size_t others = 0;
};
Repeats CountRepeats(Crawler* crawler, const Dataset& data,
                     const CrawlPlan* plan, uint32_t batch_size) {
  auto shared = std::make_shared<Dataset>(data);
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());
  LocalServerOptions server_options;
  server_options.max_parallelism = 4;
  LocalServer base(shared, k, nullptr, server_options);
  const Query root =
      plan != nullptr ? plan->root() : Query::FullSpace(data.schema());
  std::unordered_set<Query, QueryHasher> issued;
  Repeats repeats;
  ObservedServer observed(&base, [&](const Query& q, const Response&) {
    if (issued.insert(q).second) return;
    ++(IsSliceOf(q, root) ? repeats.slices : repeats.others);
  });
  CrawlOptions options;
  options.batch_size = batch_size;
  options.plan = plan;
  const CrawlResult result = crawler->Crawl(&observed, options);
  EXPECT_TRUE(result.status.ok()) << crawler->name() << ": "
                                  << result.status.ToString();
  Dataset expected(data.schema());
  for (const Tuple& t : data.tuples()) {
    if (plan == nullptr || plan->Matches(t)) expected.AddUnchecked(t);
  }
  EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, expected))
      << crawler->name();
  return repeats;
}

// No crawl asks the server the same rectangle twice: every answer a family
// needs it already holds. One exception, by design: eager mode (slice-cover
// and eager hybrid) answers every slice before any node runs and remembers
// only a bit per overflowing slice, so when a fully-pinned node's own
// rectangle is a slice query — on a one-categorical schema, or under a plan
// root that pins every other categorical attribute — rank-shrink asks it
// again. Nothing else may repeat, eager or not, at any batch size. A plan
// root pinning two attributes is the slice query of both; it is asked
// once.
TEST(ConversationDigestTest, NoCrawlIssuesARectangleTwice) {
  struct Space {
    std::string label;
    Dataset data;
    std::optional<CrawlPredicate> predicate = std::nullopt;
    /// Eager repeats of slice queries (fully-pinned nodes' own rectangles
    /// that overflow), the same at every batch size.
    size_t eager_slices = 0;
  };
  CrawlPredicate two_pins;
  two_pins.AddIn(0, {2}).AddIn(1, {3});
  CrawlPredicate two_heavy_pins;  // Zipf-heavy values: the root overflows
  two_heavy_pins.AddIn(0, {1}).AddIn(1, {1});
  const std::vector<Space> spaces = {
      {"numeric (0 categorical)", Numeric(2, 400, 128, 31)},
      {"categorical {6}", Categorical({6}, 40, 41)},
      {"categorical {6, 5}", Categorical({6, 5}, 500, 33)},
      {"categorical {5, 6, 4}", Categorical({5, 6, 4}, 600, 34)},
      {"mixed {10} + 2 numeric", Mixed({10}, 2, 900, 42), std::nullopt, 10},
      {"mixed {3} + 1 numeric", Mixed({3}, 1, 400, 43), std::nullopt, 3},
      {"mixed {4, 5} + 1 numeric", Mixed({4, 5}, 1, 700, 35)},
      {"mixed {3, 4, 3} + 2 numeric", Mixed({3, 4, 3}, 2, 900, 36)},
      {"categorical {5, 6, 4}, plan C1 = 1, C2 = 1",
       Categorical({5, 6, 4}, 600, 34), two_heavy_pins},
      // The plan root pins every categorical: the one eager repeat.
      {"mixed {4, 5} + 1 numeric, plan C1 = 2, C2 = 3",
       Mixed({4, 5}, 1, 700, 35), two_pins, 1},
      {"mixed {3, 4, 3} + 2 numeric, plan C1 = 2, C2 = 3",
       Mixed({3, 4, 3}, 2, 900, 36), two_pins, 3},
  };
  std::vector<std::unique_ptr<Crawler>> crawlers;
  crawlers.push_back(std::make_unique<BinaryShrink>());
  crawlers.push_back(std::make_unique<RankShrink>());
  crawlers.push_back(std::make_unique<DfsCrawler>());
  crawlers.push_back(std::make_unique<SliceCoverCrawler>(false));
  crawlers.push_back(std::make_unique<SliceCoverCrawler>(true));
  crawlers.push_back(std::make_unique<HybridCrawler>());
  crawlers.push_back(EagerHybrid());
  for (const Space& space : spaces) {
    const Schema& schema = *space.data.schema();
    CrawlPlan plan;
    if (space.predicate.has_value()) {
      ASSERT_TRUE(
          CompileCrawlPlan(space.data.schema(), *space.predicate, &plan).ok());
    }
    for (const auto& crawler : crawlers) {
      if (!crawler->ValidateSchema(schema).ok()) continue;
      // The plan cases are the slice engine's: a plan root is the slice
      // query of every attribute it pins.
      if (space.predicate.has_value() && crawler->name() != "slice-cover" &&
          crawler->name() != "lazy-slice-cover" &&
          crawler->name() != "hybrid") {
        continue;
      }
      const bool eager =
          crawler->name() == "slice-cover" ||
          (crawler->name() == "hybrid" &&
           !static_cast<const HybridCrawler&>(*crawler).options().lazy);
      // Batch 8 plans all of a small eager pass in one round.
      for (uint32_t batch_size : {1u, 4u, 8u, 0u}) {  // 0: auto
        const Repeats repeats = CountRepeats(
            crawler.get(), space.data,
            space.predicate.has_value() ? &plan : nullptr, batch_size);
        const std::string where = crawler->name() +
                                  (eager ? " (eager)" : "") + " on " +
                                  space.label + " @ batch " +
                                  std::to_string(batch_size);
        EXPECT_EQ(repeats.others, 0u) << where;
        EXPECT_EQ(repeats.slices, eager ? space.eager_slices : size_t{0})
            << where;
      }
    }
  }
}

}  // namespace
}  // namespace hdc
