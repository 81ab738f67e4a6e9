// Copyright (c) hdc authors. Apache-2.0 license.
//
// The sharded scatter-gather backend (server/sharding.h) against the
// single-index reference:
//
//  - the partitioner's invariants (disjoint cover, preserved global order,
//    shared global ranking);
//  - response-level byte equality: every query answers identically through
//    N shards and through one LocalServer, overflow flag, tuple order and
//    hidden ids included;
//  - full-crawl equality: all six crawlers extract the same bag with the
//    same query count over N = 1, 2, 4 shards as over the unsharded stack;
//  - merged-overflow edge cases at the k boundary: ties across shards,
//    empty shards, one shard at its own cap, |q(D)| = k vs k + 1;
//  - partial failure: one shard dying mid-round leaves a valid merged
//    answered prefix and a typed status, and the suffix and later rounds
//    complete after recovery;
//  - the scatter pool: shards run concurrently within a round, on the same
//    kernel threads across rounds, and inline for a single shard.
#include "server/sharding.h"

#include <gtest/gtest.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/crawlers.h"
#include "gen/synthetic.h"
#include "server/decorators.h"
#include "server/local_server.h"
#include "util/clock.h"
#include "util/thread_annotations.h"

namespace hdc {
namespace {

/// Answers must match byte for byte: flag, order, ids, values.
void ExpectSameResponse(const Response& got, const Response& want,
                        const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.overflow, want.overflow);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.tuples[i].hidden_id, want.tuples[i].hidden_id);
    EXPECT_EQ(got.tuples[i].tuple, want.tuples[i].tuple);
  }
}

std::shared_ptr<const Dataset> MixedData(uint64_t seed, size_t n = 400) {
  SyntheticMixedOptions gen;
  gen.domain_sizes = {4, 6};
  gen.num_numeric = 1;
  gen.n = n;
  gen.value_range = 100;
  gen.seed = seed;
  return std::make_shared<const Dataset>(GenerateSyntheticMixed(gen));
}

// --- partitioner invariants -------------------------------------------------

TEST(ShardPlanTest, ShardsAreADisjointOrderPreservingCover) {
  auto data = MixedData(91);
  for (ShardSplit split : {ShardSplit::kHash, ShardSplit::kRange}) {
    ShardPlanOptions options;
    options.num_shards = 4;
    options.split = split;
    ShardPlan plan = ShardPlan::Partition(data, /*k=*/8, nullptr, options);
    ASSERT_EQ(plan.num_shards(), 4u);

    std::vector<bool> covered(data->size(), false);
    size_t total = 0;
    for (size_t s = 0; s < plan.num_shards(); ++s) {
      const auto& gids = plan.shard_global_ids(s);
      const auto& shard_data = *plan.shard_dataset(s);
      ASSERT_EQ(gids.size(), shard_data.size());
      total += gids.size();
      for (size_t i = 0; i < gids.size(); ++i) {
        // Disjoint: no global id dealt twice.
        ASSERT_LT(gids[i], data->size());
        EXPECT_FALSE(covered[gids[i]]) << "row dealt to two shards";
        covered[gids[i]] = true;
        // Order-preserving: local id order is global id order.
        if (i > 0) {
          EXPECT_LT(gids[i - 1], gids[i]);
        }
        // The shard row is the global row.
        EXPECT_EQ(shard_data.tuple(i), data->tuple(gids[i]));
        // The shard's priority slice is the global table's.
        EXPECT_EQ(plan.shard_priorities(s)[i],
                  plan.global_priorities()[gids[i]]);
      }
    }
    EXPECT_EQ(total, data->size()) << "cover: every row in some shard";
  }
}

TEST(ShardPlanTest, HashSplitIsReasonablyBalanced) {
  auto data = MixedData(92, /*n=*/1000);
  ShardPlanOptions options;
  options.num_shards = 4;
  ShardPlan plan = ShardPlan::Partition(data, 8, nullptr, options);
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    const size_t size = plan.shard_dataset(s)->size();
    EXPECT_GT(size, 150u);
    EXPECT_LT(size, 350u);
  }
}

// --- response-level equality ------------------------------------------------

TEST(ShardedServerTest, EveryProbeMatchesSingleIndexByteForByte) {
  auto data = MixedData(93);
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());
  LocalServer reference(data, k);

  // A probe mix crossing resolved and overflowing territory: full space,
  // single slices, pairs, and point-ish queries.
  std::vector<Query> probes;
  probes.push_back(Query::FullSpace(data->schema()));
  for (Value a = 1; a <= 4; ++a) {
    probes.push_back(
        Query::FullSpace(data->schema()).WithCategoricalEquals(0, a));
    for (Value b = 1; b <= 6; ++b) {
      probes.push_back(Query::FullSpace(data->schema())
                           .WithCategoricalEquals(0, a)
                           .WithCategoricalEquals(1, b));
    }
  }

  for (ShardSplit split : {ShardSplit::kHash, ShardSplit::kRange}) {
    for (unsigned num_shards : {1u, 2u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(num_shards) +
                   (split == ShardSplit::kHash ? " hash" : " range"));
      ShardPlanOptions options;
      options.num_shards = num_shards;
      options.split = split;
      ShardPlan plan = ShardPlan::Partition(data, k, nullptr, options);
      auto sharded = ShardedServer::OverPlan(plan);
      ASSERT_EQ(sharded->k(), k);

      for (size_t i = 0; i < probes.size(); ++i) {
        Response want, got;
        ASSERT_TRUE(reference.Issue(probes[i], &want).ok());
        ASSERT_TRUE(sharded->Issue(probes[i], &got).ok());
        ExpectSameResponse(got, want, "probe " + std::to_string(i));
      }
      EXPECT_EQ(sharded->queries_answered(), probes.size());
    }
  }
}

// --- full crawls: all six crawlers, N = 1 / 2 / 4 ---------------------------

struct CrawlCase {
  std::string label;
  std::function<std::unique_ptr<Crawler>()> make_crawler;
  std::function<Dataset()> make_data;
};

std::vector<CrawlCase> MakeCrawlCases() {
  std::vector<CrawlCase> cases;
  cases.push_back(
      {"rank_shrink", [] { return std::make_unique<RankShrink>(); },
       [] {
         SyntheticNumericOptions gen;
         gen.d = 2;
         gen.n = 400;
         gen.value_range = 250;
         gen.seed = 61;
         return GenerateSyntheticNumeric(gen);
       }});
  cases.push_back(
      {"binary_shrink", [] { return std::make_unique<BinaryShrink>(); },
       [] {
         SyntheticNumericOptions gen;
         gen.d = 2;
         gen.n = 250;
         gen.value_range = 128;
         gen.seed = 62;
         return GenerateSyntheticNumeric(gen);
       }});
  cases.push_back(
      {"dfs", [] { return std::make_unique<DfsCrawler>(); },
       [] {
         SyntheticCategoricalOptions gen;
         gen.domain_sizes = {5, 5, 4};
         gen.n = 400;
         gen.seed = 63;
         return GenerateSyntheticCategorical(gen);
       }});
  cases.push_back(
      {"slice_cover",
       [] { return std::make_unique<SliceCoverCrawler>(false); },
       [] {
         SyntheticCategoricalOptions gen;
         gen.domain_sizes = {5, 5, 4};
         gen.n = 400;
         gen.seed = 64;
         return GenerateSyntheticCategorical(gen);
       }});
  cases.push_back(
      {"lazy_slice_cover",
       [] { return std::make_unique<SliceCoverCrawler>(true); },
       [] {
         SyntheticCategoricalOptions gen;
         gen.domain_sizes = {5, 5, 4};
         gen.n = 400;
         gen.seed = 65;
         return GenerateSyntheticCategorical(gen);
       }});
  cases.push_back(
      {"hybrid", [] { return std::make_unique<HybridCrawler>(); },
       [] {
         SyntheticMixedOptions gen;
         gen.domain_sizes = {4, 5};
         gen.num_numeric = 1;
         gen.n = 400;
         gen.value_range = 100;
         gen.seed = 66;
         return GenerateSyntheticMixed(gen);
       }});
  return cases;
}

TEST(ShardedEquivalenceTest, AllSixCrawlersMatchSingleIndexAtEveryWidth) {
  for (const CrawlCase& test_case : MakeCrawlCases()) {
    SCOPED_TRACE(test_case.label);
    auto data = std::make_shared<const Dataset>(test_case.make_data());
    const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());

    LocalServer local(data, k);
    auto truth_crawler = test_case.make_crawler();
    CrawlResult truth = truth_crawler->Crawl(&local);
    ASSERT_TRUE(truth.status.ok()) << truth.status.ToString();
    ASSERT_TRUE(Dataset::MultisetEquals(truth.extracted, *data));

    for (unsigned num_shards : {1u, 2u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(num_shards));
      ShardPlanOptions options;
      options.num_shards = num_shards;
      ShardPlan plan = ShardPlan::Partition(data, k, nullptr, options);
      auto sharded = ShardedServer::OverPlan(plan);

      auto crawler = test_case.make_crawler();
      CrawlResult result = crawler->Crawl(sharded.get());
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, truth.extracted))
          << "sharded extraction differs from single-index";
      EXPECT_EQ(result.queries_issued, truth.queries_issued)
          << "sharding must not change the paper's cost metric";
      EXPECT_EQ(result.rows_seen, truth.rows_seen);
      EXPECT_EQ(sharded->queries_answered(), truth.queries_issued);
    }
  }
}

// --- merged-overflow edges at the k boundary --------------------------------

/// A dataset of `n` one-attribute rows, all matching the full-space query,
/// with explicit priorities — the microscope for merge-cut decisions.
struct Rig {
  std::shared_ptr<const Dataset> data;
  ShardPlan plan;
  std::unique_ptr<ShardedServer> sharded;
  std::unique_ptr<LocalServer> reference;

  Rig(size_t n, uint64_t k, std::vector<uint64_t> priorities,
      unsigned num_shards, ShardSplit split = ShardSplit::kRange) {
    SchemaPtr schema = Schema::Categorical({2});
    auto building = std::make_shared<Dataset>(schema);
    for (size_t i = 0; i < n; ++i) building->Add(Tuple({1}));
    data = building;
    ShardPlanOptions options;
    options.num_shards = num_shards;
    options.split = split;
    plan = ShardPlan::Partition(data, k, MakeFixedPriorityPolicy(priorities),
                                options);
    sharded = ShardedServer::OverPlan(plan);
    reference = std::make_unique<LocalServer>(
        data, k, MakeFixedPriorityPolicy(std::move(priorities)));
  }

  void ExpectMatchesReference(const std::string& what) {
    Query q = Query::FullSpace(data->schema());
    Response want, got;
    ASSERT_TRUE(reference->Issue(q, &want).ok());
    ASSERT_TRUE(sharded->Issue(q, &got).ok());
    ExpectSameResponse(got, want, what);
  }
};

TEST(ShardedOverflowTest, TiesAtTheKBoundaryBreakByGlobalIdAcrossShards) {
  // Nine rows, all the same priority, k = 4: the cut keeps the four
  // lowest global ids — which straddle both shards under a range split
  // and interleave under any split. Identical through one index.
  Rig rig(/*n=*/9, /*k=*/4, std::vector<uint64_t>(9, 7), /*num_shards=*/3);
  rig.ExpectMatchesReference("all-tied overflow at k");
  EXPECT_EQ(rig.sharded->merged_overflows(), 1u);
}

TEST(ShardedOverflowTest, ExactlyKAcrossShardsStaysResolved) {
  // |q(D)| == k spread over 4 shards: no shard overflows, the sum equals
  // k — the merged answer must be *resolved* with the whole bag in global
  // id order.
  Rig rig(/*n=*/6, /*k=*/6, {5, 3, 9, 1, 7, 2}, /*num_shards=*/4);
  Query q = Query::FullSpace(rig.data->schema());
  Response got;
  ASSERT_TRUE(rig.sharded->Issue(q, &got).ok());
  EXPECT_FALSE(got.overflow);
  EXPECT_EQ(got.size(), 6u);
  rig.ExpectMatchesReference("sum == k resolved");
  EXPECT_EQ(rig.sharded->merged_overflows(), 0u);
}

TEST(ShardedOverflowTest, KPlusOneAcrossShardsOverflowsWithoutShardOverflow) {
  // |q(D)| == k + 1 over 4 shards of at most 2 rows each, k = 6: every
  // shard resolves (2 <= 6), yet the merged answer must overflow and cut
  // to the top 6 by priority. The candidates-sum rule, not any shard
  // flag, makes this call.
  Rig rig(/*n=*/7, /*k=*/6, {10, 20, 30, 40, 50, 60, 70}, /*num_shards=*/4);
  Query q = Query::FullSpace(rig.data->schema());
  Response got;
  ASSERT_TRUE(rig.sharded->Issue(q, &got).ok());
  EXPECT_TRUE(got.overflow);
  EXPECT_EQ(got.size(), 6u);
  EXPECT_EQ(rig.sharded->merged_overflows(), 1u);
  rig.ExpectMatchesReference("sum == k+1 overflow");
  // No shard overflowed on its own.
  for (size_t s = 0; s < rig.sharded->num_shards(); ++s) {
    EXPECT_EQ(rig.sharded->shard_stats(s).overflows, 0u);
  }
}

TEST(ShardedOverflowTest, EmptyShardContributesNothingAndBreaksNothing) {
  // Three rows over four range shards: shard 3 is empty by construction.
  Rig rig(/*n=*/3, /*k=*/2, {3, 1, 2}, /*num_shards=*/4);
  EXPECT_EQ(rig.plan.shard_dataset(3)->size(), 0u);
  rig.ExpectMatchesReference("empty shard");
  EXPECT_EQ(rig.sharded->shard_stats(3).candidates_contributed, 0u);
}

TEST(ShardedOverflowTest, OneShardAtItsCapPlusEmptySiblingsStillOverflows) {
  // All k + 3 rows land in shard 0 (range split, tiny siblings): shard 0
  // itself overflows and returns exactly k rows; the other shards return
  // nothing. The merged row count equals k — only the shard's own
  // overflow flag can (and must) flip the merged answer to overflow.
  const uint64_t k = 4;
  std::vector<uint64_t> priorities{9, 8, 7, 6, 5, 4, 3};
  SchemaPtr schema = Schema::Categorical({2});
  auto building = std::make_shared<Dataset>(schema);
  for (size_t i = 0; i < priorities.size(); ++i) building->Add(Tuple({1}));
  auto data = std::static_pointer_cast<const Dataset>(building);

  // Hand-build the partition: everything in shard 0, shard 1 empty.
  ShardPlanOptions options;
  options.num_shards = 1;
  ShardPlan plan =
      ShardPlan::Partition(data, k, MakeFixedPriorityPolicy(priorities),
                           options);
  std::vector<ShardBackend> backends;
  ShardBackend full;
  full.server = std::make_unique<LocalServer>(plan.BuildShardIndex(0));
  full.global_ids = plan.shard_global_ids(0);
  backends.push_back(std::move(full));
  ShardBackend empty;
  auto empty_data = std::make_shared<const Dataset>(schema);
  empty.server = std::make_unique<LocalServer>(
      empty_data, k, MakeFixedPriorityPolicy({}));
  backends.push_back(std::move(empty));

  ShardedServer sharded(std::move(backends),
                        plan.shared_global_priorities());
  Query q = Query::FullSpace(schema);
  Response got;
  ASSERT_TRUE(sharded.Issue(q, &got).ok());
  EXPECT_TRUE(got.overflow) << "k merged rows but the shard proved > k";
  EXPECT_EQ(got.size(), k);

  LocalServer reference(data, k, MakeFixedPriorityPolicy(priorities));
  Response want;
  ASSERT_TRUE(reference.Issue(q, &want).ok());
  ExpectSameResponse(got, want, "capped shard + empty siblings");
}

// --- partial failure: one shard down mid-round ------------------------------

TEST(ShardedFaultTest, ShardFailingMidRoundLeavesValidMergedPrefix) {
  auto data = MixedData(94, /*n=*/300);
  const uint64_t k = std::max<uint64_t>(8, data->MaxPointMultiplicity());
  ShardPlanOptions options;
  options.num_shards = 2;
  ShardPlan plan = ShardPlan::Partition(data, k, nullptr, options);

  // Shard 1 runs behind a 3-query budget: it answers three members of the
  // scattered round, then fails with ResourceExhausted. The budget borrows
  // `shard1`, which outlives the sharded server.
  LocalServer shard1(plan.BuildShardIndex(1));
  std::vector<ShardBackend> backends(2);
  backends[0].server = std::make_unique<LocalServer>(plan.BuildShardIndex(0));
  backends[1].server = std::make_unique<BudgetServer>(&shard1, /*budget=*/3);
  for (size_t s = 0; s < 2; ++s) {
    backends[s].global_ids = plan.shard_global_ids(s);
  }
  ShardedServer sharded(std::move(backends),
                        plan.shared_global_priorities());

  std::vector<Query> batch;
  for (Value a = 1; a <= 4; ++a) {
    batch.push_back(
        Query::FullSpace(data->schema()).WithCategoricalEquals(0, a));
  }
  std::vector<Response> responses;
  Status s = sharded.IssueBatch(batch, &responses);
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  ASSERT_EQ(responses.size(), 3u)
      << "merged prefix = the failing shard's answered prefix";
  EXPECT_EQ(sharded.shard_stats(1).failures, 1u);
  EXPECT_EQ(sharded.shard_stats(0).failures, 0u);

  // The merged prefix holds real answers.
  LocalServer reference(data, k);
  for (size_t i = 0; i < responses.size(); ++i) {
    Response want;
    ASSERT_TRUE(reference.Issue(batch[i], &want).ok());
    ExpectSameResponse(responses[i], want,
                       "prefix member " + std::to_string(i));
  }

  // Recovery: refill the failed shard's budget, resubmit the suffix —
  // deterministic answers mean re-asked shards cannot diverge.
  static_cast<BudgetServer*>(sharded.shard(1))->Refill(/*max_queries=*/1000);
  const std::vector<Query> suffix(batch.begin() + 3, batch.end());
  std::vector<Response> rest;
  ASSERT_TRUE(sharded.IssueBatch(suffix, &rest).ok());
  ASSERT_EQ(rest.size(), 1u);
  Response want;
  ASSERT_TRUE(reference.Issue(batch[3], &want).ok());
  ExpectSameResponse(rest[0], want, "resubmitted suffix");

  // The scatter pool outlives the failed round: later rounds of varying
  // width still answer exactly as the single index does.
  std::vector<Query> probes;
  for (Value a = 1; a <= 4; ++a) {
    for (Value b = 1; b <= 6; ++b) {
      probes.push_back(Query::FullSpace(data->schema())
                           .WithCategoricalEquals(0, a)
                           .WithCategoricalEquals(1, b));
    }
  }
  for (size_t round = 0; round < 50; ++round) {
    std::vector<Query> queries;
    for (size_t m = 0; m <= round % 4; ++m) {
      queries.push_back(probes[(round + m) % probes.size()]);
    }
    std::vector<Response> answers;
    ASSERT_TRUE(sharded.IssueBatch(queries, &answers).ok());
    ASSERT_EQ(answers.size(), queries.size());
    for (size_t m = 0; m < queries.size(); ++m) {
      Response expected;
      ASSERT_TRUE(reference.Issue(queries[m], &expected).ok());
      ExpectSameResponse(answers[m], expected,
                         "round " + std::to_string(round) + " member " +
                             std::to_string(m));
    }
  }
}

// --- the scatter pool -------------------------------------------------------

/// Records the kernel thread id of every IssueBatch call it forwards.
/// Kernel ids, unlike std::thread::id, are not recycled right after a
/// thread exits, so a thread spawned per round shows up as a new id.
class TidRecorder : public ServerDecorator {
 public:
  TidRecorder(HiddenDbServer* base, Mutex* mu, std::set<pid_t>* tids)
      : ServerDecorator(base), mu_(mu), tids_(tids) {}

  Status IssueBatch(const std::vector<Query>& queries,
                    std::vector<Response>* responses) override {
    {
      MutexLock lock(mu_);
      tids_->insert(gettid());
    }
    return base_->IssueBatch(queries, responses);
  }

 private:
  Mutex* mu_;
  std::set<pid_t>* tids_;
};

/// Every shard's backends, each behind its own wrapper, over a plan's
/// LocalServers; the locals outlive the sharded server that borrows them.
struct WrappedShards {
  std::vector<std::unique_ptr<LocalServer>> locals;
  std::unique_ptr<ShardedServer> sharded;

  template <typename Wrap>
  WrappedShards(const ShardPlan& plan, Wrap wrap) {
    std::vector<ShardBackend> backends(plan.num_shards());
    for (size_t s = 0; s < plan.num_shards(); ++s) {
      locals.push_back(std::make_unique<LocalServer>(plan.BuildShardIndex(s)));
      backends[s].server = wrap(locals.back().get());
      backends[s].global_ids = plan.shard_global_ids(s);
    }
    sharded = std::make_unique<ShardedServer>(std::move(backends),
                                              plan.shared_global_priorities());
  }
};

TEST(ShardedScatterTest, PoolThreadsAreReusedAcrossRounds) {
  auto data = MixedData(96, /*n=*/200);
  ShardPlanOptions options;
  options.num_shards = 4;
  ShardPlan plan = ShardPlan::Partition(data, 8, nullptr, options);
  Mutex mu;
  std::set<pid_t> tids;
  WrappedShards rig(plan, [&](HiddenDbServer* local) {
    return std::make_unique<TidRecorder>(local, &mu, &tids);
  });
  EXPECT_EQ(rig.sharded->scatter_workers(), 3u);

  const std::vector<Query> round{Query::FullSpace(data->schema())};
  for (int i = 0; i < 200; ++i) {
    std::vector<Response> responses;
    ASSERT_TRUE(rig.sharded->IssueBatch(round, &responses).ok());
  }
  MutexLock lock(&mu);
  EXPECT_LE(tids.size(), 4u)
      << "200 rounds over 4 shards answered on " << tids.size()
      << " distinct threads; the caller plus 3 pool workers is the most";
}

/// A cyclic barrier for the shards of one round: each IssueBatch waits
/// until all `parties` shards have entered, then answers. A wait that
/// outlasts 5 s fails the call (and every later one) instead of hanging,
/// so a scatter that runs shards one after another fails fast.
class Rendezvous {
 public:
  explicit Rendezvous(int parties) : parties_(parties) {}

  bool Arrive() {
    MutexLock lock(&mu_);
    if (broken_) return false;
    const uint64_t generation = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.NotifyAll();
      return true;
    }
    const auto deadline = RealClock::Get()->Now() + std::chrono::seconds(5);
    while (generation_ == generation) {
      const auto now = RealClock::Get()->Now();
      if (now >= deadline || broken_) {
        broken_ = true;
        cv_.NotifyAll();
        return false;
      }
      (void)cv_.WaitFor(&mu_, deadline - now);
    }
    return true;
  }

 private:
  const int parties_;
  Mutex mu_;
  CondVar cv_;
  int arrived_ HDC_GUARDED_BY(mu_) = 0;
  uint64_t generation_ HDC_GUARDED_BY(mu_) = 0;
  bool broken_ HDC_GUARDED_BY(mu_) = false;
};

class RendezvousServer : public ServerDecorator {
 public:
  RendezvousServer(HiddenDbServer* base, Rendezvous* rendezvous)
      : ServerDecorator(base), rendezvous_(rendezvous) {}

  Status IssueBatch(const std::vector<Query>& queries,
                    std::vector<Response>* responses) override {
    if (!rendezvous_->Arrive()) {
      responses->clear();
      return Status::Unavailable("shards did not meet within 5 s");
    }
    return base_->IssueBatch(queries, responses);
  }

 private:
  Rendezvous* rendezvous_;
};

TEST(ShardedScatterTest, ShardsOfOneRoundRunConcurrently) {
  auto data = MixedData(97, /*n=*/200);
  ShardPlanOptions options;
  options.num_shards = 4;
  ShardPlan plan = ShardPlan::Partition(data, 8, nullptr, options);
  Rendezvous rendezvous(/*parties=*/4);
  WrappedShards rig(plan, [&](HiddenDbServer* local) {
    return std::make_unique<RendezvousServer>(local, &rendezvous);
  });
  LocalServer reference(data, 8);

  const std::vector<Query> round{
      Query::FullSpace(data->schema()),
      Query::FullSpace(data->schema()).WithCategoricalEquals(0, 2)};
  for (int i = 0; i < 20; ++i) {
    std::vector<Response> responses;
    Status s = rig.sharded->IssueBatch(round, &responses);
    ASSERT_TRUE(s.ok()) << "round " << i << ": " << s.ToString();
    ASSERT_EQ(responses.size(), round.size());
    for (size_t m = 0; m < round.size(); ++m) {
      Response want;
      ASSERT_TRUE(reference.Issue(round[m], &want).ok());
      ExpectSameResponse(responses[m], want, "member " + std::to_string(m));
    }
  }
}

TEST(ShardedScatterTest, OneShardAnswersInlineWithNoWorkers) {
  auto data = MixedData(98, /*n=*/200);
  ShardPlanOptions options;
  options.num_shards = 1;
  ShardPlan plan = ShardPlan::Partition(data, 8, nullptr, options);
  Mutex mu;
  std::set<pid_t> tids;
  WrappedShards rig(plan, [&](HiddenDbServer* local) {
    return std::make_unique<TidRecorder>(local, &mu, &tids);
  });
  EXPECT_EQ(rig.sharded->scatter_workers(), 0u);

  LocalServer reference(data, 8);
  for (Value a = 1; a <= 4; ++a) {
    const Query q =
        Query::FullSpace(data->schema()).WithCategoricalEquals(0, a);
    Response want, got;
    ASSERT_TRUE(reference.Issue(q, &want).ok());
    ASSERT_TRUE(rig.sharded->Issue(q, &got).ok());
    ExpectSameResponse(got, want, "value " + std::to_string(a));
  }
  MutexLock lock(&mu);
  EXPECT_EQ(tids, std::set<pid_t>{gettid()})
      << "a 1-shard server must answer on the calling thread";
}

// --- load hint aggregation --------------------------------------------------

TEST(ShardedServerTest, LoadHintCarriesOneQueueWaitPerShard) {
  auto data = MixedData(95, /*n=*/100);
  ShardPlanOptions options;
  options.num_shards = 3;
  ShardPlan plan = ShardPlan::Partition(data, 8, nullptr, options);
  auto sharded = ShardedServer::OverPlan(plan);
  const ServerLoadHint hint = sharded->load_hint();
  EXPECT_EQ(hint.shard_queue_wait_seconds.size(), 3u);
  EXPECT_FALSE(hint.latency_feedback) << "all shards are in-process";
}

}  // namespace
}  // namespace hdc
