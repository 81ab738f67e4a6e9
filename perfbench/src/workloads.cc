// Copyright (c) hdc authors. Apache-2.0 license.
#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <utility>

#include "core/crawlers.h"
#include "core/frontier_log.h"
#include "gen/adult_gen.h"
#include "gen/nsf_gen.h"
#include "gen/yahoo_gen.h"
#include "net/remote_server.h"
#include "net/service_endpoint.h"
#include "server/crawl_service.h"
#include "server/local_index.h"
#include "server/ranking.h"
#include "server/sharding.h"
#include "timed_server.h"
#include "util/macros.h"
#include "util/worker_pool.h"

namespace hdc {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs one complete crawl under an outermost TimedServer; `result` keeps
/// the extraction for Verify.
CrawlRecord TimedCrawl(Crawler* crawler, HiddenDbServer* server,
                       const CrawlOptions& options, bool record,
                       std::optional<CrawlResult>* result,
                       Clock::time_point* start_out,
                       Clock::time_point* end_out) {
  TimedServer outer(server, record);
  CrawlRecord rec;
  const Clock::time_point start = Clock::now();
  result->emplace(crawler->Crawl(&outer, options));
  const Clock::time_point end = Clock::now();
  rec.wall = std::chrono::duration<double>(end - start).count();
  rec.queries = (*result)->queries_issued;
  rec.extracted = (*result)->extracted.size();
  rec.rounds = outer.round_seconds();
  rec.members = outer.members();
  rec.shipped = outer.tuples();
  if (record) rec.recorded = std::move(outer.recorded());
  if (start_out != nullptr) *start_out = start;
  if (end_out != nullptr) *end_out = end;
  return rec;
}

/// Checks a finished crawl: complete, the exact generated multiset, and the
/// pinned bill when the inputs carry one. Runs after the clock stopped, one
/// crawl at a time, and releases the extraction.
void Verify(const Inputs& inputs, std::optional<CrawlResult>* result,
            CrawlRecord* rec) {
  if (!(*result)->status.ok()) {
    rec->error = "crawl failed: " + (*result)->status.ToString();
  } else if (!Dataset::MultisetEquals((*result)->extracted, *inputs.data)) {
    rec->error = "extraction is not the generated multiset";
  } else if (inputs.pinned_queries != 0 &&
             rec->queries != inputs.pinned_queries) {
    rec->error = "billed " + std::to_string(rec->queries) +
                 " queries; the pin is " +
                 std::to_string(inputs.pinned_queries);
  }
  result->reset();
}

/// One verified crawl of a single-client workload.
CrawlSet SingleClientSet(Crawler* crawler, HiddenDbServer* server,
                         const Inputs& inputs, const CrawlOptions& options,
                         bool record) {
  std::optional<CrawlResult> result;
  CrawlRecord rec =
      TimedCrawl(crawler, server, options, record, &result, nullptr, nullptr);
  Verify(inputs, &result, &rec);
  CrawlSet set;
  set.wall = rec.wall;
  set.crawls.push_back(std::move(rec));
  return set;
}
/// Evaluates every member of every round on `index`, one AnswerQuery call
/// at a time, and appends every call's time to `member_eval`. Returns each
/// round's evaluation time on its critical path when the session deals the
/// members over `parallelism` threads: each free thread claims the next
/// member, as the worker pool does, so the round takes the largest load.
/// With parallelism 1 that is the members' sum.
std::vector<double> EvalRounds(const LocalIndex& index,
                               const std::vector<std::vector<Query>>& rounds,
                               unsigned parallelism,
                               std::vector<double>* member_eval) {
  EvalScratch scratch;
  QueryStats stats;
  Response response;
  std::vector<double> per_round, loads;
  per_round.reserve(rounds.size());
  for (const std::vector<Query>& round : rounds) {
    loads.assign(parallelism, 0);
    for (const Query& query : round) {
      const Clock::time_point start = Clock::now();
      index.AnswerQuery(query, &response, &scratch, &stats);
      const double t = Since(start);
      *std::min_element(loads.begin(), loads.end()) += t;
      member_eval->push_back(t);
    }
    per_round.push_back(*std::max_element(loads.begin(), loads.end()));
  }
  return per_round;
}

std::shared_ptr<const LocalIndex> BuildIndex(const Inputs& inputs) {
  return std::make_shared<const LocalIndex>(
      inputs.data, inputs.k, MakeRandomPriorityPolicy(inputs.policy_seed));
}

// --- numeric-local ---------------------------------------------------------

class NumericLocal : public Workload {
 public:
  static constexpr unsigned kParallelism = 4;

  explicit NumericLocal(Inputs inputs) : inputs_(std::move(inputs)) {}

  void Setup() override {
    service_.reset();
    index_.reset();
    index_ = BuildIndex(inputs_);
    CrawlServiceOptions options;
    options.max_parallelism = kParallelism;
    service_ = std::make_unique<CrawlService>(index_, options);
  }

  CrawlSet RunSet(const Pass& pass) override {
    std::unique_ptr<ServerSession> session = service_->CreateSession();
    CrawlOptions options;
    options.batch_size = 0;  // auto: frontier width capped by the pool
    CrawlSet set = SingleClientSet(&crawler_, session.get(), inputs_, options,
                                   pass.record);
    set.crawls[0].queue_wait = session->lane_stats().queue_wait_total_seconds;
    return set;
  }

  Replay ReplayRounds(const std::vector<std::vector<Query>>& rounds) override {
    Replay replay;
    replay.eval =
        EvalRounds(*index_, rounds, kParallelism, &replay.member_eval);
    return replay;
  }

 private:
  Inputs inputs_;
  RankShrink crawler_;
  std::shared_ptr<const LocalIndex> index_;
  std::unique_ptr<CrawlService> service_;
};

// --- mixed-loopback-wal ----------------------------------------------------

class MixedLoopbackWal : public Workload {
 public:
  static constexpr unsigned kParallelism = 2;

  MixedLoopbackWal(Inputs inputs, const std::string& workdir)
      : inputs_(std::move(inputs)),
        log_path_(workdir + "/frontier.log") {}

  ~MixedLoopbackWal() override { Teardown(); }

  void Setup() override {
    Teardown();
    index_ = BuildIndex(inputs_);
    CrawlServiceOptions service_options;
    service_options.max_parallelism = kParallelism;
    service_ = std::make_unique<CrawlService>(index_, service_options);
    net::ServiceEndpointOptions endpoint_options;
    endpoint_options.dispatch_threads = 1;  // content hashes stay on
    endpoint_ = std::make_unique<net::ServiceEndpoint>(service_.get(),
                                                       endpoint_options);
    HDC_CHECK_OK(endpoint_->Start());
    HDC_CHECK_OK(net::RemoteServer::Connect(endpoint_options.host,
                                            endpoint_->port(), {}, &remote_));
  }

  CrawlSet RunSet(const Pass& pass) override {
    CrawlOptions options;
    options.batch_size = 64;
    std::unique_ptr<FrontierLogWriter> log;
    uint64_t grown = 0;
    uint64_t last_size = 0;
    if (pass.wal) {
      FrontierLogOptions log_options;
      log_options.sync = true;
      if (pass.traced) {
        // Bytes each commit added; a rotation rewrites the file, so a
        // shrink counts the whole new file.
        log_options.on_commit = [this, &grown, &last_size](uint64_t) {
          std::error_code ec;
          const uint64_t size = std::filesystem::file_size(log_path_, ec);
          if (ec) return;
          grown += size >= last_size ? size - last_size : size;
          last_size = size;
        };
      }
      HDC_CHECK_OK(FrontierLogWriter::Open(log_path_, log_options, &log));
      options.frontier_log = log.get();
    }
    const double wait_before = remote_->load_hint().queue_wait_total_seconds;
    CrawlSet set = SingleClientSet(&crawler_, remote_.get(), inputs_, options,
                                   pass.record);
    CrawlRecord& rec = set.crawls[0];
    rec.queue_wait =
        remote_->load_hint().queue_wait_total_seconds - wait_before;
    if (log != nullptr) {
      rec.wal_commits = log->commits();
      rec.wal_bytes = grown;
      log.reset();
      std::error_code ec;
      std::filesystem::remove(log_path_, ec);
    }
    return set;
  }

  Replay ReplayRounds(const std::vector<std::vector<Query>>& rounds) override {
    Replay replay;
    // The server behind the endpoint is a default session of the same
    // service: replaying on a fresh one times everything but the wire.
    std::unique_ptr<ServerSession> session = service_->CreateSession();
    std::vector<Response> responses;
    for (const std::vector<Query>& round : rounds) {
      const Clock::time_point start = Clock::now();
      HDC_CHECK_OK(session->IssueBatch(round, &responses));
      replay.session.push_back(Since(start));
    }
    replay.eval =
        EvalRounds(*index_, rounds, kParallelism, &replay.member_eval);
    return replay;
  }

  bool has_wal() const override { return true; }

 private:
  void Teardown() {
    remote_.reset();
    endpoint_.reset();  // stops and joins the endpoint's threads
    service_.reset();
    index_.reset();
  }

  Inputs inputs_;
  std::string log_path_;
  HybridCrawler crawler_;
  std::shared_ptr<const LocalIndex> index_;
  std::unique_ptr<CrawlService> service_;
  std::unique_ptr<net::ServiceEndpoint> endpoint_;
  std::unique_ptr<net::RemoteServer> remote_;
};

// --- categorical-sharded-tenants -------------------------------------------

class ShardedTenants : public Workload {
 public:
  static constexpr size_t kShards = 4;
  static constexpr size_t kTenants = 2;

  explicit ShardedTenants(Inputs inputs) : inputs_(std::move(inputs)) {}

  void Setup() override {
    services_.clear();
    plan_.reset();
    ShardPlanOptions plan_options;
    plan_options.num_shards = kShards;
    plan_options.split = ShardSplit::kHash;
    plan_ = std::make_unique<ShardPlan>(ShardPlan::Partition(
        inputs_.data, inputs_.k, MakeRandomPriorityPolicy(inputs_.policy_seed),
        plan_options));
    for (size_t s = 0; s < kShards; ++s) {
      CrawlServiceOptions options;
      options.max_parallelism = 1;
      services_.push_back(
          std::make_unique<CrawlService>(plan_->BuildShardIndex(s), options));
    }
  }

  CrawlSet RunSet(const Pass& pass) override {
    struct Tenant {
      std::vector<std::unique_ptr<ServerSession>> sessions;
      std::vector<TimedServer*> probes;  // owned by `server`
      std::unique_ptr<ShardedServer> server;  // borrows `sessions`
      SliceCoverCrawler crawler{/*lazy=*/true};
      std::optional<CrawlResult> result;
      CrawlRecord rec;
      Clock::time_point start, end;
    };
    std::vector<Tenant> tenants(kTenants);
    for (Tenant& tenant : tenants) {
      std::vector<ShardBackend> backends;
      for (size_t s = 0; s < kShards; ++s) {
        tenant.sessions.push_back(services_[s]->CreateSession());
        ServerSession* session = tenant.sessions.back().get();
        ShardBackend backend;
        if (pass.traced) {
          auto probe = std::make_unique<TimedServer>(session);
          tenant.probes.push_back(probe.get());
          backend.server = std::move(probe);
        } else {
          backend.server = std::make_unique<ServerDecorator>(session);
        }
        backend.global_ids = plan_->shard_global_ids(s);
        backends.push_back(std::move(backend));
      }
      tenant.server = std::make_unique<ShardedServer>(
          std::move(backends), plan_->shared_global_priorities());
    }

    CrawlOptions options;
    options.batch_size = 0;  // auto: capped by the summed shard parallelism
    clients_.ParallelFor(kTenants, [&](size_t t) {
      Tenant& tenant = tenants[t];
      tenant.rec = TimedCrawl(&tenant.crawler, tenant.server.get(), options,
                              pass.record && t == 0, &tenant.result,
                              &tenant.start, &tenant.end);
    });

    CrawlSet set;
    Clock::time_point first = tenants[0].start, last = tenants[0].end;
    for (Tenant& tenant : tenants) {
      Verify(inputs_, &tenant.result, &tenant.rec);
      first = std::min(first, tenant.start);
      last = std::max(last, tenant.end);
      for (const auto& session : tenant.sessions) {
        tenant.rec.queue_wait += session->lane_stats().queue_wait_total_seconds;
      }
      for (size_t s = 0; s < tenant.probes.size(); ++s) {
        tenant.rec.shard_rounds.push_back(tenant.probes[s]->round_seconds());
        tenant.rec.shard_candidates +=
            tenant.server->shard_stats(s).candidates_contributed;
      }
      set.crawls.push_back(std::move(tenant.rec));
    }
    set.wall = std::chrono::duration<double>(last - first).count();
    return set;
  }

  Replay ReplayRounds(const std::vector<std::vector<Query>>& rounds) override {
    Replay replay;
    replay.eval.assign(rounds.size(), 0);
    for (const auto& service : services_) {
      const std::vector<double> shard =
          EvalRounds(*service->index(), rounds, 1, &replay.member_eval);
      for (size_t r = 0; r < rounds.size(); ++r) {
        replay.eval[r] = std::max(replay.eval[r], shard[r]);
      }
    }
    return replay;
  }

 private:
  Inputs inputs_;
  /// The tenants' client threads: this thread plus one persistent worker,
  /// so every set crawls from the same threads (and malloc arenas).
  WorkerPool clients_{kTenants - 1};
  std::unique_ptr<ShardPlan> plan_;
  std::vector<std::unique_ptr<CrawlService>> services_;
};

}  // namespace

bool GenerateInputs(const std::string& name, uint64_t seed, Inputs* out) {
  const bool pinned = seed == kDefaultSeed;
  // The default seed keeps the figure benches' ranking seed, so its bills
  // are the committed figure pins.
  out->policy_seed =
      0x5eedULL ^ ((seed - kDefaultSeed) * 0x9E3779B97F4A7C15ULL);
  if (name == "numeric-local") {
    AdultGeneratorOptions gen;
    gen.seed = seed;
    out->data = std::make_shared<const Dataset>(GenerateAdultNumeric(gen));
    out->k = 64;
    out->pinned_queries = pinned ? 2299 : 0;  // fig10a, rank-shrink
  } else if (name == "mixed-loopback-wal") {
    YahooGeneratorOptions gen;
    gen.seed = seed;
    out->data = std::make_shared<const Dataset>(GenerateYahoo(gen));
    out->k = 256;
    out->pinned_queries = pinned ? 1086 : 0;  // fig12, Yahoo
  } else if (name == "categorical-sharded-tenants") {
    NsfGeneratorOptions gen;
    gen.seed = seed;
    out->data = std::make_shared<const Dataset>(GenerateNsf(gen));
    out->k = 64;
    out->pinned_queries = pinned ? 30803 : 0;  // fig11a, lazy-slice-cover
  } else {
    return false;
  }
  return true;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Inputs& inputs,
                                       const std::string& workdir) {
  if (name == "numeric-local") return std::make_unique<NumericLocal>(inputs);
  if (name == "mixed-loopback-wal") {
    return std::make_unique<MixedLoopbackWal>(inputs, workdir);
  }
  if (name == "categorical-sharded-tenants") {
    return std::make_unique<ShardedTenants>(inputs);
  }
  return nullptr;
}

}  // namespace perfbench
}  // namespace hdc
