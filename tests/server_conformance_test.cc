// Copyright (c) hdc authors. Apache-2.0 license.
//
// Instantiates the HiddenDbServer conformance suite (server_conformance.h)
// over every server shape in the tree:
//
//   local    — a plain LocalServer (the paper's Section 6 methodology);
//   decorated— a borrowed metering stack Budget(Counting(Observed(Local)));
//   session  — a CrawlService ServerSession on a shared index + pool;
//   remote   — a RemoteServer talking to a ServiceEndpoint over TCP
//              loopback (a live CrawlService behind a real socket);
//   sharded  — a ShardedServer scatter-gathering over three in-process
//              shard backends of a hash-partitioned plan;
//   sharded_remote — the same scatter-gather where every shard backend is
//              a RemoteServer dialing its own live endpoint;
//   cached   — a CachingServer in always-fresh mode over a LocalServer:
//              every probe is a miss, so the decorator must be
//              byte-identical to the undecorated conversation;
//   cached_remote — the same always-fresh CachingServer over a RemoteServer
//              dialing a live endpoint, proving transparency holds across
//              the wire too.
//
// A future backend (HTTP) conforms by adding a factory here — the suite
// itself never changes.
#include "server_conformance.h"

#include <memory>
#include <utility>
#include <vector>

#include "net/remote_server.h"
#include "net/service_endpoint.h"
#include "server/caching_server.h"
#include "server/crawl_service.h"
#include "server/sharding.h"
#include "util/macros.h"

namespace hdc {
namespace conformance {
namespace {

// --- local ------------------------------------------------------------------

class LocalBackend : public BackendHandle {
 public:
  explicit LocalBackend(uint64_t budget) {
    server_ = std::make_unique<LocalServer>(ConformanceDataset(),
                                            kConformanceK);
    if (budget != kNoBudget) {
      budget_ = std::make_unique<BudgetServer>(server_.get(), budget);
    }
  }

  HiddenDbServer* server() override {
    return budget_ != nullptr ? static_cast<HiddenDbServer*>(budget_.get())
                              : server_.get();
  }
  uint64_t queries_served() override { return server_->queries_served(); }
  void RefillBudget(uint64_t max_queries) override {
    HDC_CHECK(budget_ != nullptr);
    budget_->Refill(max_queries);
  }

 private:
  std::unique_ptr<LocalServer> server_;
  std::unique_ptr<BudgetServer> budget_;
};

// --- decorated stack --------------------------------------------------------

class DecoratedBackend : public BackendHandle {
 public:
  explicit DecoratedBackend(uint64_t budget)
      : local_(ConformanceDataset(), kConformanceK),
        observed_(&local_,
                  [this](const Query&, const Response&) { ++members_seen_; }),
        counting_(&observed_) {
    if (budget != kNoBudget) {
      budget_ = std::make_unique<BudgetServer>(&counting_, budget);
    }
  }

  HiddenDbServer* server() override {
    return budget_ != nullptr ? static_cast<HiddenDbServer*>(budget_.get())
                              : &counting_;
  }
  uint64_t queries_served() override {
    // The observer sees exactly the members the counter bills.
    HDC_CHECK(members_seen_ == counting_.queries());
    return counting_.queries();
  }
  void RefillBudget(uint64_t max_queries) override {
    HDC_CHECK(budget_ != nullptr);
    budget_->Refill(max_queries);
  }

 private:
  uint64_t members_seen_ = 0;
  LocalServer local_;
  ObservedServer observed_;
  CountingServer counting_;
  std::unique_ptr<BudgetServer> budget_;
};

// --- service session --------------------------------------------------------

class SessionBackend : public BackendHandle {
 public:
  explicit SessionBackend(uint64_t budget) {
    CrawlServiceOptions options;
    options.max_parallelism = 2;  // exercise the pooled evaluation path
    service_ = std::make_unique<CrawlService>(ConformanceDataset(),
                                              kConformanceK, nullptr,
                                              options);
    SessionOptions session;
    session.label = "conformance";
    if (budget != kNoBudget) session.max_queries = budget;
    session_ = service_->CreateSession(std::move(session));
  }

  HiddenDbServer* server() override { return session_.get(); }
  uint64_t queries_served() override { return session_->queries_served(); }
  void RefillBudget(uint64_t max_queries) override {
    session_->RefillBudget(max_queries);
  }

 private:
  std::unique_ptr<CrawlService> service_;
  std::unique_ptr<ServerSession> session_;
};

// --- remote over loopback ---------------------------------------------------

class RemoteBackend : public BackendHandle {
 public:
  explicit RemoteBackend(uint64_t budget) {
    CrawlServiceOptions options;
    options.max_parallelism = 2;
    service_ = std::make_unique<CrawlService>(ConformanceDataset(),
                                              kConformanceK, nullptr,
                                              options);
    endpoint_ = std::make_unique<net::ServiceEndpoint>(service_.get());
    HDC_CHECK_OK(endpoint_->Start());
    net::RemoteServerOptions remote;
    remote.label = "conformance-remote";
    remote.max_queries = budget;  // UINT64_MAX == unlimited, as kNoBudget
    HDC_CHECK_OK(net::RemoteServer::Connect("127.0.0.1", endpoint_->port(),
                                            remote, &client_));
  }

  ~RemoteBackend() override {
    client_.reset();    // hang up before tearing the endpoint down
    endpoint_->Stop();  // joins connection threads; sessions retire
  }

  HiddenDbServer* server() override { return client_.get(); }

  uint64_t queries_served() override {
    net::StatsMessage stats;
    HDC_CHECK_OK(client_->FetchStats(&stats));
    return stats.queries_served;
  }

  void RefillBudget(uint64_t max_queries) override {
    HDC_CHECK_OK(client_->RefillBudget(max_queries));
  }

 private:
  std::unique_ptr<CrawlService> service_;
  std::unique_ptr<net::ServiceEndpoint> endpoint_;
  std::unique_ptr<net::RemoteServer> client_;
};

// --- sharded scatter-gather -------------------------------------------------

class ShardedBackend : public BackendHandle {
 public:
  explicit ShardedBackend(uint64_t budget) {
    ShardPlanOptions plan_options;
    plan_options.num_shards = 3;
    ShardPlan plan = ShardPlan::Partition(ConformanceDataset(),
                                          kConformanceK, nullptr,
                                          plan_options);
    sharded_ = ShardedServer::OverPlan(plan);
    if (budget != kNoBudget) {
      budget_ = std::make_unique<BudgetServer>(sharded_.get(), budget);
    }
  }

  HiddenDbServer* server() override {
    return budget_ != nullptr ? static_cast<HiddenDbServer*>(budget_.get())
                              : sharded_.get();
  }
  uint64_t queries_served() override { return sharded_->queries_answered(); }
  void RefillBudget(uint64_t max_queries) override {
    HDC_CHECK(budget_ != nullptr);
    budget_->Refill(max_queries);
  }

 private:
  std::unique_ptr<ShardedServer> sharded_;
  std::unique_ptr<BudgetServer> budget_;
};

// --- sharded over live remote shards ----------------------------------------

class ShardedRemoteBackend : public BackendHandle {
 public:
  explicit ShardedRemoteBackend(uint64_t budget) {
    ShardPlanOptions plan_options;
    plan_options.num_shards = 2;
    ShardPlan plan = ShardPlan::Partition(ConformanceDataset(),
                                          kConformanceK, nullptr,
                                          plan_options);
    std::vector<ShardBackend> backends;
    for (size_t s = 0; s < plan.num_shards(); ++s) {
      services_.push_back(
          std::make_unique<CrawlService>(plan.BuildShardIndex(s)));
      endpoints_.push_back(std::make_unique<net::ServiceEndpoint>(
          services_.back().get()));
      HDC_CHECK_OK(endpoints_.back()->Start());
      net::RemoteServerOptions remote;
      remote.label = "conformance-shard-" + std::to_string(s);
      std::unique_ptr<net::RemoteServer> client;
      HDC_CHECK_OK(net::RemoteServer::Connect(
          "127.0.0.1", endpoints_.back()->port(), remote, &client));
      ShardBackend backend;
      backend.server = std::move(client);
      backend.global_ids = plan.shard_global_ids(s);
      backends.push_back(std::move(backend));
    }
    sharded_ = std::make_unique<ShardedServer>(
        std::move(backends), plan.shared_global_priorities());
    if (budget != kNoBudget) {
      budget_ = std::make_unique<BudgetServer>(sharded_.get(), budget);
    }
  }

  ~ShardedRemoteBackend() override {
    sharded_.reset();  // hang the shard clients up first
    for (auto& endpoint : endpoints_) endpoint->Stop();
  }

  HiddenDbServer* server() override {
    return budget_ != nullptr ? static_cast<HiddenDbServer*>(budget_.get())
                              : sharded_.get();
  }
  uint64_t queries_served() override { return sharded_->queries_answered(); }
  void RefillBudget(uint64_t max_queries) override {
    HDC_CHECK(budget_ != nullptr);
    budget_->Refill(max_queries);
  }

 private:
  std::vector<std::unique_ptr<CrawlService>> services_;
  std::vector<std::unique_ptr<net::ServiceEndpoint>> endpoints_;
  std::unique_ptr<ShardedServer> sharded_;
  std::unique_ptr<BudgetServer> budget_;
};

// --- caching decorator, always-fresh ----------------------------------------

AnswerCacheOptions AlwaysFresh() {
  AnswerCacheOptions options;
  options.policy = RevalidationPolicy::kAlwaysFresh;
  return options;
}

class CachedBackend : public BackendHandle {
 public:
  explicit CachedBackend(uint64_t budget) {
    server_ = std::make_unique<LocalServer>(ConformanceDataset(),
                                            kConformanceK);
    caching_ = std::make_unique<CachingServer>(server_.get(), AlwaysFresh());
    if (budget != kNoBudget) {
      budget_ = std::make_unique<BudgetServer>(caching_.get(), budget);
    }
  }

  HiddenDbServer* server() override {
    return budget_ != nullptr ? static_cast<HiddenDbServer*>(budget_.get())
                              : caching_.get();
  }
  uint64_t queries_served() override { return server_->queries_served(); }
  void RefillBudget(uint64_t max_queries) override {
    HDC_CHECK(budget_ != nullptr);
    budget_->Refill(max_queries);
  }

 private:
  std::unique_ptr<LocalServer> server_;
  std::unique_ptr<CachingServer> caching_;
  std::unique_ptr<BudgetServer> budget_;
};

// --- caching decorator over a live remote endpoint --------------------------

class CachedRemoteBackend : public BackendHandle {
 public:
  explicit CachedRemoteBackend(uint64_t budget) {
    CrawlServiceOptions options;
    options.max_parallelism = 2;
    service_ = std::make_unique<CrawlService>(ConformanceDataset(),
                                              kConformanceK, nullptr,
                                              options);
    endpoint_ = std::make_unique<net::ServiceEndpoint>(service_.get());
    HDC_CHECK_OK(endpoint_->Start());
    net::RemoteServerOptions remote;
    remote.label = "conformance-cached-remote";
    remote.max_queries = budget;
    HDC_CHECK_OK(net::RemoteServer::Connect("127.0.0.1", endpoint_->port(),
                                            remote, &client_));
    caching_ =
        std::make_unique<CachingServer>(client_.get(), AlwaysFresh());
  }

  ~CachedRemoteBackend() override {
    caching_.reset();
    client_.reset();
    endpoint_->Stop();
  }

  HiddenDbServer* server() override { return caching_.get(); }

  uint64_t queries_served() override {
    net::StatsMessage stats;
    HDC_CHECK_OK(client_->FetchStats(&stats));
    return stats.queries_served;
  }

  void RefillBudget(uint64_t max_queries) override {
    HDC_CHECK_OK(client_->RefillBudget(max_queries));
  }

 private:
  std::unique_ptr<CrawlService> service_;
  std::unique_ptr<net::ServiceEndpoint> endpoint_;
  std::unique_ptr<net::RemoteServer> client_;
  std::unique_ptr<CachingServer> caching_;
};

template <typename Backend>
BackendFactory MakeFactory(const std::string& name) {
  BackendFactory factory;
  factory.name = name;
  factory.make = [](uint64_t budget) -> std::unique_ptr<BackendHandle> {
    return std::make_unique<Backend>(budget);
  };
  return factory;
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ServerConformanceTest,
    ::testing::Values(MakeFactory<LocalBackend>("local"),
                      MakeFactory<DecoratedBackend>("decorated"),
                      MakeFactory<SessionBackend>("session"),
                      MakeFactory<RemoteBackend>("remote"),
                      MakeFactory<ShardedBackend>("sharded"),
                      MakeFactory<ShardedRemoteBackend>("sharded_remote"),
                      MakeFactory<CachedBackend>("cached"),
                      MakeFactory<CachedRemoteBackend>("cached_remote")),
    [](const ::testing::TestParamInfo<BackendFactory>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace conformance
}  // namespace hdc
