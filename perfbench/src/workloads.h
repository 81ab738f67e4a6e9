// Copyright (c) hdc authors. Apache-2.0 license.
//
// The benchmark's three workloads. Each is a closed loop: every client
// issues its next round only after the previous reply, and one crawl set is
// one complete crawl per client (two concurrent tenants in
// categorical-sharded-tenants, one client elsewhere).
//
//   numeric-local                rank-shrink, Adult-numeric, k = 64, batch
//                                auto, in-process ServerSession of a
//                                CrawlService (max_parallelism 4)
//   mixed-loopback-wal           hybrid, Yahoo, k = 256, batch 64,
//                                RemoteServer over loopback to a
//                                ServiceEndpoint, fsync'd frontier log
//   categorical-sharded-tenants  lazy-slice-cover, NSF, k = 64, batch auto,
//                                two tenants, each a 4-shard ShardedServer
//                                over sessions of shared per-shard services
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "query/query.h"

namespace hdc {
namespace perfbench {

/// The seed at which every crawl must bill the committed figure pin.
inline constexpr uint64_t kDefaultSeed = 2012;

/// Generated inputs of one workload. Generation is not part of set-up time.
struct Inputs {
  std::shared_ptr<const Dataset> data;
  uint64_t k = 0;
  /// Seed of the server's random-priority ranking.
  uint64_t policy_seed = 0;
  /// Billed queries every crawl must show at kDefaultSeed (0 elsewhere:
  /// crawls are then only checked against each other).
  uint64_t pinned_queries = 0;
};

/// What one crawl set measures. `traced` adds the in-situ probes below the
/// crawler (shard backends) and the per-crawl layer counters; `record`
/// keeps every round's queries for replay; `wal` runs the frontier log
/// (mixed-loopback-wal only).
struct Pass {
  bool traced = false;
  bool record = false;
  bool wal = true;
};

/// One client's complete crawl.
struct CrawlRecord {
  double wall = 0;
  /// Empty when the crawl completed, extracted the exact generated
  /// multiset and billed the pin (if any).
  std::string error;
  uint64_t queries = 0;
  uint64_t extracted = 0;
  /// Outermost IssueBatch calls, as the crawler sees them.
  std::vector<double> rounds;
  uint64_t members = 0;
  uint64_t shipped = 0;  ///< tuples returned to the crawler
  /// Lane queue wait charged to this crawl's session(s).
  double queue_wait = 0;

  // Traced passes only.
  std::vector<std::vector<double>> shard_rounds;  ///< [shard][round]
  uint64_t shard_candidates = 0;  ///< Σ ShardStats::candidates_contributed
  uint64_t wal_commits = 0;
  uint64_t wal_bytes = 0;  ///< log-file growth summed over on_commit calls
  std::vector<std::vector<Query>> recorded;  ///< record passes only
};

struct CrawlSet {
  std::vector<CrawlRecord> crawls;  ///< one per tenant
  double wall = 0;                  ///< first start to last finish
};

/// Recorded rounds replayed against the layers the in-situ probes cannot
/// reach, one entry per round.
struct Replay {
  /// The round's members evaluated by LocalIndex::AnswerQuery one by one,
  /// as the time on the round's critical path over the session's threads;
  /// for a sharded round, the slowest shard's.
  std::vector<double> eval;
  /// The round re-issued on a fresh in-process session of the same service
  /// (mixed-loopback-wal only; empty elsewhere).
  std::vector<double> session;
  /// Every AnswerQuery call's time.
  std::vector<double> member_eval;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// (Re)builds the index, services, shard plan and endpoint, and
  /// connects; drops whatever a previous call built first.
  virtual void Setup() = 0;
  /// One crawl per tenant; tenants run concurrently.
  virtual CrawlSet RunSet(const Pass& pass) = 0;
  /// Replays `rounds` (from a record pass) below the crawler.
  virtual Replay ReplayRounds(
      const std::vector<std::vector<Query>>& rounds) = 0;
  virtual bool has_wal() const { return false; }
};

/// Generates the inputs of `name` from `seed`; false for an unknown name.
bool GenerateInputs(const std::string& name, uint64_t seed, Inputs* out);

/// `workdir` holds the frontier log of mixed-loopback-wal.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Inputs& inputs,
                                       const std::string& workdir);

}  // namespace perfbench
}  // namespace hdc
