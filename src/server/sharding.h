// Copyright (c) hdc authors. Apache-2.0 license.
//
// Scatter-gather sharding behind the HiddenDbServer seam: one logical
// hidden database served by N partition backends, provably answer-identical
// to the single-index server.
//
// Why the top-k contract composes across partitions (the merge proof the
// whole subsystem rests on):
//
//   Partition the bag D into disjoint shards D_1..D_N and give every shard
//   the *global* ranking (each shard ranks its rows by the priorities the
//   unsharded index would have assigned; ties break by global row id, and
//   the partitioner preserves global id order inside each shard, so a
//   shard's local tie-break agrees with the global one). For any query q:
//
//   - Membership: q(D) = q(D_1) ∪ ... ∪ q(D_N), a disjoint union.
//   - Containment: every tuple of the global top-k of q(D) is, a fortiori,
//     in the top-k of its own shard's q(D_i). So the union of per-shard
//     top-k answers is a superset of the global top-k, and re-ranking that
//     union by the global priorities and cutting at k reproduces the
//     single-index answer exactly.
//   - Overflow: q overflows iff |q(D)| = Σ|q(D_i)| > k. A resolved shard
//     answer carries its exact count (its rows); an overflowing shard
//     answer proves |q(D_i)| >= k+1 on its own. Hence the merged flag is
//     "some shard overflowed, or the summed candidate rows exceed k" —
//     computed from per-shard candidate counts, never by looking at how
//     many rows survived the merge cut (the merged row count is min(Σ, k)
//     and cannot distinguish |q(D)| = k from |q(D)| > k when one shard
//     already hit its own cap).
//   - Order: an overflowing merged answer is sorted by global rank (best
//     first); a resolved one is the whole bag sorted by global row id —
//     byte-identical to LocalIndex's response ordering either way.
//
// ShardPlan is the partitioner: it splits one Dataset into N shard
// datasets (hash or range on the global row id, order-preserving), assigns
// the global ranking once, and hands each shard its slice of the priority
// table plus the local-to-global id map. ShardedServer is the gather half:
// a full HiddenDbServer that scatters every IssueBatch round to its N
// backends — in-process LocalServers or RemoteServers across the wire —
// and merges per-member answers as above. Crawlers, decorators and
// CrawlContext work against it unchanged, and a crawl through it is
// byte-identical (extraction, query count, conversation transcript) to the
// same crawl against the unsharded server.
//
// Failure semantics: a shard failing mid-batch truncates the *merged*
// answered prefix to the shortest per-shard prefix — members the merge
// could not complete are never partially answered — and the batch returns
// the failing shard's status. Healthy shards may have answered further
// members server-side; resubmitting the suffix re-asks them (answers are
// deterministic, so nothing diverges), which matches the IssueBatch
// contract's view that the client re-submits from the first unanswered
// member. Client-visible billing (one query per member, however many
// shards it scattered to) is what the paper's cost model counts, and is
// what stays identical to the unsharded conversation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "server/local_index.h"
#include "server/local_server.h"
#include "server/server.h"
#include "util/worker_pool.h"

namespace hdc {

/// How ShardPlan deals rows to shards.
enum class ShardSplit {
  kHash,   ///< mixed hash of the global row id: balanced, order-free
  kRange,  ///< contiguous global-id ranges: locality-preserving
};

struct ShardPlanOptions {
  unsigned num_shards = 2;
  ShardSplit split = ShardSplit::kHash;
};

/// The partition of one dataset: per-shard datasets (global id order
/// preserved inside each shard), the local-to-global id maps, the global
/// priority table, and each shard's slice of it. Immutable once built;
/// copyable handles via shared_ptr members.
class ShardPlan {
 public:
  /// Splits `dataset` into `options.num_shards` shards and assigns the
  /// global ranking. `policy` null means the paper's default ranking with
  /// the same seed LocalIndex uses, so a plan over a dataset matches a
  /// plain `LocalServer(dataset, k)` reference bit for bit.
  static ShardPlan Partition(std::shared_ptr<const Dataset> dataset,
                             uint64_t k,
                             std::unique_ptr<RankingPolicy> policy = nullptr,
                             ShardPlanOptions options = {});

  size_t num_shards() const { return shards_.size(); }
  uint64_t k() const { return k_; }
  const SchemaPtr& schema() const { return dataset_->schema(); }
  const std::shared_ptr<const Dataset>& dataset() const { return dataset_; }

  const std::shared_ptr<const Dataset>& shard_dataset(size_t shard) const {
    return shards_[shard].dataset;
  }
  /// Local row id -> global row id for one shard (ascending: the
  /// partitioner preserves global order inside a shard).
  const std::vector<uint64_t>& shard_global_ids(size_t shard) const {
    return shards_[shard].global_ids;
  }
  /// The global priorities of one shard's rows, in shard row order — the
  /// vector to feed a FixedPriorityPolicy when building the shard's index.
  const std::vector<uint64_t>& shard_priorities(size_t shard) const {
    return shards_[shard].priorities;
  }
  /// The global priority table (indexed by global row id) the gather side
  /// merges with.
  const std::vector<uint64_t>& global_priorities() const {
    return *global_priorities_;
  }
  std::shared_ptr<const std::vector<uint64_t>> shared_global_priorities()
      const {
    return global_priorities_;
  }

  /// Builds shard `shard`'s evaluation index: the shard dataset under the
  /// shard's slice of the global ranking.
  std::shared_ptr<const LocalIndex> BuildShardIndex(size_t shard) const;

 private:
  struct Shard {
    std::shared_ptr<const Dataset> dataset;
    std::vector<uint64_t> global_ids;
    std::vector<uint64_t> priorities;
  };

  std::shared_ptr<const Dataset> dataset_;
  uint64_t k_ = 0;
  std::shared_ptr<const std::vector<uint64_t>> global_priorities_;
  std::vector<Shard> shards_;
};

/// One gather-side backend: any HiddenDbServer serving one shard, plus the
/// map from its local hidden ids back to global row ids.
struct ShardBackend {
  std::unique_ptr<HiddenDbServer> server;
  std::vector<uint64_t> global_ids;
};

/// Cumulative per-shard accounting of one ShardedServer conversation.
struct ShardStats {
  /// Batch members this shard answered (incl. members a later-failing
  /// round discarded from the merged prefix).
  uint64_t members_answered = 0;
  /// Candidate rows this shard contributed to merges.
  uint64_t candidates_contributed = 0;
  /// This shard's own overflow flags across answered members.
  uint64_t overflows = 0;
  /// Rounds this shard failed (transport fault, budget, ...).
  uint64_t failures = 0;
};

/// The scatter-gather HiddenDbServer over N shard backends. Single
/// conversation, like every server. The server owns, for its lifetime, a
/// WorkerPool of N - 1 workers: every IssueBatch round is one ParallelFor
/// over the shards, the calling thread taking its share, so remote shards'
/// wire round-trips overlap without a thread spawned per round. Idle
/// workers block on the pool's condition variable; a 1-shard server's pool
/// has no workers and scatters inline.
class ShardedServer : public HiddenDbServer {
 public:
  /// `shards` must all present the same k and schema (checked); every
  /// local id a shard ever returns must map through its global_ids table
  /// into `global_priorities`. The convenience factories below build the
  /// common stacks.
  ShardedServer(std::vector<ShardBackend> shards,
                std::shared_ptr<const std::vector<uint64_t>> global_priorities);

  /// In-process sharding over a plan: one LocalServer per shard, each on
  /// its shard index under the global ranking.
  static std::unique_ptr<ShardedServer> OverPlan(const ShardPlan& plan);

  Status IssueBatch(const std::vector<Query>& queries,
                    std::vector<Response>* responses) override;

  uint64_t k() const override { return k_; }
  const SchemaPtr& schema() const override { return schema_; }
  /// Shards evaluate scattered rounds concurrently, so the useful round
  /// width is the sum of the shards' own parallelism hints.
  unsigned batch_parallelism() const override;
  /// Aggregated feedback: latency_feedback if any shard crosses a wire,
  /// summed queue waits, plus the per-shard queue-wait vector adaptive
  /// batch sizing uses to see the straggler shard (core/batch_sizer.h).
  ServerLoadHint load_hint() const override;
  /// Sum of the shard counters — monotonic, and moves iff a shard mutated.
  uint64_t db_version() const override;

  size_t num_shards() const { return shards_.size(); }
  HiddenDbServer* shard(size_t i) { return shards_[i].server.get(); }
  /// Worker threads of the scatter pool: num_shards() - 1.
  unsigned scatter_workers() const { return scatter_pool_->threads(); }

  /// Merged members answered to the caller (the client-visible bill).
  uint64_t queries_answered() const { return queries_answered_; }
  /// Scatter rounds driven (IssueBatch calls, including failed ones).
  uint64_t rounds() const { return rounds_; }
  /// Merged answers that overflowed.
  uint64_t merged_overflows() const { return merged_overflows_; }
  const ShardStats& shard_stats(size_t i) const { return stats_[i]; }

 private:
  /// Merges member `member` of the gathered per-shard responses into
  /// `out`. Fails (Internal) when a shard returned a local id outside its
  /// map — a corrupt or mismatched backend, never the data's fault.
  Status MergeMember(size_t member, Response* out);

  std::vector<ShardBackend> shards_;
  std::shared_ptr<const std::vector<uint64_t>> global_priorities_;
  uint64_t k_ = 0;
  SchemaPtr schema_;

  std::vector<ShardStats> stats_;
  uint64_t queries_answered_ = 0;
  uint64_t rounds_ = 0;
  uint64_t merged_overflows_ = 0;

  /// Scratch reused across merges: (priority, global id, shard, row slot).
  struct MergeEntry {
    uint64_t priority;
    uint64_t global_id;
    uint32_t shard;
    uint32_t slot;
  };
  std::vector<MergeEntry> merge_scratch_;
  /// Per-round scatter results, one slot per shard, reused across rounds:
  /// answer slots are emptied at the start of a round (capacity kept) and
  /// every round overwrites each status.
  std::vector<std::vector<Response>> gathered_;
  std::vector<Status> statuses_;

  /// Declared last so its workers are joined before anything they touch
  /// is destroyed.
  std::unique_ptr<WorkerPool> scatter_pool_;
};

}  // namespace hdc
