// Copyright (c) hdc authors. Apache-2.0 license.
#include "server/sharding.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "util/macros.h"

namespace hdc {

namespace {

/// SplitMix64 finalizer: the row-id mixer behind ShardSplit::kHash. A raw
/// `id % N` would map contiguous id ranges to shards in lockstep with any
/// id-correlated data pattern; the mixer decorrelates them.
uint64_t MixId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

// --- ShardPlan --------------------------------------------------------------

ShardPlan ShardPlan::Partition(std::shared_ptr<const Dataset> dataset,
                               uint64_t k,
                               std::unique_ptr<RankingPolicy> policy,
                               ShardPlanOptions options) {
  HDC_CHECK(dataset != nullptr);
  HDC_CHECK_MSG(options.num_shards >= 1, "a plan needs at least one shard");
  // The same default (policy and seed) LocalIndex applies, so a plan with
  // no explicit policy reproduces the unsharded reference server.
  if (policy == nullptr) policy = MakeRandomPriorityPolicy(0x5eedULL);

  ShardPlan plan;
  plan.dataset_ = dataset;
  plan.k_ = k;
  plan.global_priorities_ = std::make_shared<const std::vector<uint64_t>>(
      policy->AssignPriorities(*dataset));
  const std::vector<uint64_t>& priorities = *plan.global_priorities_;

  const size_t n = dataset->size();
  const unsigned num_shards = options.num_shards;
  std::vector<Dataset> building;
  building.reserve(num_shards);
  plan.shards_.resize(num_shards);
  for (unsigned s = 0; s < num_shards; ++s) {
    building.emplace_back(dataset->schema());
  }

  // Deal rows in ascending global id, so each shard's local id order is
  // its global id order — the tie-break agreement the merge proof needs.
  for (size_t id = 0; id < n; ++id) {
    const unsigned s =
        options.split == ShardSplit::kHash
            ? static_cast<unsigned>(MixId(id) % num_shards)
            : static_cast<unsigned>(id * uint64_t{num_shards} / n);
    building[s].AddUnchecked(dataset->tuple(id));
    plan.shards_[s].global_ids.push_back(id);
    plan.shards_[s].priorities.push_back(priorities[id]);
  }
  for (unsigned s = 0; s < num_shards; ++s) {
    plan.shards_[s].dataset =
        std::make_shared<const Dataset>(std::move(building[s]));
  }
  return plan;
}

std::shared_ptr<const LocalIndex> ShardPlan::BuildShardIndex(
    size_t shard, IndexEngine engine) const {
  LocalIndexOptions options;
  options.engine = engine;
  return std::make_shared<const LocalIndex>(
      shards_[shard].dataset, k_,
      MakeFixedPriorityPolicy(shards_[shard].priorities), options);
}

// --- ShardedServer ----------------------------------------------------------

ShardedServer::ShardedServer(
    std::vector<ShardBackend> shards,
    std::shared_ptr<const std::vector<uint64_t>> global_priorities)
    : shards_(std::move(shards)),
      global_priorities_(std::move(global_priorities)) {
  HDC_CHECK_MSG(!shards_.empty(), "a sharded server needs >= 1 backend");
  HDC_CHECK(global_priorities_ != nullptr);
  for (const ShardBackend& shard : shards_) {
    HDC_CHECK(shard.server != nullptr);
  }
  k_ = shards_[0].server->k();
  schema_ = shards_[0].server->schema();
  for (const ShardBackend& shard : shards_) {
    HDC_CHECK_MSG(shard.server->k() == k_,
                  "every shard must enforce the same result cap k");
    HDC_CHECK_MSG(*shard.server->schema() == *schema_,
                  "every shard must present the same data space");
    for (uint64_t gid : shard.global_ids) {
      HDC_CHECK_MSG(gid < global_priorities_->size(),
                    "shard id map points past the global priority table");
    }
  }
  stats_.resize(shards_.size());
}

std::unique_ptr<ShardedServer> ShardedServer::OverPlan(
    const ShardPlan& plan, IndexEngine engine) {
  std::vector<ShardBackend> backends;
  backends.reserve(plan.num_shards());
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    ShardBackend backend;
    LocalServerOptions server_options;
    server_options.engine = engine;
    backend.server = std::make_unique<LocalServer>(
        plan.BuildShardIndex(s, engine), server_options);
    backend.global_ids = plan.shard_global_ids(s);
    backends.push_back(std::move(backend));
  }
  return std::make_unique<ShardedServer>(std::move(backends),
                                         plan.shared_global_priorities());
}

Status ShardedServer::IssueBatch(const std::vector<Query>& queries,
                                 std::vector<Response>* responses) {
  HDC_CHECK(responses != nullptr);
  responses->clear();
  ++rounds_;
  if (queries.empty()) return Status::OK();

  // Scatter: the whole round goes to every shard (rows are partitioned, so
  // every shard may hold matches for any member). Shard 0 runs on the
  // calling thread; the rest on their own scatter threads for the round.
  const size_t num_shards = shards_.size();
  std::vector<std::vector<Response>> gathered(num_shards);
  std::vector<Status> statuses(num_shards, Status::OK());

  std::vector<std::thread> scatter;
  scatter.reserve(num_shards - 1);
  for (size_t s = 1; s < num_shards; ++s) {
    scatter.emplace_back([this, s, &queries, &gathered, &statuses] {
      statuses[s] = shards_[s].server->IssueBatch(queries, &gathered[s]);
    });
  }
  statuses[0] = shards_[0].server->IssueBatch(queries, &gathered[0]);
  for (std::thread& t : scatter) t.join();

  // Gather: the merged prefix ends at the first member some shard could
  // not answer. Per-shard accounting records what each backend really did,
  // even for members the merge has to discard.
  size_t prefix = queries.size();
  Status batch_status = Status::OK();
  for (size_t s = 0; s < num_shards; ++s) {
    stats_[s].members_answered += gathered[s].size();
    if (!statuses[s].ok()) ++stats_[s].failures;
    HDC_CHECK_MSG(gathered[s].size() <= queries.size(),
                  "shard answered more members than scattered");
    HDC_CHECK_MSG(statuses[s].ok() == (gathered[s].size() == queries.size()),
                  "shard batch status inconsistent with answered prefix");
    if (gathered[s].size() < prefix) {
      prefix = gathered[s].size();
      batch_status = statuses[s];
    }
  }

  responses->reserve(prefix);
  for (size_t member = 0; member < prefix; ++member) {
    Response merged;
    Status s = MergeMember(gathered, member, &merged);
    if (!s.ok()) {
      // A corrupt shard reply: the members merged so far are valid, the
      // rest of the round is not.
      return s;
    }
    responses->push_back(std::move(merged));
    ++queries_answered_;
  }
  return batch_status;
}

Status ShardedServer::MergeMember(
    std::vector<std::vector<Response>>& gathered, size_t member,
    Response* out) {
  const std::vector<uint64_t>& priorities = *global_priorities_;

  // Per-shard candidate counts decide the merged overflow flag: a resolved
  // shard contributes exactly |q(D_i)| candidates (its rows), an
  // overflowing shard proves |q(D_i)| > k by its flag alone. The merged
  // row count min(Σ, k) could not make this call — one shard at its cap
  // plus empty siblings yields exactly k merged rows for both |q(D)| = k
  // (resolved) and |q(D)| > k (overflow).
  uint64_t candidates = 0;
  bool shard_overflow = false;
  merge_scratch_.clear();
  for (size_t s = 0; s < gathered.size(); ++s) {
    Response& shard_response = gathered[s][member];
    const std::vector<uint64_t>& global_ids = shards_[s].global_ids;
    candidates += shard_response.tuples.size();
    shard_overflow |= shard_response.overflow;
    stats_[s].candidates_contributed += shard_response.tuples.size();
    if (shard_response.overflow) ++stats_[s].overflows;
    for (uint32_t slot = 0; slot < shard_response.tuples.size(); ++slot) {
      const uint64_t local = shard_response.tuples[slot].hidden_id;
      if (local >= global_ids.size()) {
        return Status::Internal(
            "shard " + std::to_string(s) + " returned unknown row id " +
            std::to_string(local));
      }
      const uint64_t gid = global_ids[local];
      merge_scratch_.push_back(
          MergeEntry{priorities[gid], gid, static_cast<uint32_t>(s), slot});
    }
  }

  out->overflow = shard_overflow || candidates > k_;
  if (out->overflow) {
    ++merged_overflows_;
    // Global rank order, best first, cut at k — identical to the single
    // index's overflow ordering (priority descending, global id ascending
    // on ties).
    std::sort(merge_scratch_.begin(), merge_scratch_.end(),
              [](const MergeEntry& a, const MergeEntry& b) {
                if (a.priority != b.priority) return a.priority > b.priority;
                return a.global_id < b.global_id;
              });
    if (merge_scratch_.size() > k_) merge_scratch_.resize(k_);
  } else {
    // Resolved: the whole bag in global id order, as the single index
    // answers resolved queries.
    std::sort(merge_scratch_.begin(), merge_scratch_.end(),
              [](const MergeEntry& a, const MergeEntry& b) {
                return a.global_id < b.global_id;
              });
  }

  out->tuples.clear();
  out->tuples.reserve(merge_scratch_.size());
  for (const MergeEntry& entry : merge_scratch_) {
    ReturnedTuple& rt = gathered[entry.shard][member].tuples[entry.slot];
    out->tuples.push_back(
        ReturnedTuple{std::move(rt.tuple), entry.global_id});
  }
  return Status::OK();
}

unsigned ShardedServer::batch_parallelism() const {
  unsigned total = 0;
  for (const ShardBackend& shard : shards_) {
    total += shard.server->batch_parallelism();
  }
  return std::max(1u, total);
}

ServerLoadHint ShardedServer::load_hint() const {
  ServerLoadHint hint;
  hint.shard_queue_wait_seconds.reserve(shards_.size());
  for (const ShardBackend& shard : shards_) {
    const ServerLoadHint sh = shard.server->load_hint();
    hint.latency_feedback |= sh.latency_feedback;
    hint.queue_wait_total_seconds += sh.queue_wait_total_seconds;
    hint.politeness_wait_total_seconds += sh.politeness_wait_total_seconds;
    hint.shard_queue_wait_seconds.push_back(sh.queue_wait_total_seconds);
  }
  return hint;
}

uint64_t ShardedServer::db_version() const {
  // Any shard mutating must invalidate cached merged answers, so the
  // sharded view's version is the sum of the shard counters: each is
  // monotonic, hence so is the sum, and it moves iff some shard moved.
  uint64_t version = 0;
  for (const ShardBackend& shard : shards_) {
    version += shard.server->db_version();
  }
  return version;
}

}  // namespace hdc
