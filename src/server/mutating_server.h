// Copyright (c) hdc authors. Apache-2.0 license.
//
// MutatingLocalServer: the test harness for everything the paper's frozen
// setting cannot express. It serves a dataset through the usual top-k
// interface, but its contents mutate — either explicitly (Apply) or via a
// script of mutation bursts that fire mid-crawl when the served-query
// counter crosses their trigger points. Every burst bumps db_version, so
// caches and delta crawls can detect staleness the way they would against
// a version-reporting production backend.
//
// Two properties make exact delta testing possible:
//
//  * Stable hidden ids. LocalIndex reports hidden_id = row position, which
//    shifts under deletion. This server remaps positions to per-row stable
//    ids assigned at insertion and never reused, so "the same row" means
//    the same id across any number of mutations — insert/delete/update
//    deltas are well-defined.
//
//  * Stable ranking. Each row keeps a fixed random priority for life; the
//    index is rebuilt after each burst under FixedPriorityPolicy over the
//    surviving rows. A row's rank relative to surviving peers never
//    changes, so an unchanged subspace returns byte-identical answers —
//    exactly the invariant content-hash revalidation relies on.
//
// Not thread-safe: mutation scripts interleave with a single
// conversation, batch_parallelism stays 1.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "server/local_index.h"
#include "server/server.h"
#include "util/random.h"

namespace hdc {

/// One row-level change. kInsert adds `tuple` as a new row (a fresh stable
/// id); kDelete removes row `stable_id`; kUpdate replaces row `stable_id`'s
/// values with `tuple` (same id — the row "moved").
struct Mutation {
  enum class Kind { kInsert, kDelete, kUpdate };

  static Mutation Insert(Tuple tuple) {
    return Mutation{Kind::kInsert, std::move(tuple), 0};
  }
  static Mutation Delete(uint64_t stable_id) {
    return Mutation{Kind::kDelete, Tuple{}, stable_id};
  }
  static Mutation Update(uint64_t stable_id, Tuple tuple) {
    return Mutation{Kind::kUpdate, std::move(tuple), stable_id};
  }

  Kind kind = Kind::kInsert;
  Tuple tuple;
  uint64_t stable_id = 0;
};

class MutatingLocalServer : public HiddenDbServer {
 public:
  /// Rows 0..n-1 of `initial` get stable ids 0..n-1 and priorities drawn
  /// from a deterministic stream seeded by `priority_seed`.
  MutatingLocalServer(std::shared_ptr<const Dataset> initial, uint64_t k,
                      uint64_t priority_seed = 7);

  /// Answers members one at a time, firing any due burst before each, so
  /// a burst scheduled mid-batch lands between the same two members as in
  /// a conversation of one-member batches.
  Status IssueBatch(const std::vector<Query>& queries,
                    std::vector<Response>* responses) override;

  uint64_t k() const override { return k_; }
  const SchemaPtr& schema() const override { return schema_; }
  uint64_t db_version() const override { return db_version_; }

  /// Applies one mutation burst now and bumps db_version once. Fails
  /// (InvalidArgument) on a delete/update naming an unknown stable id, an
  /// insert/update tuple that does not fit the schema — nothing is applied
  /// in that case.
  Status Apply(const std::vector<Mutation>& burst);

  /// Schedules a burst to fire just before the first query served once
  /// `queries_served() >= at_queries_served`. Bursts fire in trigger
  /// order; several at one trigger fire as separate version bumps.
  void ScheduleAt(uint64_t at_queries_served, std::vector<Mutation> burst);

  /// Current rows as (stable_id, tuple), in stable-id order — the ground
  /// truth a delta-crawl test diffs against.
  std::vector<std::pair<uint64_t, Tuple>> Rows() const;

  /// Snapshot of the current bag (fresh Dataset, row order = stable-id
  /// order).
  std::shared_ptr<const Dataset> Snapshot() const;

  uint64_t queries_served() const { return queries_served_; }
  uint64_t next_stable_id() const { return next_stable_id_; }

 private:
  struct Row {
    uint64_t stable_id = 0;
    uint64_t priority = 0;
    Tuple tuple;
  };

  struct ScheduledBurst {
    uint64_t at_queries_served = 0;
    std::vector<Mutation> burst;
  };

  void RebuildIndex();
  void FireDueBursts();

  SchemaPtr schema_;
  uint64_t k_ = 0;
  Rng priority_rng_;

  std::vector<Row> rows_;  // insertion order == stable-id order
  uint64_t next_stable_id_ = 0;
  uint64_t db_version_ = 1;

  std::shared_ptr<const LocalIndex> index_;
  EvalScratch scratch_;

  std::vector<ScheduledBurst> pending_;  // sorted by trigger, stable
  uint64_t queries_served_ = 0;
};

}  // namespace hdc
