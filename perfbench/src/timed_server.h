// Copyright (c) hdc authors. Apache-2.0 license.
//
// TimedServer: the benchmark's only probe into a running crawl. It is an
// ordinary borrowed server decorator placed at a seam the benchmark composes
// itself (under the crawler, around a shard backend), so it measures a layer
// from outside through the public server contract and never changes an
// answer: every call is forwarded unchanged and timed on steady_clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "server/decorators.h"

namespace hdc {
namespace perfbench {

class TimedServer : public ServerDecorator {
 public:
  /// `base` must outlive this decorator. With `record`, the queries of
  /// every call are kept for replay against inner layers.
  explicit TimedServer(HiddenDbServer* base, bool record = false)
      : ServerDecorator(base), record_(record) {}

  Status Issue(const Query& query, Response* response) override {
    const auto start = std::chrono::steady_clock::now();
    Status s = base_->Issue(query, response);
    const auto end = std::chrono::steady_clock::now();
    Note(start, end, 1, s.ok() ? response->size() : 0);
    if (record_) recorded_.push_back({query});
    return s;
  }

  Status IssueBatch(const std::vector<Query>& queries,
                    std::vector<Response>* responses) override {
    const auto start = std::chrono::steady_clock::now();
    Status s = base_->IssueBatch(queries, responses);
    const auto end = std::chrono::steady_clock::now();
    uint64_t tuples = 0;
    for (const Response& r : *responses) tuples += r.size();
    Note(start, end, queries.size(), tuples);
    if (record_) recorded_.push_back(queries);
    return s;
  }

  /// Wall seconds of each call, in call order.
  const std::vector<double>& round_seconds() const { return seconds_; }
  /// Members submitted and tuples returned, summed over all calls.
  uint64_t members() const { return members_; }
  uint64_t tuples() const { return tuples_; }
  /// The queries of each call (empty unless recording).
  std::vector<std::vector<Query>>& recorded() { return recorded_; }

 private:
  void Note(std::chrono::steady_clock::time_point start,
            std::chrono::steady_clock::time_point end, uint64_t members,
            uint64_t tuples) {
    seconds_.push_back(std::chrono::duration<double>(end - start).count());
    members_ += members;
    tuples_ += tuples;
  }

  bool record_;
  std::vector<double> seconds_;
  uint64_t members_ = 0;
  uint64_t tuples_ = 0;
  std::vector<std::vector<Query>> recorded_;
};

}  // namespace perfbench
}  // namespace hdc
