// Copyright (c) hdc authors. Apache-2.0 license.
//
// CachingServer: a HiddenDbServer decorator that serves repeated and
// overlapping crawl queries from an AnswerCache instead of spending server
// queries on them. This is the client-side piece of the caching + delta
// re-crawl subsystem (ROADMAP "mutating database" item): a re-crawl that
// replays a prior crawl's rectangles through a CachingServer costs zero
// server queries when nothing changed (version check), and one cheap
// revalidation per rectangle when freshness cannot be proven locally.
//
// Billing model, per probe outcome:
//   hit          — answered from cache; the wrapped server is never
//                  contacted, so nothing is billed anywhere.
//   revalidation — one conditional re-ask reaches the wrapped server. If
//                  the answer's content hash matches the cached one, the
//                  round trip moved no data (a "304") and callers should
//                  bill it as a cheap revalidation, not a full query:
//                  stats() separates revalidations_matched from
//                  revalidations_changed for exactly this purpose.
//   miss         — a full query, forwarded and billed as usual.
//
// In always-fresh mode every probe is a miss, making the decorator
// byte-identical to the undecorated conversation — proven by instantiating
// the backend conformance suite over it (in-process and over loopback).
#pragma once

#include <memory>
#include <vector>

#include "server/answer_cache.h"
#include "server/decorators.h"

namespace hdc {

class CachingServer : public ServerDecorator {
 public:
  /// Owns its cache, configured by `options`. `base` is borrowed, as for
  /// every decorator.
  CachingServer(HiddenDbServer* base, AnswerCacheOptions options = {});

  /// Shares an external cache (e.g. seeded from a prior crawl record by
  /// the delta-crawl driver, or shared across several client stacks).
  CachingServer(HiddenDbServer* base, std::shared_ptr<AnswerCache> cache);

  /// Members answered from cache are filled locally; maximal runs of
  /// consecutive non-hit members are forwarded to the wrapped server as
  /// sub-batches, preserving member order and the answered-prefix
  /// partial-failure contract: on a sub-batch failure the members answered
  /// before it (cached or forwarded) form the returned prefix.
  Status IssueBatch(const std::vector<Query>& queries,
                    std::vector<Response>* responses) override;

  AnswerCache& cache() { return *cache_; }
  const AnswerCache& cache() const { return *cache_; }
  AnswerCacheStats stats() const { return cache_->stats(); }

  /// Server queries actually forwarded to the wrapped server (misses +
  /// revalidations); the crawler-visible query count minus hits.
  uint64_t forwarded_queries() const { return forwarded_queries_; }

 private:
  std::shared_ptr<AnswerCache> cache_;
  uint64_t forwarded_queries_ = 0;
};

}  // namespace hdc
