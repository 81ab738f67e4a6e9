// Copyright (c) hdc authors. Apache-2.0 license.
#include "server/answer_cache.h"

#include <cstring>
#include <utility>

#include "util/sha256.h"

namespace hdc {
namespace {

void AppendU64(std::string* out, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(static_cast<uint8_t>(v >> (8 * i))));
  }
}

}  // namespace

const char* RevalidationPolicyName(RevalidationPolicy policy) {
  switch (policy) {
    case RevalidationPolicy::kAlwaysFresh:
      return "always-fresh";
    case RevalidationPolicy::kTtl:
      return "ttl";
    case RevalidationPolicy::kVersionCheck:
      return "version-check";
  }
  return "?";
}

std::string CanonicalQueryKey(const Query& query) {
  // Query's constructor already sorted the predicate set into
  // schema-ordered interval slots, so packing every (lo, hi) in slot order
  // IS the canonical sorted-rectangle form. Every slot is included —
  // wildcards and full numeric ranges too — so keys from different schema
  // views (SchemaOverrideServer) can never alias.
  const size_t arity = query.schema()->num_attributes();
  std::string key;
  key.reserve(16 * arity);
  for (size_t i = 0; i < arity; ++i) {
    AppendU64(&key, static_cast<uint64_t>(query.lo(i)));
    AppendU64(&key, static_cast<uint64_t>(query.hi(i)));
  }
  return key;
}

uint64_t HashResponse(const Response& response) {
  // The hashed stream is the answer's little-endian u64 words. They are
  // staged in a stack buffer of whole blocks and handed to the hasher one
  // full buffer at a time, so the compressor sees long runs of blocks
  // instead of one call per word.
  Sha256Stream hash;
  uint8_t staged[512];
  size_t used = 0;
  const auto put = [&](uint64_t v) {
    if (used == sizeof(staged)) {
      hash.Update(staged, used);
      used = 0;
    }
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    std::memcpy(staged + used, &v, sizeof(v));  // one little-endian store
    used += 8;
  };
  put(response.overflow ? 1 : 0);
  put(response.tuples.size());
  for (const ReturnedTuple& rt : response.tuples) {
    put(rt.hidden_id);
    put(rt.tuple.size());
    for (const Value v : rt.tuple.values()) put(static_cast<uint64_t>(v));
  }
  hash.Update(staged, used);
  return hash.Finish64();
}

AnswerCache::AnswerCache(AnswerCacheOptions options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : RealClock::Get()) {}

AnswerCache::ProbeResult AnswerCache::Probe(const Query& query,
                                            uint64_t server_version,
                                            Response* out,
                                            uint64_t* cached_hash) {
  if (options_.policy == RevalidationPolicy::kAlwaysFresh) {
    // Never consult the store: behavior must be indistinguishable from the
    // undecorated server.
    return ProbeResult::kMiss;
  }
  MutexLock lock(&mu_);
  auto it = entries_.find(CanonicalQueryKey(query));
  if (it == entries_.end()) return ProbeResult::kMiss;
  const Entry& entry = it->second;
  bool fresh = false;
  if (options_.policy == RevalidationPolicy::kTtl) {
    fresh = clock_->Now() - entry.fill_time < options_.ttl;
  } else {  // kVersionCheck
    fresh = entry.version == server_version;
  }
  if (fresh) {
    ++stats_.hits;
    if (out != nullptr) *out = entry.response;
    return ProbeResult::kHit;
  }
  if (cached_hash != nullptr) *cached_hash = entry.hash;
  return ProbeResult::kRevalidate;
}

void AnswerCache::StoreMiss(const Query& query, const Response& response,
                            uint64_t server_version) {
  Entry entry;
  entry.response = response;
  entry.hash = HashResponse(response);
  entry.version = server_version;
  entry.fill_time = clock_->Now();
  MutexLock lock(&mu_);
  ++stats_.misses;
  InsertLocked(CanonicalQueryKey(query), std::move(entry));
}

bool AnswerCache::StoreRevalidation(const Query& query,
                                    const Response& response,
                                    uint64_t server_version) {
  const uint64_t hash = HashResponse(response);
  const std::string key = CanonicalQueryKey(query);
  MutexLock lock(&mu_);
  auto it = entries_.find(key);
  const bool matched = it != entries_.end() && it->second.hash == hash;
  if (matched) {
    ++stats_.revalidations_matched;
    // Refresh the proof of freshness; the content stays as stored.
    it->second.version = server_version;
    it->second.fill_time = clock_->Now();
    return true;
  }
  ++stats_.revalidations_changed;
  Entry entry;
  entry.response = response;
  entry.hash = hash;
  entry.version = server_version;
  entry.fill_time = clock_->Now();
  if (it != entries_.end()) {
    it->second = std::move(entry);
  } else {
    InsertLocked(key, std::move(entry));
  }
  return false;
}

void AnswerCache::Seed(const Query& query, const Response& response,
                       uint64_t hash, uint64_t version) {
  Entry entry;
  entry.response = response;
  entry.hash = hash;
  entry.version = version;
  entry.fill_time = clock_->Now();
  MutexLock lock(&mu_);
  InsertLocked(CanonicalQueryKey(query), std::move(entry));
}

void AnswerCache::Clear() {
  MutexLock lock(&mu_);
  entries_.clear();
  fill_order_.clear();
}

size_t AnswerCache::size() const {
  MutexLock lock(&mu_);
  return entries_.size();
}

AnswerCacheStats AnswerCache::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void AnswerCache::InsertLocked(const std::string& key, Entry entry) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second = std::move(entry);
    return;
  }
  entries_.emplace(key, std::move(entry));
  fill_order_.push_back(key);
  if (options_.max_entries > 0) {
    while (entries_.size() > options_.max_entries && !fill_order_.empty()) {
      entries_.erase(fill_order_.front());
      fill_order_.pop_front();
    }
  }
}

}  // namespace hdc
