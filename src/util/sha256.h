// Copyright (c) hdc authors. Apache-2.0 license.
//
// Minimal self-contained SHA-256 (FIPS 180-4). The answer cache uses it to
// fingerprint query answers the way the related hidden-web crawlers
// fingerprint fetched pages (ETag / content-dedup idiom): a conditional
// re-ask whose answer hashes to the cached digest proves the subspace is
// unchanged without diffing tuples. No OpenSSL dependency.
//
// Two block compressors sit behind one interface. On x86-64 a one-time CPU
// check (a function-local static, thread-safe by the language) picks the
// SHA-extensions compressor (sha256rnds2/msg1/msg2) when the CPU has it;
// every other CPU and build uses the portable FIPS 180-4 loop, which is also
// the reference the accelerated one is tested against. Both compute the same
// function, so every digest — the wire's content hashes, the answer cache's
// fingerprints, persisted crawl records — is bit-identical whichever runs.
// There is no setting: the choice is the CPU's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace hdc {

struct Sha256Digest {
  uint8_t bytes[32] = {};

  bool operator==(const Sha256Digest& o) const;
  bool operator!=(const Sha256Digest& o) const { return !(*this == o); }

  /// Lowercase hex, 64 characters.
  std::string ToHex() const;
};

/// One-shot digest of `len` bytes at `data`.
Sha256Digest Sha256(const void* data, size_t len);
Sha256Digest Sha256(const std::string& data);

/// First eight digest bytes as a big-endian integer — the compact form the
/// cache stores and the wire carries. Truncating SHA-256 to 64 bits keeps
/// full avalanche behavior; collisions across a cache of millions of
/// rectangles are ~2^-44 territory, and a collision only costs a missed
/// change detection on one rectangle until the next full crawl.
uint64_t Sha256Hash64(const void* data, size_t len);
uint64_t Sha256Hash64(const std::string& data);

/// Incremental hasher for callers that stream fields without materializing
/// one contiguous buffer (the answer hash walks tuples in place).
class Sha256Stream {
 public:
  Sha256Stream();
  void Update(const void* data, size_t len);
  void Update(const std::string& data) { Update(data.data(), data.size()); }
  /// Appends a fixed-width little-endian integer — used for field framing
  /// so (len, bytes) sequences cannot alias across field boundaries.
  /// Callers hashing many words should stage them and call Update once per
  /// run (HashResponse does); this is the one-word convenience.
  void UpdateU64(uint64_t v);
  /// Finalizes and returns the digest. The stream must not be reused.
  Sha256Digest Finish();
  /// Finish() truncated as in Sha256Hash64.
  uint64_t Finish64();

 private:
  uint32_t state_[8];
  uint64_t total_len_ = 0;
  uint8_t buffer_[64];
  size_t buffered_ = 0;
};

namespace detail {

/// Folds `num_blocks` consecutive 64-byte blocks into `state`. Exposed only
/// so sha256_test can hold the two compressors to each other; Sha256Stream
/// picks one once per process and offers no way to choose.
using Sha256CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                                  size_t num_blocks);

/// The portable FIPS 180-4 compressor: the reference and the fallback.
void Sha256CompressPortable(uint32_t state[8], const uint8_t* blocks,
                            size_t num_blocks);

/// The SHA-extensions compressor, or nullptr when this CPU lacks the
/// extensions or this build is not x86-64.
Sha256CompressFn Sha256CompressAccelerated();

}  // namespace detail
}  // namespace hdc
