// Copyright (c) hdc authors. Apache-2.0 license.
#include "util/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#include <immintrin.h>
#define HDC_SHA_NI 1
#endif

namespace hdc {
namespace {

constexpr uint32_t kInit[8] = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
};

constexpr uint32_t kRound[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu,
    0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u,
    0x243185beu, 0x550c7dc3u, 0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u,
    0xc19bf174u, 0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau, 0x983e5152u,
    0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu,
    0x53380d13u, 0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u, 0xd192e819u,
    0xd6990624u, 0xf40e3585u, 0x106aa070u, 0x19a4c116u, 0x1e376c08u,
    0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu,
    0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u,
};

inline uint32_t Rotr(uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

constexpr char kHexDigits[] = "0123456789abcdef";

#ifdef HDC_SHA_NI
/// Four rounds on one message group `w` (byte-swapped words), constants
/// kRound[4g..4g+3]. sha256rnds2 does two rounds on the state split as
/// ABEF/CDGH; after two of them the halves are back in their roles.
__attribute__((target("sha,sse4.1"), always_inline)) inline void FourRounds(
    __m128i* abef, __m128i* cdgh, __m128i w, size_t g) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * g)));
  *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
  *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

/// Message schedule: W[t..t+3] from the four groups before it.
__attribute__((target("sha,sse4.1"), always_inline)) inline __m128i NextGroup(
    __m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                  _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

__attribute__((target("sha,sse4.1"))) void CompressShaNi(
    uint32_t state[8], const uint8_t* blocks, size_t num_blocks) {
  // Big-endian message words: reverse the bytes of each 32-bit lane.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // state[] is A..H; the instructions want ABEF and CDGH.
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; num_blocks > 0; --num_blocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const __m128i* in = reinterpret_cast<const __m128i*>(blocks);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in), bswap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap);
    FourRounds(&abef, &cdgh, w0, 0);
    FourRounds(&abef, &cdgh, w1, 1);
    FourRounds(&abef, &cdgh, w2, 2);
    FourRounds(&abef, &cdgh, w3, 3);
    for (size_t g = 4; g < 16; g += 4) {
      w0 = NextGroup(w0, w1, w2, w3);
      FourRounds(&abef, &cdgh, w0, g);
      w1 = NextGroup(w1, w2, w3, w0);
      FourRounds(&abef, &cdgh, w1, g + 1);
      w2 = NextGroup(w2, w3, w0, w1);
      FourRounds(&abef, &cdgh, w2, g + 2);
      w3 = NextGroup(w3, w0, w1, w2);
      FourRounds(&abef, &cdgh, w3, g + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}
#endif  // HDC_SHA_NI

/// The compressor this process uses: the CPU is checked once, on first use.
void Compress(uint32_t state[8], const uint8_t* blocks, size_t num_blocks) {
  static const detail::Sha256CompressFn compress = [] {
    const detail::Sha256CompressFn accelerated =
        detail::Sha256CompressAccelerated();
    return accelerated != nullptr ? accelerated
                                  : &detail::Sha256CompressPortable;
  }();
  compress(state, blocks, num_blocks);
}

}  // namespace

namespace detail {

void Sha256CompressPortable(uint32_t state[8], const uint8_t* blocks,
                            size_t num_blocks) {
  for (; num_blocks > 0; --num_blocks, blocks += 64) {
    uint32_t w[64];
    for (size_t i = 0; i < 16; ++i) {
      w[i] = (uint32_t{blocks[4 * i]} << 24) |
             (uint32_t{blocks[4 * i + 1]} << 16) |
             (uint32_t{blocks[4 * i + 2]} << 8) | uint32_t{blocks[4 * i + 3]};
    }
    for (size_t i = 16; i < 64; ++i) {
      const uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (size_t i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256CompressFn Sha256CompressAccelerated() {
#ifdef HDC_SHA_NI
  // CPUID directly: not every clang accepts "sha" in __builtin_cpu_supports.
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  const bool sse41 = __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
                     (ecx & bit_SSE4_1) != 0;
  const bool sha = __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
                   (ebx & bit_SHA) != 0;
  return sse41 && sha ? &CompressShaNi : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace detail

bool Sha256Digest::operator==(const Sha256Digest& o) const {
  return std::memcmp(bytes, o.bytes, sizeof(bytes)) == 0;
}

std::string Sha256Digest::ToHex() const {
  std::string out(64, '0');
  for (size_t i = 0; i < 32; ++i) {
    out[2 * i] = kHexDigits[bytes[i] >> 4];
    out[2 * i + 1] = kHexDigits[bytes[i] & 0xf];
  }
  return out;
}

Sha256Stream::Sha256Stream() {
  std::memcpy(state_, kInit, sizeof(state_));
}

void Sha256Stream::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  total_len_ += len;
  if (buffered_ > 0) {
    const size_t take = std::min(len, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    len -= take;
    if (buffered_ < sizeof(buffer_)) return;
    Compress(state_, buffer_, 1);
    buffered_ = 0;
  }
  const size_t whole = len / sizeof(buffer_);
  if (whole > 0) {
    Compress(state_, p, whole);
    p += whole * sizeof(buffer_);
    len -= whole * sizeof(buffer_);
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffered_ = len;
  }
}

void Sha256Stream::UpdateU64(uint64_t v) {
  if (buffered_ + 8 > sizeof(buffer_)) {
    uint8_t le[8];
    for (size_t i = 0; i < 8; ++i) le[i] = static_cast<uint8_t>(v >> (8 * i));
    Update(le, sizeof(le));
    return;
  }
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  std::memcpy(buffer_ + buffered_, &v, sizeof(v));  // little-endian
  buffered_ += 8;
  total_len_ += 8;
  if (buffered_ == sizeof(buffer_)) {
    Compress(state_, buffer_, 1);
    buffered_ = 0;
  }
}

Sha256Digest Sha256Stream::Finish() {
  // Padding (FIPS 180-4 §5.1.1): 0x80, zeros up to byte 56 of a block, then
  // the message length in bits, big-endian — one extra block when the 0x80
  // leaves no room for the length.
  const uint64_t bit_len = total_len_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_ + buffered_, 0, sizeof(buffer_) - buffered_);
    Compress(state_, buffer_, 1);
    buffered_ = 0;
  }
  std::memset(buffer_ + buffered_, 0, 56 - buffered_);
  for (size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (8 * (7 - i)));
  }
  Compress(state_, buffer_, 1);
  buffered_ = 0;
  Sha256Digest digest;
  for (size_t i = 0; i < 8; ++i) {
    digest.bytes[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    digest.bytes[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest.bytes[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest.bytes[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

uint64_t Sha256Stream::Finish64() {
  const Sha256Digest d = Finish();
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) v = (v << 8) | d.bytes[i];
  return v;
}

Sha256Digest Sha256(const void* data, size_t len) {
  Sha256Stream s;
  s.Update(data, len);
  return s.Finish();
}

Sha256Digest Sha256(const std::string& data) {
  return Sha256(data.data(), data.size());
}

uint64_t Sha256Hash64(const void* data, size_t len) {
  Sha256Stream s;
  s.Update(data, len);
  return s.Finish64();
}

uint64_t Sha256Hash64(const std::string& data) {
  return Sha256Hash64(data.data(), data.size());
}

}  // namespace hdc
