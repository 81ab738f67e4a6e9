// Copyright (c) hdc authors. Apache-2.0 license.
//
// Unit tests of util/sha256: the FIPS 180-4 known answers, the accelerated
// block compressor held to the portable reference at every message length
// and at random streaming split points, HashResponse pinned to digests an
// earlier build persisted, and a cold-start race on the one-time CPU check.
// The reference digests here pad messages with the test's own code, so
// Sha256Stream's padding is checked too, not just its compressor.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "server/answer_cache.h"
#include "util/random.h"
#include "util/sha256.h"

namespace hdc {
namespace {

constexpr uint32_t kIv[8] = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
};

/// FIPS 180-4 §5.1.1 padding, written independently of Sha256Stream.
std::string Pad(const std::string& msg) {
  std::string padded = msg;
  padded.push_back(static_cast<char>(0x80));
  while (padded.size() % 64 != 56) padded.push_back('\0');
  const uint64_t bits = uint64_t{msg.size()} * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<char>(static_cast<uint8_t>(bits >> (8 * i))));
  }
  return padded;
}

struct State {
  uint32_t words[8];
  bool operator==(const State& o) const {
    for (size_t i = 0; i < 8; ++i) {
      if (words[i] != o.words[i]) return false;
    }
    return true;
  }
};

/// Runs `compress` over the padded message in one multi-block call.
State CompressAll(detail::Sha256CompressFn compress, const std::string& msg) {
  const std::string padded = Pad(msg);
  State s;
  std::copy(kIv, kIv + 8, s.words);
  compress(s.words, reinterpret_cast<const uint8_t*>(padded.data()),
           padded.size() / 64);
  return s;
}

/// The same, one block per call: multi-block must not differ from it.
State CompressEachBlock(detail::Sha256CompressFn compress,
                        const std::string& msg) {
  const std::string padded = Pad(msg);
  State s;
  std::copy(kIv, kIv + 8, s.words);
  for (size_t off = 0; off < padded.size(); off += 64) {
    compress(s.words, reinterpret_cast<const uint8_t*>(padded.data()) + off,
             1);
  }
  return s;
}

Sha256Digest ToDigest(const State& s) {
  Sha256Digest d;
  for (size_t i = 0; i < 8; ++i) {
    for (size_t b = 0; b < 4; ++b) {
      d.bytes[4 * i + b] = static_cast<uint8_t>(s.words[i] >> (24 - 8 * b));
    }
  }
  return d;
}

/// The reference digest: test padding + the portable compressor.
Sha256Digest ReferenceDigest(const std::string& msg) {
  return ToDigest(CompressAll(&detail::Sha256CompressPortable, msg));
}

/// Deterministic test message; every byte value occurs.
std::string Message(size_t len) {
  std::string msg(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    msg[i] = static_cast<char>(static_cast<uint8_t>(i * 131 + len * 7 + 3));
  }
  return msg;
}

std::string LittleEndian(uint64_t v) {
  std::string out(8, '\0');
  for (size_t i = 0; i < 8; ++i) {
    out[i] = static_cast<char>(static_cast<uint8_t>(v >> (8 * i)));
  }
  return out;
}

// Defined first on purpose: gtest runs a file's tests in definition order,
// so these threads make the process's first hash calls and race the
// one-time CPU check that picks the compressor.
TEST(Sha256ColdStartTest, EightThreadsHashingFromFirstUseAgree) {
  constexpr size_t kThreads = 8;
  const std::string msg = Message(1100);
  std::vector<Sha256Digest> got(kThreads);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      got[t] = Sha256(msg);
    });
  }
  for (std::thread& th : threads) th.join();
  const Sha256Digest want = ReferenceDigest(msg);
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], want) << "thread " << t;
  }
}

TEST(Sha256Test, FipsKnownAnswers) {
  const std::string two_block =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  const std::string million(1000000, 'a');
  EXPECT_EQ(Sha256("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Sha256(two_block).ToHex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(Sha256(million).ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");

  // The portable reference on its own, through the test's padding.
  EXPECT_EQ(ReferenceDigest("abc"), Sha256("abc"));
  EXPECT_EQ(ReferenceDigest(two_block), Sha256(two_block));
  EXPECT_EQ(ReferenceDigest(million), Sha256(million));

  // Truncation: the first eight digest bytes, big-endian.
  EXPECT_EQ(Sha256Hash64("abc"), 0xba7816bf8f01cfeaULL);
}

TEST(Sha256Test, StreamMatchesReferenceAtEveryLength) {
  for (size_t len = 0; len <= 1100; ++len) {
    const std::string msg = Message(len);
    ASSERT_EQ(Sha256(msg), ReferenceDigest(msg)) << "length " << len;
  }
}

TEST(Sha256Test, AcceleratedCompressMatchesPortableAtEveryLength) {
  const detail::Sha256CompressFn accelerated =
      detail::Sha256CompressAccelerated();
  if (accelerated == nullptr) {
    GTEST_SKIP() << "this CPU (or a non-x86-64 build) has no SHA "
                    "extensions; only the portable compressor runs here";
  }
  for (size_t len = 0; len <= 1100; ++len) {
    const std::string msg = Message(len);
    const State want = CompressAll(&detail::Sha256CompressPortable, msg);
    ASSERT_TRUE(CompressAll(accelerated, msg) == want) << "length " << len;
    ASSERT_TRUE(CompressEachBlock(accelerated, msg) == want)
        << "length " << len;
  }
}

TEST(Sha256Test, RandomUpdateAndU64SplitsMatchReference) {
  Rng rng(2012);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t len = static_cast<size_t>(rng.UniformU64(1101));
    std::string msg;
    Sha256Stream stream;
    while (msg.size() < len) {
      if (rng.Bernoulli(0.4)) {
        const uint64_t word = rng.Next();
        stream.UpdateU64(word);
        msg += LittleEndian(word);
        continue;
      }
      const size_t piece = static_cast<size_t>(rng.UniformU64(150));
      std::string bytes(piece, '\0');
      for (char& c : bytes) {
        c = static_cast<char>(static_cast<uint8_t>(rng.Next()));
      }
      stream.Update(bytes);
      msg += bytes;
    }
    ASSERT_EQ(stream.Finish(), ReferenceDigest(msg)) << "trial " << trial;
  }
}

// Pins recorded by an earlier build: a content hash is persisted on the
// wire and in delta-crawl records, so it may never change.
TEST(HashResponsePinTest, FuzzSeedAnswer) {
  Response response;
  response.overflow = true;
  response.tuples.push_back({{1, 250}, 11});
  response.tuples.push_back({{5, 999}, 12});
  EXPECT_EQ(HashResponse(response), 0xd61581549ab0b0d6ULL);
}

TEST(HashResponsePinTest, FullOverflowAnswerOf256Tuples) {
  Response response;
  response.overflow = true;
  std::string words = LittleEndian(1) + LittleEndian(256);
  for (int64_t i = 0; i < 256; ++i) {
    ReturnedTuple rt;
    rt.hidden_id = 1000 + 7 * static_cast<uint64_t>(i);
    rt.tuple = Tuple{i % 5 + 1, i * 37 - 4000, -i, i << 33, 1, 999999 - i};
    words += LittleEndian(rt.hidden_id) + LittleEndian(6);
    for (const Value v : rt.tuple.values()) {
      words += LittleEndian(static_cast<uint64_t>(v));
    }
    response.tuples.push_back(rt);
  }
  EXPECT_EQ(HashResponse(response), 0xd1a01b98ea071c12ULL);
  // The staged words are exactly the documented stream.
  EXPECT_EQ(HashResponse(response), Sha256Hash64(words));
}

}  // namespace
}  // namespace hdc
