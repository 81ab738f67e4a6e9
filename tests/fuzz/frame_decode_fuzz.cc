// Copyright (c) hdc authors. Apache-2.0 license.
//
// Fuzz harness for the v2 wire-frame decoders (net/frame.h) — the exact
// surface a hostile peer controls. The first input byte selects a decoder,
// the rest is fed to it as a raw payload; every decoder must return a typed
// error (never crash, never read out of bounds, never allocate a claimed
// length unchecked) on arbitrary bytes. DecodeQueryBatch and DecodeResponse
// run against a fixed mixed schema so the schema-validation paths
// (categorical pin/full-range forms, numeric extents, hash verification)
// are all reachable.
//
// Build shapes (tests/fuzz/CMakeLists.txt):
//   - clang + HDC_BUILD_FUZZERS: libFuzzer entry point (HDC_HAVE_LIBFUZZER),
//     run `frame_decode_fuzz -runs=N corpus/` for a bounded smoke;
//   - any compiler: standalone driver replaying corpus files/dirs, which is
//     the tier-1 `frame_decode_fuzz_replay` ctest; `--generate DIR` rebuilds
//     the seed corpus from Encode* round-trips of representative messages.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "net/frame.h"
#include "server/answer_cache.h"
#include "server/response.h"

namespace {

using hdc::AttributeSpec;
using hdc::Query;
using hdc::Response;
using hdc::Schema;
using hdc::SchemaPtr;
using hdc::Status;

/// One schema for every fuzz run: a categorical attribute (domain 5) next
/// to a bounded numeric one, covering both validation branches of
/// DecodeQueryBatch.
const SchemaPtr& FuzzSchema() {
  static const SchemaPtr schema = Schema::Make(
      {AttributeSpec::Categorical("make", 5),
       AttributeSpec::NumericBounded("price", 0, 1000)});
  return schema;
}

void FuzzOne(const uint8_t* data, size_t size) {
  if (size == 0) return;
  const uint8_t selector = data[0];
  const std::string payload(reinterpret_cast<const char*>(data + 1),
                            size - 1);

  switch (selector % 8) {
    case 0: {
      hdc::net::HelloMessage msg;
      (void)hdc::net::DecodeHello(payload, &msg);
      break;
    }
    case 1: {
      hdc::net::WelcomeMessage msg;
      (void)hdc::net::DecodeWelcome(payload, &msg);
      break;
    }
    case 2: {
      hdc::net::BatchEndMessage msg;
      (void)hdc::net::DecodeBatchEnd(payload, &msg);
      break;
    }
    case 3: {
      hdc::net::StatsMessage msg;
      (void)hdc::net::DecodeStats(payload, &msg);
      break;
    }
    case 4: {
      std::vector<Query> queries;
      (void)hdc::net::DecodeQueryBatch(payload, FuzzSchema(), &queries);
      break;
    }
    case 5: {
      Response response;
      uint64_t hash = 0;
      (void)hdc::net::DecodeResponse(
          payload, FuzzSchema()->num_attributes(), &response, &hash);
      break;
    }
    case 6: {
      uint64_t max_queries = 0;
      (void)hdc::net::DecodeRefill(payload, &max_queries);
      break;
    }
    case 7: {
      Status status;
      (void)hdc::net::DecodeAck(payload, &status);
      break;
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  FuzzOne(data, size);
  return 0;
}

#if !defined(HDC_HAVE_LIBFUZZER)

// Standalone driver (replay_driver.h): replays corpus files (regression
// mode, registered as the tier-1 `frame_decode_fuzz_replay` ctest) and
// regenerates the seed corpus. libFuzzer builds get their main() from the
// sanitizer runtime.

#include <filesystem>
#include <fstream>
#include <iostream>

#include "replay_driver.h"

namespace {

namespace fs = std::filesystem;

void WriteSeed(const fs::path& dir, const std::string& name,
               uint8_t selector, const std::string& payload) {
  std::ofstream out(dir / name, std::ios::binary);
  out.put(static_cast<char>(selector));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

/// Seeds are Encode* round-trips of representative messages — the same
/// shapes frame_codec_test exercises — so the fuzzer starts from valid
/// frames and mutates toward the edges instead of rediscovering the
/// format from zero.
int Generate(const std::string& dir_arg) {
  const fs::path dir(dir_arg);
  fs::create_directories(dir);

  hdc::net::HelloMessage hello;
  hello.max_queries = 250;
  hello.weight = 3;
  hello.max_lane_parallelism = 2;
  hello.label = "fuzz-seed";
  WriteSeed(dir, "hello", 0, hdc::net::EncodeHello(hello));

  hdc::net::WelcomeMessage welcome;
  welcome.session_id = 7;
  welcome.k = 100;
  welcome.batch_parallelism = 4;
  welcome.db_version = 3;
  for (size_t i = 0; i < FuzzSchema()->num_attributes(); ++i) {
    welcome.attributes.push_back(FuzzSchema()->attribute(i));
  }
  WriteSeed(dir, "welcome", 1, hdc::net::EncodeWelcome(welcome));

  hdc::net::BatchEndMessage end;
  end.code = Status::Code::kResourceExhausted;
  end.message = "query budget of 250 queries exhausted";
  end.queue_wait_total_seconds = 0.125;
  end.db_version = 3;
  WriteSeed(dir, "batch_end", 2, hdc::net::EncodeBatchEnd(end));

  hdc::net::StatsMessage stats;
  stats.queries_served = 42;
  stats.tuples_returned = 1234;
  stats.overflow_count = 5;
  stats.budget_remaining = 208;
  WriteSeed(dir, "stats", 3, hdc::net::EncodeStats(stats));

  // One wildcard query, one restricted: both legal categorical forms.
  const Query wildcard = Query::FullSpace(FuzzSchema());
  const Query restricted =
      wildcard.WithCategoricalEquals(0, 2).WithNumericRange(1, 10, 500);
  WriteSeed(dir, "query_batch", 4,
            hdc::net::EncodeQueryBatch({wildcard, restricted}));

  Response response;
  response.overflow = true;
  response.tuples.push_back({{1, 250}, 11});
  response.tuples.push_back({{5, 999}, 12});
  WriteSeed(dir, "response_plain", 5, hdc::net::EncodeResponse(response));
  const uint64_t hash = hdc::HashResponse(response);
  WriteSeed(dir, "response_hashed", 5,
            hdc::net::EncodeResponse(response, &hash));

  WriteSeed(dir, "refill", 6, hdc::net::EncodeRefill(500));
  WriteSeed(dir, "ack", 7,
            hdc::net::EncodeAck(Status::FailedPrecondition(
                "session was created without a budget")));

  std::cout << "frame_decode_fuzz: wrote seed corpus to " << dir << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hdc::fuzz::ReplayMain(argc, argv, "frame_decode_fuzz", FuzzOne,
                               Generate);
}

#endif  // !HDC_HAVE_LIBFUZZER
