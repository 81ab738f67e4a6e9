// Copyright (c) hdc authors. Apache-2.0 license.
//
// Fuzz harness for the delta-crawl record reader (core/delta_crawl.h) — a
// file a damaged disk or a hostile hand controls. Every input is loaded
// against three schemas (numeric, categorical, mixed). The reader must
// return a typed InvalidArgument or a record — never crash, never size a
// container from a claimed count — and a record it returns must save and
// load again to the same bytes.
//
// Build shapes (tests/fuzz/CMakeLists.txt):
//   - clang + HDC_BUILD_FUZZERS: libFuzzer entry point (HDC_HAVE_LIBFUZZER),
//     run `crawl_record_fuzz -runs=N crawl_record_corpus/` for a bounded
//     smoke;
//   - any compiler: standalone driver replaying corpus files/dirs, which is
//     the tier-1 `crawl_record_fuzz_replay` ctest; `--generate DIR` rebuilds
//     the seed corpus from BuildCrawlRecord + SaveCrawlRecord round-trips.

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "core/delta_crawl.h"
#include "gen/synthetic.h"
#include "util/macros.h"

namespace {

using hdc::CrawlRecord;
using hdc::Dataset;
using hdc::SchemaPtr;
using hdc::Status;

/// The seeds' all-numeric dataset.
const std::shared_ptr<const Dataset>& NumericData() {
  static const std::shared_ptr<const Dataset> data = [] {
    hdc::SyntheticNumericOptions gen;
    gen.d = 2;
    gen.n = 60;
    gen.value_range = 100;
    gen.seed = 42;
    return std::make_shared<const Dataset>(
        hdc::GenerateSyntheticNumeric(gen));
  }();
  return data;
}

/// The seeds' all-categorical dataset.
const std::shared_ptr<const Dataset>& CategoricalData() {
  static const std::shared_ptr<const Dataset> data = [] {
    hdc::SyntheticCategoricalOptions gen;
    gen.domain_sizes = {3, 4};
    gen.n = 60;
    gen.seed = 91;
    return std::make_shared<const Dataset>(
        hdc::GenerateSyntheticCategorical(gen));
  }();
  return data;
}

/// The seeds' mixed dataset: one categorical attribute, one numeric.
const std::shared_ptr<const Dataset>& MixedData() {
  static const std::shared_ptr<const Dataset> data = [] {
    hdc::SyntheticMixedOptions gen;
    gen.domain_sizes = {3};
    gen.num_numeric = 1;
    gen.n = 60;
    gen.value_range = 120;
    gen.seed = 57;
    return std::make_shared<const Dataset>(hdc::GenerateSyntheticMixed(gen));
  }();
  return data;
}

std::string Save(const CrawlRecord& record) {
  std::ostringstream out;
  HDC_CHECK_OK(hdc::SaveCrawlRecord(record, &out));
  return out.str();
}

void LoadOne(const std::string& bytes, const SchemaPtr& schema) {
  std::istringstream in(bytes);
  CrawlRecord record;
  const Status loaded = hdc::LoadCrawlRecord(&in, schema, &record);
  if (!loaded.ok()) {
    HDC_CHECK(loaded.IsInvalidArgument());
    return;
  }
  const std::string saved = Save(record);
  std::istringstream again(saved);
  CrawlRecord reloaded;
  HDC_CHECK_OK(hdc::LoadCrawlRecord(&again, schema, &reloaded));
  HDC_CHECK(Save(reloaded) == saved);
}

void FuzzOne(const uint8_t* data, size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  for (const SchemaPtr& schema :
       {NumericData()->schema(), CategoricalData()->schema(),
        MixedData()->schema()}) {
    LoadOne(bytes, schema);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  FuzzOne(data, size);
  return 0;
}

#if !defined(HDC_HAVE_LIBFUZZER)

// Standalone driver (replay_driver.h): replays corpus files (regression
// mode, registered as the tier-1 `crawl_record_fuzz_replay` ctest) and
// regenerates the seed corpus. libFuzzer builds get their main() from the
// sanitizer runtime.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "replay_driver.h"
#include "server/local_server.h"

namespace {

namespace fs = std::filesystem;

/// The saved record of a full partition crawl of `data`.
std::string Record(const std::shared_ptr<const Dataset>& data) {
  hdc::LocalServer server(data, std::max<uint64_t>(
                                    8, data->MaxPointMultiplicity()));
  CrawlRecord record;
  HDC_CHECK_OK(hdc::BuildCrawlRecord(&server, &record));
  return Save(record);
}

void WriteSeed(const fs::path& dir, const std::string& name,
               const std::string& bytes) {
  std::ofstream out(dir / name, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Replaces the rest of the first line that starts with `tag` (after the
/// tag) with `tail`.
std::string WithLineTail(std::string text, const std::string& tag,
                         const std::string& tail) {
  const size_t from = text.find("\n" + tag) + 1 + tag.size();
  return text.replace(from, text.find('\n', from) - from, tail);
}

/// Seeds are Save round-trips of full records over the three schemas, plus
/// the three hostile inputs that once aborted the process: an unparsable
/// version, a region count of 2^64 - 1 and a region header claiming 2^62
/// tuples.
int Generate(const std::string& dir_arg) {
  const fs::path dir(dir_arg);
  fs::create_directories(dir);
  const std::string numeric = Record(NumericData());
  WriteSeed(dir, "record_numeric", numeric);
  WriteSeed(dir, "record_categorical", Record(CategoricalData()));
  WriteSeed(dir, "record_mixed", Record(MixedData()));

  WriteSeed(dir, "regression_version",
            WithLineTail(numeric, "version ", "abc"));
  WriteSeed(dir, "regression_region_count",
            WithLineTail(numeric, "regions ", "18446744073709551615"));
  // Keep the first region's hash, claim 2^62 tuples, keep its extents.
  const size_t from = numeric.find("\nregion ") + 1;
  std::istringstream header(
      numeric.substr(from, numeric.find('\n', from) - from));
  std::string tag, hash, count, extents;
  header >> tag >> hash >> count;
  std::getline(header, extents);
  WriteSeed(dir, "regression_tuple_count",
            WithLineTail(numeric, "region ",
                         hash + " 4611686018427387904" + extents));

  std::cout << "crawl_record_fuzz: wrote seed corpus to " << dir << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hdc::fuzz::ReplayMain(argc, argv, "crawl_record_fuzz", FuzzOne,
                               Generate);
}

#endif  // !HDC_HAVE_LIBFUZZER
