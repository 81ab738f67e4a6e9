// Copyright (c) hdc authors. Apache-2.0 license.
//
// LocalIndex raw-speed microbench: wall time per predicate shape for each
// evaluation engine (scan oracle / bitmap). The dataset is a fixed
// synthetic 1M-row instance (override with --rows):
//
//   Make  : categorical, 16 values, uniform  — straddles the array/bitset
//                                              container cutover at 1M rows
//   Brand : categorical, 64 values, uniform  — array containers
//   Model : categorical, 256 values, uniform — sparse array containers
//   Type  : categorical, 8 values, uniform   — dense bitset containers
//   Price : numeric, uniform random in [0, rows)   — zone maps useless
//   Listed: numeric, equal to the row id           — perfectly clustered,
//                                                    the zone-map showcase
//
// Every engine answers the identical deterministic query script, so the
// non-time CSV columns (tuples, overflows) double as a cross-engine
// equivalence check and pin the bench under tools/check_bench_regression.py.
// The nightly gate additionally enforces per-shape ratios: bitmap must
// beat the scan oracle by >= 16x wall time on the selective
// multi-predicate shape, and on the top-k shapes the rank-ordered layout
// stops early by >= 143x (all-wildcard), >= 46x (range-wide-random) and
// >= 29x (topk-overflow-heavy).
//
// Each shape's script is timed --repeats times and the minimum wall is
// reported: the minimum is the least-noise estimator of the true cost on a
// shared machine, and the engine-vs-engine ratio the gate checks needs it.
//
//   ./bench_index [--rows N] [--queries Q] [--repeats R]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "server/local_server.h"
#include "util/macros.h"
#include "util/random.h"

namespace hdc {
namespace bench {
namespace {

constexpr uint64_t kTopK = 100;

std::shared_ptr<const Dataset> BuildDataset(size_t rows) {
  SchemaPtr schema = Schema::Make(
      {AttributeSpec::Categorical("Make", 16),
       AttributeSpec::Categorical("Brand", 64),
       AttributeSpec::Categorical("Model", 256),
       AttributeSpec::Categorical("Type", 8),
       AttributeSpec::NumericBounded("Price", 0,
                                     static_cast<Value>(rows) - 1),
       AttributeSpec::NumericBounded("Listed", 0,
                                     static_cast<Value>(rows) - 1)});
  auto data = std::make_shared<Dataset>(schema);
  Rng rng(0xb17);
  for (size_t i = 0; i < rows; ++i) {
    data->AddUnchecked(Tuple{rng.UniformInt(1, 16), rng.UniformInt(1, 64),
                             rng.UniformInt(1, 256), rng.UniformInt(1, 8),
                             rng.UniformInt(0, static_cast<Value>(rows) - 1),
                             static_cast<Value>(i)});
  }
  return data;
}

struct Shape {
  std::string name;
  std::vector<Query> queries;
};

std::vector<Shape> BuildShapes(const SchemaPtr& schema, size_t rows,
                               size_t queries_per_shape) {
  const Value n = static_cast<Value>(rows);
  const Query full = Query::FullSpace(schema);
  std::vector<Shape> shapes;
  for (const char* name :
       {"cat-1pred", "conjunction-selective", "conjunction-3way",
        "range-narrow-clustered", "range-wide-random", "all-wildcard",
        "topk-overflow-heavy"}) {
    shapes.push_back({name, {}});
  }
  for (size_t i = 0; i < queries_per_shape; ++i) {
    const Value v = static_cast<Value>(i);
    // One moderately selective equality (~rows/64 matches, overflowing).
    shapes[0].queries.push_back(
        full.WithCategoricalEquals(1, 1 + (v * 7) % 64));
    // The headline shape: two dense predicates whose containers are both
    // bitsets at 1M rows, so the bitmap engine folds the conjunction with
    // word-wide ANDs while the scan tests every row. This row carries the
    // >= 16x nightly ratio gate.
    shapes[1].queries.push_back(full.WithCategoricalEquals(0, 1 + v % 16)
                                    .WithCategoricalEquals(3,
                                                           1 + (v * 3) % 8));
    // Three-way narrow conjunction: each predicate passes thousands of
    // rows, the conjunction a handful — the bitmap engine's sparse
    // array-intersection path.
    shapes[2].queries.push_back(full.WithCategoricalEquals(0, 1 + v % 16)
                                    .WithCategoricalEquals(1, 1 + (v * 5) % 64)
                                    .WithCategoricalEquals(2,
                                                           1 + (v * 11) % 256));
    // Narrow band on the clustered column: zone maps skip all but one or
    // two blocks.
    const Value start = (v * 97911) % (n > 1000 ? n - 1000 : 1);
    shapes[3].queries.push_back(
        full.WithNumericRange(5, start, start + 999));
    // Half the table via the random column: a huge overflowing range.
    shapes[4].queries.push_back(
        full.WithNumericRange(4, n / 4, (3 * n) / 4));
    // The whole space: pure top-k selection over every row.
    shapes[5].queries.push_back(full);
    // Category x wide range: big overflow with a two-predicate
    // intersection.
    shapes[6].queries.push_back(
        full.WithCategoricalEquals(0, 1 + v % 16)
            .WithNumericRange(4, 0, n / 2));
  }
  return shapes;
}

}  // namespace
}  // namespace bench
}  // namespace hdc

int main(int argc, char** argv) {
  using namespace hdc;
  using namespace hdc::bench;

  size_t rows = 1'000'000;
  size_t queries_per_shape = 12;
  size_t repeats = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      queries_per_shape =
          static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: %s [--rows N] [--queries Q] [--repeats R]\n",
                   argv[0]);
      return 2;
    }
  }
  HDC_CHECK(rows >= 1000);
  HDC_CHECK(repeats >= 1);

  Banner("bench_index",
         "LocalIndex wall time by predicate shape and evaluation engine");
  std::printf("building %zu-row dataset...\n", rows);
  auto dataset = BuildDataset(rows);
  const std::vector<Shape> shapes =
      BuildShapes(dataset->schema(), rows, queries_per_shape);

  FigureTable table(
      "LocalIndex microbench (k = " + std::to_string(kTopK) + ", " +
          std::to_string(queries_per_shape) + " queries/shape)",
      "bench_index",
      {"engine", "shape", "rows", "queries", "k", "tuples", "overflows",
       "wall_seconds", "qps_wall"});

  for (IndexEngine engine : {IndexEngine::kScan, IndexEngine::kBitmap}) {
    LocalServerOptions options;
    options.engine = engine;
    const auto build_start = std::chrono::steady_clock::now();
    LocalServer server(dataset, kTopK, nullptr, options);
    const double build_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      build_start)
            .count();
    const IndexBuildStats& stats = server.index()->build_stats();
    std::printf(
        "engine %-6s built in %.2fs (%llu array + %llu bitset containers, "
        "%llu zone-map blocks)\n",
        IndexEngineName(engine), build_seconds,
        static_cast<unsigned long long>(stats.array_containers),
        static_cast<unsigned long long>(stats.bitset_containers),
        static_cast<unsigned long long>(stats.zone_map_blocks));

    for (const Shape& shape : shapes) {
      uint64_t tuples = 0;
      uint64_t overflows = 0;
      Response response;
      double wall = 0.0;
      for (size_t rep = 0; rep < repeats; ++rep) {
        tuples = 0;
        overflows = 0;
        const auto start = std::chrono::steady_clock::now();
        for (const Query& query : shape.queries) {
          HDC_CHECK_OK(server.Issue(query, &response));
          tuples += response.size();
          overflows += response.overflow ? 1 : 0;
        }
        const double rep_wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        if (rep == 0 || rep_wall < wall) wall = rep_wall;
      }
      char wall_cell[32], qps_cell[32];
      std::snprintf(wall_cell, sizeof(wall_cell), "%.6f", wall);
      std::snprintf(qps_cell, sizeof(qps_cell), "%.1f",
                    wall > 0 ? static_cast<double>(shape.queries.size()) / wall
                             : 0.0);
      table.AddRow({IndexEngineName(engine), shape.name,
                    std::to_string(rows),
                    std::to_string(shape.queries.size()),
                    std::to_string(kTopK), std::to_string(tuples),
                    std::to_string(overflows), wall_cell, qps_cell});
    }
  }

  table.Emit();
  return 0;
}
