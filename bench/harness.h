// Copyright (c) hdc authors. Apache-2.0 license.
//
// Shared plumbing for the figure-reproduction benches. Every bench binary
// prints an aligned table whose rows mirror one figure of the paper's
// evaluation (Section 6) and appends the same series to a CSV under
// ./bench_results/ for external plotting.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/crawler.h"
#include "data/dataset.h"
#include "server/decorators.h"
#include "util/table_printer.h"

namespace hdc {
namespace bench {

/// Outcome of one measured crawl.
struct RunStats {
  uint64_t queries = 0;
  bool ok = false;
  std::string status;
  double wall_seconds = 0.0;
  uint64_t extracted = 0;
};

/// Crawls `dataset` with `crawler` against a LocalServer with result limit
/// `k` and the paper's random-priority ranking (fixed seed for
/// reproducibility). Verifies the extraction is the exact multiset when the
/// crawl completes; aborts the bench on a mismatch — a wrong reproduction
/// must not print plausible numbers. When `observer` is set, the crawl runs
/// through an ObservedServer calling it per answered query (e.g. a
/// ProgressRecorder for Figure 13).
RunStats RunCrawl(Crawler* crawler, std::shared_ptr<const Dataset> dataset,
                  uint64_t k, uint64_t policy_seed = 0x5eed,
                  ObservedServer::Callback observer = nullptr);

/// Writes `table` to stdout and mirrors it to bench_results/<stem>.csv.
void EmitTable(const TablePrinter& table, const std::string& stem,
               const std::vector<std::string>& headers,
               const std::vector<std::vector<std::string>>& rows);

/// Convenience wrapper that keeps rows in one place.
class FigureTable {
 public:
  FigureTable(std::string title, std::string csv_stem,
              std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);

  /// Prints the table and writes the CSV.
  void Emit();

 private:
  std::string title_;
  std::string csv_stem_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints the standard bench banner (figure id + setup recap).
void Banner(const std::string& figure, const std::string& description);

}  // namespace bench
}  // namespace hdc
