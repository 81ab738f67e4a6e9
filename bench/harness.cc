// Copyright (c) hdc authors. Apache-2.0 license.
#include "harness.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <utility>

#include "server/local_server.h"
#include "server/ranking.h"
#include "util/csv_writer.h"
#include "util/macros.h"

namespace hdc {
namespace bench {

RunStats RunCrawl(Crawler* crawler, std::shared_ptr<const Dataset> dataset,
                  uint64_t k, uint64_t policy_seed,
                  ObservedServer::Callback observer) {
  LocalServer server(dataset, k, MakeRandomPriorityPolicy(policy_seed));
  ObservedServer observed(&server, std::move(observer));

  auto start = std::chrono::steady_clock::now();
  CrawlResult result = crawler->Crawl(&observed);
  auto end = std::chrono::steady_clock::now();

  RunStats stats;
  stats.queries = result.queries_issued;
  stats.ok = result.status.ok();
  stats.status = result.status.ToString();
  stats.wall_seconds = std::chrono::duration<double>(end - start).count();
  stats.extracted = result.extracted.size();

  if (result.status.ok()) {
    HDC_CHECK_MSG(Dataset::MultisetEquals(result.extracted, *dataset),
                  "bench crawl did not extract the exact multiset");
  }
  return stats;
}

void EmitTable(const TablePrinter& table, const std::string& stem,
               const std::vector<std::string>& headers,
               const std::vector<std::vector<std::string>>& rows) {
  table.Print(std::cout);
  std::cout << std::endl;

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (ec) return;  // CSV mirroring is best-effort
  CsvWriter csv("bench_results/" + stem + ".csv");
  if (!csv.status().ok()) return;
  csv.WriteRow(headers);
  for (const auto& row : rows) csv.WriteRow(row);
  (void)csv.Close();  // best-effort, like the rest of the mirroring
}

FigureTable::FigureTable(std::string title, std::string csv_stem,
                         std::vector<std::string> headers)
    : title_(std::move(title)),
      csv_stem_(std::move(csv_stem)),
      headers_(std::move(headers)) {}

void FigureTable::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void FigureTable::Emit() {
  TablePrinter table(title_, headers_);
  for (const auto& row : rows_) table.AddRow(row);
  EmitTable(table, csv_stem_, headers_, rows_);
}

void Banner(const std::string& figure, const std::string& description) {
  std::cout << "########################################################\n"
            << "# " << figure << "\n"
            << "# " << description << "\n"
            << "########################################################\n\n";
}

}  // namespace bench
}  // namespace hdc
