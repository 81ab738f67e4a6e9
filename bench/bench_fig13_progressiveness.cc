// Copyright (c) hdc authors. Apache-2.0 license.
//
// Figure 13 reproduction: output progressiveness of the hybrid crawler at
// k = 256 — the percentage of tuples already retrieved as a function of the
// percentage of queries already issued, sampled at every decile.
//
// Paper shape to reproduce: both curves hug the diagonal ("linear
// progressiveness"), so a crawl interrupted after x% of its queries has
// retrieved roughly x% of the database. The curve is sampled at the server
// boundary by a ProgressRecorder (server/decorators.h) on an
// ObservedServer directly beneath the crawler.
#include <functional>
#include <memory>
#include <vector>

#include "core/hybrid.h"
#include "gen/adult_gen.h"
#include "gen/yahoo_gen.h"
#include "harness.h"

namespace hdc {
namespace bench {
namespace {

/// Percent of rows seen at each decile of the query budget.
std::vector<double> ProgressDeciles(const std::shared_ptr<const Dataset>& data,
                                    uint64_t k) {
  HybridCrawler crawler;
  ProgressRecorder recorder;
  RunStats stats = RunCrawl(&crawler, data, k, 0x5eed, std::ref(recorder));
  HDC_CHECK(stats.ok);
  const std::vector<ProgressSample>& trace = recorder.samples();
  HDC_CHECK(!trace.empty());

  std::vector<double> out;
  const double n = static_cast<double>(data->size());
  for (int decile = 1; decile <= 10; ++decile) {
    size_t idx = trace.size() * decile / 10;
    if (idx > 0) --idx;
    out.push_back(100.0 * static_cast<double>(trace[idx].rows_seen) / n);
  }
  return out;
}

void Run() {
  Banner("Figure 13",
         "Output progressiveness of hybrid (k=256): % of tuples retrieved "
         "vs % of queries issued. Expected: near-diagonal curves for both "
         "datasets");
  const uint64_t k = 256;
  auto yahoo = std::make_shared<const Dataset>(GenerateYahoo());
  auto adult = std::make_shared<const Dataset>(GenerateAdult());

  std::vector<double> yahoo_curve = ProgressDeciles(yahoo, k);
  std::vector<double> adult_curve = ProgressDeciles(adult, k);

  FigureTable table("Figure 13: progressiveness of hybrid (k=256)", "fig13",
                    {"% queries", "Yahoo % tuples", "Adult % tuples"});
  for (int decile = 1; decile <= 10; ++decile) {
    table.AddRow({std::to_string(decile * 10) + "%",
                  TablePrinter::Cell(yahoo_curve[decile - 1], 1),
                  TablePrinter::Cell(adult_curve[decile - 1], 1)});
  }
  table.Emit();
}

}  // namespace
}  // namespace bench
}  // namespace hdc

int main() {
  hdc::bench::Run();
  return 0;
}
