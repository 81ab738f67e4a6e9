// Copyright (c) hdc authors. Apache-2.0 license.
//
// hdc_perfbench: runs complete, verified crawls of one workload for a fixed
// time and prints the measured metrics as one JSON object on stdout.
//
//   hdc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--workdir <dir>]
//
// --trace 0 measures the end-to-end metrics: every crawl runs under a single
// timing probe directly below the crawler. --trace 1 splits crawl time
// across layers from outside the program: it alternates untraced crawls
// with traced ones (probes also around every shard backend, every round's
// queries recorded), then replays the recorded rounds against the layers no
// probe can reach — the index under a session, the session behind the
// endpoint — and derives each layer's self time by subtraction.
// perfbench/run.py builds this binary and is the benchmark's command.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace hdc {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 9;
constexpr size_t kMinSets = 3;
/// An untraced run samples at least this many rounds, so its tail latency
/// can always be the p99: ten or more samples lie beyond it.
constexpr size_t kMinRounds = 1000;
constexpr double kTailPercentile = 99;
/// Share of a traced run spent crawling; the rest replays.
constexpr double kTracedCrawlShare = 0.6;
constexpr double kCoverageTolerance = 0.05;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p / 100 * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Sum(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return sum;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Metrics in emission order, each with its unit.
class Metrics {
 public:
  void Set(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void Print(std::ostream& out) const {
    out << "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
          << (std::isfinite(m.value) ? buf : "null") << ", \"unit\": \""
          << m.unit << "\"}";
    }
    out << "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Tallies correctness over every measured crawl. Besides each crawl's own
/// verdict, every crawl of a run must bill the same query count.
struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  uint64_t queries = 0;  ///< the first crawl's bill

  void Add(const CrawlRecord& rec) {
    if (attempted == 0) queries = rec.queries;
    ++attempted;
    std::string error = rec.error;
    if (error.empty() && rec.queries != queries) {
      error = "billed " + std::to_string(rec.queries) +
              " queries; an earlier crawl billed " + std::to_string(queries);
    }
    if (!error.empty()) {
      ++failed;
      if (errors.size() < 5) errors.push_back(error);
    }
  }
  void Fail(const std::string& error) { errors.push_back(error); }
  bool correct() const { return failed == 0 && errors.empty(); }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintResult(const Args& args, const Verdict& verdict,
                 const Metrics& metrics,
                 const std::map<std::string, double>& notes) {
  std::ostream& out = std::cout;
  out << "{\"workload\": " << JsonString(args.workload)
      << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
      << ", \"correct\": " << (verdict.correct() ? "true" : "false")
      << ", \"attempted\": " << verdict.attempted
      << ", \"failed\": " << verdict.failed << ", \"errors\": [";
  for (size_t i = 0; i < verdict.errors.size(); ++i) {
    out << (i ? ", " : "") << JsonString(verdict.errors[i]);
  }
  out << "], \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
      << ", \"notes\": {";
  size_t i = 0;
  for (const auto& [name, value] : notes) {
    out << (i++ ? ", " : "") << JsonString(name) << ": " << value;
  }
  out << "}, \"metrics\": ";
  metrics.Print(out);
  out << "}" << std::endl;
}

/// Runs crawl sets until `deadline`, and until every pass has kMinSets sets
/// and the first pass `min_rounds` rounds, cycling through `passes`;
/// returns the sets of each pass.
std::vector<std::vector<CrawlSet>> RunUntil(Workload* workload,
                                            const std::vector<Pass>& passes,
                                            Clock::time_point deadline,
                                            size_t min_rounds = 0) {
  std::vector<std::vector<CrawlSet>> sets(passes.size());
  bool recorded = false;
  size_t rounds = 0;
  for (size_t n = 0; Clock::now() < deadline ||
                     sets.back().size() < kMinSets || rounds < min_rounds;
       ++n) {
    const size_t p = n % passes.size();
    Pass pass = passes[p];
    pass.record = pass.traced && !recorded;  // one recording is enough
    recorded = recorded || pass.record;
    sets[p].push_back(workload->RunSet(pass));
    if (p == 0) {
      for (const CrawlRecord& rec : sets[p].back().crawls) {
        rounds += rec.rounds.size();
      }
    }
  }
  return sets;
}

std::vector<const CrawlRecord*> Crawls(const std::vector<CrawlSet>& sets) {
  std::vector<const CrawlRecord*> out;
  for (const CrawlSet& set : sets) {
    for (const CrawlRecord& rec : set.crawls) out.push_back(&rec);
  }
  return out;
}

std::vector<double> Each(const std::vector<const CrawlRecord*>& crawls,
                         const std::function<double(const CrawlRecord&)>& f) {
  std::vector<double> out;
  for (const CrawlRecord* rec : crawls) out.push_back(f(*rec));
  return out;
}

double CoreSelf(const CrawlRecord& rec) { return rec.wall - Sum(rec.rounds); }

/// Σ_r max(0, outer[r] - inner[r]): the time a layer adds around the layer
/// below it, round by round.
double SelfAbove(const std::vector<double>& outer,
                 const std::vector<double>& inner) {
  double sum = 0;
  for (size_t r = 0; r < outer.size(); ++r) {
    sum += std::max(0.0, outer[r] - inner[r]);
  }
  return sum;
}

void EndToEnd(Workload* workload, const Args& args,
              const std::vector<double>& setups, Verdict* verdict,
              Metrics* metrics, std::map<std::string, double>* notes) {
  const auto sets = RunUntil(
      workload, {Pass{}},
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds)),
      kMinRounds);
  const std::vector<const CrawlRecord*> crawls = Crawls(sets[0]);
  std::vector<double> rounds, throughput;
  for (const CrawlRecord* rec : crawls) {
    verdict->Add(*rec);
    rounds.insert(rounds.end(), rec->rounds.begin(), rec->rounds.end());
  }
  // Billed queries of all clients per second of each set's wall time; the
  // median over sets, like every other time here, so one stalled set does
  // not move it.
  for (const CrawlSet& set : sets[0]) {
    double queries = 0;
    for (const CrawlRecord& rec : set.crawls) queries += rec.queries;
    throughput.push_back(queries / set.wall);
  }

  metrics->Set("crawl_s", Median(Each(crawls, [](const CrawlRecord& r) {
                 return r.wall;
               })),
               "s");
  metrics->Set("queries_per_s", Median(throughput), "1/s");
  metrics->Set("round_ms_p50", Median(rounds) * 1e3, "ms");
  metrics->Set("round_ms_tail", Percentile(rounds, kTailPercentile) * 1e3,
               "ms");
  metrics->Set("queries", static_cast<double>(verdict->queries), "count");
  metrics->Set("setup_s", Median(setups), "s");
  metrics->Set("peak_rss_mb", PeakRssMb(), "MiB");
  metrics->Set("failed_frac",
               static_cast<double>(verdict->failed) /
                   std::max<uint64_t>(1, verdict->attempted),
               "ratio");
  (*notes)["round_ms_tail_percentile"] = kTailPercentile;
  (*notes)["rounds_sampled"] = static_cast<double>(rounds.size());
  (*notes)["crawls"] = static_cast<double>(crawls.size());
}

void Traced(Workload* workload, const Args& args, Verdict* verdict,
            Metrics* metrics, std::map<std::string, double>* notes) {
  const Clock::time_point start = Clock::now();
  const auto budget = [&](double share) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(args.seconds * share));
  };

  // Crawl phase: untraced and traced crawls interleaved so that both see
  // the same machine; the log-off pass separates the WAL's share.
  std::vector<Pass> passes = {Pass{}, Pass{/*traced=*/true}};
  if (workload->has_wal()) {
    Pass off{/*traced=*/true};
    off.wal = false;
    passes.push_back(off);
  }
  const auto sets = RunUntil(workload, passes, budget(kTracedCrawlShare));
  const auto untraced = Crawls(sets[0]);
  const auto traced = Crawls(sets[1]);
  const auto log_off = workload->has_wal() ? Crawls(sets[2]) : traced;
  std::vector<const CrawlRecord*> probed = traced;  // every probed crawl
  if (workload->has_wal()) {
    probed.insert(probed.end(), log_off.begin(), log_off.end());
  }
  for (const CrawlRecord* rec : untraced) verdict->Add(*rec);
  for (const CrawlRecord* rec : probed) verdict->Add(*rec);
  const size_t rounds = traced[0]->rounds.size();
  for (const CrawlRecord* rec : probed) {
    if (rec->rounds.size() != rounds) {
      verdict->Fail("round count differs between crawls; replay pairing "
                    "needs one conversation");
      return;
    }
  }

  // Replay phase: the recorded rounds, against the layers below the probes.
  const std::vector<std::vector<Query>>& recorded = traced[0]->recorded;
  std::vector<Replay> replays;
  while (Clock::now() < budget(1.0) || replays.size() < kMinSets) {
    replays.push_back(workload->ReplayRounds(recorded));
  }
  std::vector<double> eval(rounds), session(rounds), member_eval;
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<double> e, s;
    for (const Replay& replay : replays) {
      e.push_back(replay.eval[r]);
      if (!replay.session.empty()) s.push_back(replay.session[r]);
    }
    eval[r] = Median(e);
    session[r] = Median(s);
  }
  for (const Replay& replay : replays) {
    member_eval.insert(member_eval.end(), replay.member_eval.begin(),
                       replay.member_eval.end());
  }

  const auto wall = [](const CrawlRecord& r) { return r.wall; };
  const double crawl_traced = Median(Each(traced, wall));
  const double crawl_untraced = Median(Each(untraced, wall));
  const double core_self = Median(Each(log_off, CoreSelf));
  const double core_self_on = Median(Each(traced, CoreSelf));
  const double wal_commit = workload->has_wal() ? core_self_on - core_self : 0;
  const CrawlRecord& first = *traced[0];

  // Each probed crawl is split round by round along its critical path:
  // crawler | [scatter | slowest backend] | [wire | session] | index. The
  // replayed times are per-round medians; each layer's self time is a
  // median over crawls.
  const bool sharded = !first.shard_rounds.empty();
  const bool remote = !replays[0].session.empty();
  std::vector<double> shard_scatter, net_overhead, session_self, ratios;
  std::vector<double> coverage;  // per crawl: Σ layer self times / wall
  std::vector<double> backend(rounds);
  const double index_eval = Sum(eval);
  const double remote_session = remote ? SelfAbove(session, eval) : 0;
  if (remote) session_self.push_back(remote_session);
  for (const CrawlRecord* rec : probed) {
    double layers = CoreSelf(*rec) + index_eval;
    if (sharded) {
      // The scatter round waits for its slowest backend: that backend's
      // session, and below it its index, are the critical path.
      for (size_t r = 0; r < rounds; ++r) {
        double max = 0, mean = 0;
        for (const auto& shard : rec->shard_rounds) {
          max = std::max(max, shard[r]);
          mean += shard[r] / static_cast<double>(rec->shard_rounds.size());
        }
        backend[r] = max;
        if (mean > 0) ratios.push_back(max / mean);
      }
      shard_scatter.push_back(SelfAbove(rec->rounds, backend));
      session_self.push_back(SelfAbove(backend, eval));
      layers += shard_scatter.back() + session_self.back();
    } else if (remote) {
      net_overhead.push_back(SelfAbove(rec->rounds, session));
      layers += net_overhead.back() + remote_session;
    } else {
      session_self.push_back(SelfAbove(rec->rounds, eval));
      layers += session_self.back();
    }
    coverage.push_back(layers / rec->wall);
  }
  const double scatter_s = Median(shard_scatter);
  const double net_s = Median(net_overhead);
  const double session_s = Median(session_self);
  const double coverage_ratio = Median(coverage);

  std::vector<double> skews;
  for (const CrawlSet& set : sets[0]) {
    double lo = set.crawls[0].wall, hi = lo;
    for (const CrawlRecord& rec : set.crawls) {
      lo = std::min(lo, rec.wall);
      hi = std::max(hi, rec.wall);
    }
    skews.push_back(hi / lo);
  }

  const double members = static_cast<double>(first.members);
  metrics->Set("core.self_s", core_self, "s");
  metrics->Set("core.rounds", static_cast<double>(rounds), "count");
  metrics->Set("core.round_width", members / static_cast<double>(rounds),
               "count");
  metrics->Set("core.shipped_per_extracted",
               static_cast<double>(first.shipped) /
                   static_cast<double>(first.extracted),
               "ratio");
  metrics->Set("session.self_s", session_s, "s");
  metrics->Set("session.queue_wait_s",
               Median(Each(traced,
                           [](const CrawlRecord& r) { return r.queue_wait; })),
               "s");
  metrics->Set("session.tenant_skew", Median(skews), "ratio");
  metrics->Set("index.eval_s", index_eval, "s");
  metrics->Set("index.eval_us_p50", Percentile(member_eval, 50) * 1e6, "us");
  metrics->Set("index.eval_us_p99", Percentile(member_eval, 99) * 1e6, "us");
  metrics->Set("shard.scatter_s", scatter_s, "s");
  metrics->Set("shard.imbalance",
               ratios.empty() ? 0 : Sum(ratios) / ratios.size(), "ratio");
  metrics->Set("shard.candidates_per_row",
               sharded ? static_cast<double>(first.shard_candidates) /
                             static_cast<double>(first.shipped)
                       : 0,
               "ratio");
  metrics->Set("net.overhead_s", net_s, "s");
  metrics->Set("net.overhead_us_per_member", net_s / members * 1e6,
               "us");
  metrics->Set("wal.commit_s", wal_commit, "s");
  metrics->Set("wal.commits", static_cast<double>(first.wal_commits), "count");
  metrics->Set("wal.bytes_per_commit",
               first.wal_commits == 0
                   ? 0
                   : static_cast<double>(first.wal_bytes) /
                         static_cast<double>(first.wal_commits),
               "bytes");
  metrics->Set("trace.coverage", coverage_ratio, "ratio");
  metrics->Set("trace.overhead", crawl_traced / crawl_untraced, "ratio");
  (*notes)["crawls_untraced"] = static_cast<double>(untraced.size());
  (*notes)["crawls_traced"] = static_cast<double>(probed.size());
  (*notes)["replays"] = static_cast<double>(replays.size());
  (*notes)["crawl_s_traced"] = crawl_traced;

  if (std::fabs(coverage_ratio - 1) > kCoverageTolerance) {
    verdict->Fail("trace.coverage " + std::to_string(coverage_ratio) +
                  " is off 1.0 by more than 5%");
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: hdc_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workdir <dir>]\n";
    return 2;
  }
  Inputs inputs;
  if (!GenerateInputs(args.workload, args.seed, &inputs)) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  if (inputs.data->MaxPointMultiplicity() > inputs.k) {
    std::cerr << "seed " << args.seed << " makes " << args.workload
              << " uncrawlable (a point holds more than k tuples)\n";
    return 1;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, inputs, args.workdir);

  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    workload->Setup();
    setups.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  workload->RunSet(Pass{});  // warm-up: caches, pool threads, page faults

  Verdict verdict;
  Metrics metrics;
  std::map<std::string, double> notes;
  if (args.trace) {
    Traced(workload.get(), args, &verdict, &metrics, &notes);
  } else {
    EndToEnd(workload.get(), args, setups, &verdict, &metrics, &notes);
  }
  workload.reset();
  PrintResult(args, verdict, metrics, notes);
  return verdict.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace hdc

int main(int argc, char** argv) { return hdc::perfbench::Main(argc, argv); }
