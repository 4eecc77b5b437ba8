// UniStore end-to-end benchmark: the measuring program.
//
//   unistore_perfbench --workload <paper_mix|zipf_rw> --seed <n>
//                      --seconds <s> --trace <0|1> [--trace-dir <dir>]
//   unistore_perfbench --selftest
//
// --workload paper_mix_pubs or churn_open runs a workload that reproduces a
// known defect of the program (README.md, "Known defects"); it fails.
//
// Runs one workload against core::Cluster through its public API on the
// single-thread engine. A round builds the cluster and ingests the data
// set (set-up), then runs the workload's fixed operation script (the
// measured phase). Virtual-clock results are a pure function of the seed,
// so every round of a run must reproduce them exactly; rounds repeat until
// --seconds of wall time have passed, for steadier host-clock medians.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs one untraced
// and one traced round and prints the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// The exit code is non-zero on any wrong result.
#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "metrics.h"
#include "runner.h"
#include "selftest.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Set-up-only rounds run before the first measured one.
constexpr size_t kWarmupRounds = 1;
/// Set-up-only rounds repeat until they took this much host time: cheap
/// set-ups get more samples.
constexpr double kSetupBudgetS = 3.0;
constexpr size_t kMaxRounds = 30;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      a->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-dir") {
      a->trace_dir = value;
    } else {
      return false;
    }
  }
  return a->selftest || !a->workload.empty();
}

/// Returns freed heap memory to the system and restarts the peak resident
/// size from the current one (Linux: /proc/self/clear_refs). Returns false
/// if the peak cannot be reset; PeakRssMb() then reports the peak since
/// the process started.
bool ResetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Peak resident size (MiB) since the last ResetPeakRss().
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double WallSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void PrintMetric(const Metric& m) {
  std::printf("  %-40s %16.6f %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.basis.c_str());
}

void PrintJson(bool correct, size_t attempted, size_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Applies the oracles to round `r`, marking wrong reads; returns how
/// many reads were wrong.
size_t ApplyOracles(const Workload& w, Round* r) {
  size_t wrong = 0;
  std::map<std::string, size_t> wrong_by_class;
  for (size_t j = 0; j < w.ops().size(); ++j) {
    if (w.ops()[j].is_write() || !r->outcomes[j].ok) continue;
    if (!w.Check(j, r->rows[j], r->history)) {
      r->outcomes[j].correct = false;
      ++wrong_by_class[w.ops()[j].cls];
      if (++wrong <= 3) {
        std::printf("WRONG ROWS: op %zu (%s) %s -> %zu rows\n", j,
                    w.ops()[j].cls.c_str(), w.ops()[j].vql.c_str(),
                    r->rows[j].size());
      }
    }
  }
  for (const auto& [cls, count] : wrong_by_class) {
    std::printf("WRONG ROWS: %zu %s reads\n", count, cls.c_str());
  }
  return wrong;
}

int Run(const Args& args) {
  WallSeconds();
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!w->PrepareReferences()) {
    std::fprintf(stderr, "reference computation failed\n");
    return 3;
  }
  const auto options = w->Options();
  std::printf("workload %s seed %llu: %zu peers, replication %zu, %zu tuples, "
              "%zu ops (%s loop)\n",
              w->name().c_str(), static_cast<unsigned long long>(args.seed),
              options.peers, options.replication, w->data_tuples(),
              w->ops().size(), w->open_loop() ? "open" : "closed");

  std::vector<Round> rounds;
  Tracer tracer(args.trace);
  Round traced;
  std::string error;
  auto run_round = [&](Phase phase, Tracer* t, Round* r) {
    if (!RunRound(*w, phase, t, r, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return false;
    }
    return true;
  };

  // A set-up-only round comes first: besides timing set-up it warms the
  // allocator, so no measured phase runs on a cold heap, and every run
  // reaches its first measured round the same way. Then untraced measured
  // rounds until the time is spent (a traced run needs one, for its
  // counters and the overhead baseline), then the traced round, then more
  // set-up-only rounds until set-up had kSetupBudgetS host seconds: cheap
  // set-ups get more samples.
  std::vector<Round> setup_only;
  double setup_only_s = 0;
  auto setup_round = [&] {
    setup_only.emplace_back();
    if (!run_round(Phase::kSetupOnly, nullptr, &setup_only.back())) {
      return false;
    }
    setup_only_s += setup_only.back().setup_s();
    return true;
  };
  for (size_t i = 0; i < kWarmupRounds; ++i) {
    if (!setup_round()) return 3;
  }
  // peak_rss_mb is the first measured round's own peak, from a trimmed
  // heap: later rounds peak higher on a heap fragmented by earlier ones,
  // so a figure over several rounds would depend on how many fit in.
  const bool peak_reset = ResetPeakRss();
  // The oracles judge the first measured round; every later one (the
  // traced one too) must reproduce it exactly in virtual time. Rows are
  // released as soon as they were judged or compared (Round::ReleaseRows),
  // so what a run holds does not grow with its rounds.
  double peak_rss_mb = 0;
  size_t wrong = 0;
  bool deterministic = true;
  uint64_t digest = 0;
  do {
    rounds.emplace_back();
    Round& r = rounds.back();
    const Phase phase = rounds.size() == 1 ? Phase::kJudged : Phase::kMeasured;
    if (!run_round(phase, nullptr, &r)) return 3;
    if (rounds.size() == 1) {
      peak_rss_mb = PeakRssMb();
      wrong = ApplyOracles(*w, &r);
      digest = r.VirtualDigest();
      r.ReleaseRows();
    } else {
      deterministic = deterministic && r.VirtualDigest() == digest;
      r.ReleasePerOp();
    }
  } while (!args.trace && WallSeconds() < args.seconds &&
           rounds.size() < kMaxRounds);
  if (args.trace && !run_round(Phase::kMeasured, &tracer, &traced)) return 3;
  while (setup_only_s < kSetupBudgetS) {
    if (!setup_round()) return 3;
  }
  const size_t measured = rounds.size();
  for (Round& r : setup_only) rounds.push_back(std::move(r));

  Round& first = rounds.front();
  bool correct = wrong == 0 && first.lost_writes == 0 &&
                 first.unreadable_writes == 0;
  if (!deterministic) {
    std::printf("NONDETERMINISM: a round differs from the first in "
                "virtual time\n");
    correct = false;
  }
  const size_t attempted = measured * first.outcomes.size();
  const size_t failed = measured * FailCount(first.outcomes);
  // The digest covers every row, so PlanOnly + QueryPlan must return the
  // rows QuerySync returned, op by op.
  if (args.trace &&
      (traced.VirtualDigest() != digest || traced.traced_plan_failed)) {
    std::printf("TRACE MISMATCH: the traced round differs from QuerySync "
                "in rows or virtual time\n");
    correct = false;
  }
  if (first.lost_writes > 0) {
    std::printf("LOST WRITES: %zu of %zu acknowledged writes have an index "
                "entry on no live peer after quiesce\n", first.lost_writes,
                first.writes_checked);
  }
  if (first.unreadable_writes > 0) {
    std::printf("UNREADABLE WRITES: %zu of %zu acknowledged writes missed by "
                "point reads from five initiators after quiesce\n",
                first.unreadable_writes, first.writes_checked);
  }

  std::printf("rounds: %zu (%zu measured); host clock: thread CPU time; "
              "wall %.1f s\n", rounds.size(), measured, WallSeconds());
  std::printf("per round: ");
  for (const Round& r : rounds) {
    std::printf("[calib %.4f s, set-up %.3f s%s", r.calibration_s, r.setup_s(),
                r.measured ? "" : "]");
    if (r.measured) {
      std::vector<double> b = r.block_rates;
      std::sort(b.begin(), b.end());
      std::printf(", phase calib %.4f s, phase %.3f s, block ops/s min %.1f "
                  "median %.1f max %.1f]",
                  r.phase_calibration_s, r.host_s, b.empty() ? 0.0 : b.front(),
                  b.empty() ? 0.0 : b[b.size() / 2], b.empty() ? 0.0 : b.back());
    }
  }
  if (args.trace) std::printf(" traced phase %.3f s", traced.host_s);
  std::printf("\n");
  std::printf("virtual latency tail (successful ops):");
  for (double limit_s : {0.5, 5.0, 20.0, 40.0, 60.0, 80.0, 100.0}) {
    size_t beyond = 0;
    for (const Outcome& o : first.outcomes) {
      if (o.ok && static_cast<double>(o.latency_us()) > limit_s * 1e6) ++beyond;
    }
    std::printf(" >%gs %zu", limit_s, beyond);
  }
  std::printf(" of %zu\n", first.outcomes.size());
  std::printf("data: %zu entries after set-up, %.1f per peer mean, %zu max, "
              "memtable flush threshold %zu\n",
              static_cast<size_t>(first.setup_entries),
              first.entries_per_peer_mean, first.entries_per_peer_max,
              first.memtable_flush_threshold);
  if (!peak_reset) {
    std::printf("peak_rss_mb: the peak could not be reset; it covers the "
                "run up to the first measured round\n");
  }
  std::vector<Metric> e2e = EndToEnd(rounds, peak_rss_mb);
  std::printf("end-to-end:\n");
  for (const Metric& m : e2e) PrintMetric(m);
  PrintMetric(FailShare(first));
  std::vector<Metric> reported = e2e;
  if (args.trace) {
    std::vector<Metric> layers = PerLayer(*w, rounds, traced, tracer);
    std::printf("per-layer:\n");
    for (const Metric& m : layers) {
      PrintMetric(m);
      if (m.name == "trace.coverage" && m.value < 0.9) {
        std::printf("TRACE COVERAGE below 0.9\n");
        correct = false;
      }
    }
    const std::string path = args.trace_dir + "/trace_" + w->name() + "_" +
                             std::to_string(args.seed) + ".jsonl";
    if (tracer.WriteJsonl(path)) {
      std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                  path.c_str());
    }
    reported = std::move(layers);
  }
  PrintJson(correct, attempted, failed, reported);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <paper_mix|zipf_rw> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]"
                 "\n       %s --selftest\n",
                 argv[0], argv[0]);
    return 2;
  }
  const int failures = perfbench::RunSelfTests();
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  if (failures != 0) return 4;
  if (args.selftest) return 0;
  return perfbench::Run(args);
}
