// The benchmark's own arithmetic: percentiles, SLO and failure shares,
// reset-safe counter differencing. Pure functions, so the self-tests
// (selftest.cc) pin them on hand-made inputs.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest rank of the p-th percentile of n > 0 samples: ceil(p/100 * n),
/// in [1, n]. The epsilon keeps 99.9/100 * 10000 at rank 9990.
inline size_t PercentileRank(size_t n, double p) {
  const double exact = p * static_cast<double>(n) / 100.0;
  const auto rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

/// Nearest-rank percentile of an ascending sample; 0 for an empty one.
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[PercentileRank(sorted.size(), p) - 1];
}

/// Percentile of an ascending sample whose values move in steps of `step`
/// (virtual latency under the constant per-hop delay moves in whole hops):
/// the nearest-rank value v, interpolated within its step (v - step, v] by
/// where p falls among the samples equal to v, as the percentile of
/// grouped data is. Many ties at v no longer pin the result to v, so a
/// shift in the share of faster operations moves it. 0 for an empty
/// sample; `step` 0 gives the nearest-rank percentile.
inline double GroupedPercentile(const std::vector<double>& sorted, double p,
                                double step) {
  if (sorted.empty()) return 0.0;
  const double v = sorted[PercentileRank(sorted.size(), p) - 1];
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), v);
  const auto hi = std::upper_bound(lo, sorted.end(), v);
  const double below = static_cast<double>(lo - sorted.begin());
  const double ties = static_cast<double>(hi - lo);
  const double at = p * static_cast<double>(sorted.size()) / 100.0;
  const double share = std::clamp((at - below) / ties, 0.0, 1.0);
  return v - step + step * share;
}

/// Samples ranked strictly above the p-th percentile of n samples.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - PercentileRank(n, p);
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that has
/// at least ten samples beyond it; 0 when even the median has fewer.
inline double HighestSupportedPercentile(size_t n) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (SamplesBeyond(n, p) >= 10) best = p;
  }
  return best;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// One finished operation as the clocks and the oracles saw it.
struct Outcome {
  bool ok = false;       ///< Completed without error (writes: acknowledged).
  bool correct = false;  ///< Rows passed the oracle (writes: ok).
  /// Closed loop: the virtual time the client issued the operation. Open
  /// loop: the time it was due, so a stall or a client retry that delays
  /// it counts against it.
  int64_t start_us = 0;
  int64_t done_us = 0;  ///< Virtual completion time (of the last attempt).

  int64_t latency_us() const { return done_us - start_us; }
};

/// Operations that succeeded with correct rows within `limit_us`, over
/// all attempted. Failures and wrong rows are misses.
inline double SloShare(const std::vector<Outcome>& ops, int64_t limit_us) {
  if (ops.empty()) return 0.0;
  size_t met = 0;
  for (const Outcome& o : ops) {
    if (o.ok && o.correct && o.latency_us() <= limit_us) ++met;
  }
  return static_cast<double>(met) / static_cast<double>(ops.size());
}

/// Operations that failed, timed out or returned wrong rows.
inline size_t FailCount(const std::vector<Outcome>& ops) {
  size_t failed = 0;
  for (const Outcome& o : ops) {
    if (!o.ok || !o.correct) ++failed;
  }
  return failed;
}

/// Ascending virtual latencies (ms) of the successful operations.
inline std::vector<double> SuccessLatenciesMs(
    const std::vector<Outcome>& ops) {
  std::vector<double> ms;
  for (const Outcome& o : ops) {
    if (o.ok) ms.push_back(static_cast<double>(o.latency_us()) / 1000.0);
  }
  std::sort(ms.begin(), ms.end());
  return ms;
}

/// after - before for a monotone counter that may have been reset in
/// between (a restarted peer rebuilds its store, whose counters restart
/// from zero): a reset contributes everything counted since it.
inline uint64_t CounterDelta(uint64_t before, uint64_t after) {
  return after >= before ? after - before : after;
}

/// a / b, or 0 when b is 0.
inline double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
