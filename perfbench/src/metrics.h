// Turns measured rounds into the named end-to-end and per-layer metrics.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <string>
#include <vector>

#include "runner.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string basis;  ///< How it was computed, with its base counts.
};

/// End-to-end metrics from untraced rounds. `rounds[0]` is measured;
/// every measured round is identical to it in virtual time, and every
/// round (measured or set-up only) contributes a set-up time.
std::vector<Metric> EndToEnd(const std::vector<Round>& rounds,
                             double peak_rss_mb);

/// Failed, timed-out or wrong operations over attempted, in rounds[0].
Metric FailShare(const Round& round);

/// Per-layer metrics: counters and clocks from the untraced `rounds`,
/// spans from the traced round.
std::vector<Metric> PerLayer(const Workload& w,
                             const std::vector<Round>& rounds,
                             const Round& traced, const Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
