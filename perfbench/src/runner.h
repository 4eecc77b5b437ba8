// One round of a workload: set-up (timed), then the measured phase as a
// closed or an open loop, with counters differenced over the phase.
#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "counters.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// Open loop: a failed operation is re-issued from another initiator
/// after this much virtual time, up to kMaxAttempts attempts in all; its
/// latency still runs from the time it was due. One re-issue: under
/// churn_open's script a write attempt can take a minute to fail, and
/// with more attempts the p99 falls between the clusters of writes that
/// needed three, four or five of them, a jump of 20 to 60 s from seed to
/// seed. With two it lies inside the cluster of writes that needed both.
constexpr int64_t kRetryBackoffUs = 100 * 1000;
constexpr int kMaxAttempts = 2;
/// Virtual service-level limit on an operation's latency.
constexpr int64_t kSloUs = 500 * 1000;

struct Round {
  // Set-up, host seconds.
  double load_s = 0;   ///< Build the cluster and ingest the data set.
  double stats_s = 0;  ///< Refresh and gossip statistics.
  double churn_s = 0;  ///< Install the churn schedule.
  double setup_s() const { return load_s + stats_s + churn_s; }
  uint64_t setup_bytes = 0;    ///< Wire bytes sent during set-up.
  uint64_t setup_entries = 0;  ///< LocalStore entries ingested in set-up.
  size_t entries_per_peer_max = 0;
  double entries_per_peer_mean = 0;
  size_t memtable_flush_threshold = 0;
  /// Step virtual latency moves in: the constant per-hop delay (ms), or 0
  /// under a latency model that draws delays.
  double hop_ms = 0;
  double calibration_s = 0;  ///< CalibrationSeconds() before the round.
  /// CalibrationSlice() times taken between the blocks of an untraced
  /// measured phase (outside their host time), and their median: the
  /// machine's speed while the phase ran.
  std::vector<double> calibration_slices;
  double phase_calibration_s = 0;

  // Measured phase.
  bool measured = false;
  double host_s = 0;  ///< Host seconds of the whole phase.
  /// Operations per host second in each block of the script (closed
  /// loop) or window of the arrival schedule (open loop).
  std::vector<double> block_rates;
  std::vector<Outcome> outcomes;
  History history;
  std::vector<std::vector<std::string>> rows;  ///< Rendered, per read.
  size_t rows_returned = 0;  ///< Over all reads; kept by ReleaseRows().
  std::vector<double> host_us;   ///< Per op: the client call's host time.
  std::vector<uint64_t> msgs;    ///< Per op messages (closed loop only).
  std::vector<int> attempts;     ///< Per op attempts (open loop).
  size_t duplicate_callbacks = 0;  ///< Completions reported twice.
  Delta delta;
  size_t pending_peak = 0;
  int64_t late_us_max = 0;  ///< How late the open-loop generator ran.
  size_t runs_max = 0;
  double resident_bytes_per_live_entry = 0;
  size_t lost_writes = 0;        ///< Acked writes on no live peer.
  size_t unreadable_writes = 0;  ///< Acked writes routed reads miss.
  size_t writes_checked = 0;
  bool traced_plan_failed = false;

  /// Digest of every virtual-clock outcome: equal across rounds of one
  /// seed if the run is deterministic.
  uint64_t VirtualDigest() const;

  /// Frees the rendered rows, keeping their number in rows_returned. The
  /// first round is released so once its oracles ran and its digest was
  /// taken; later ones are compared by VirtualDigest() and then released
  /// whole (ReleasePerOp). What a run holds thus does not depend on how
  /// many rounds fit in its time, and neither does its peak memory.
  void ReleaseRows();
  /// ReleaseRows(), and frees the outcomes, history and per-op clocks,
  /// keeping the set-up times, block rates and counters.
  void ReleasePerOp();
};

/// How much of a round runs after set-up.
enum class Phase {
  kSetupOnly,
  kMeasured,  ///< The measured phase.
  /// The measured phase, then (open loop) the cluster quiesces and every
  /// acknowledged write is checked: for the round the oracles judge.
  kJudged,
};

/// Builds a cluster and runs set-up, then `phase`. A null or disabled
/// tracer runs untraced; an enabled one runs the traced decomposition
/// (parse, PlanOnly, QueryPlan) with spans. Returns false if set-up
/// failed (`error` says why).
bool RunRound(const Workload& workload, Phase phase, Tracer* tracer,
              Round* round, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
