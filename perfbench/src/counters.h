// Snapshots of the cluster's public counters, differenced over the
// measured phase so set-up traffic and storage work stay out of it.
#ifndef PERFBENCH_COUNTERS_H_
#define PERFBENCH_COUNTERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "net/transport.h"
#include "pgrid/local_store.h"
#include "pgrid/overlay.h"

namespace perfbench {

/// Everything read from public accessors at one instant.
struct Snapshot {
  unistore::net::TrafficStats traffic;  ///< Transport::stats().
  /// QueryService counters, summed over nodes.
  uint64_t envelopes = 0;
  uint64_t sheds = 0;
  uint64_t deferred_relaunches = 0;
  /// Peer counters, summed over peers.
  uint64_t repair_runs_fetched = 0;
  uint64_t repair_chunks_received = 0;
  uint64_t repair_failovers = 0;
  uint64_t rerouted_entries = 0;
  unistore::pgrid::Overlay::LifecycleStats lifecycle;
  /// LocalStore::write_stats() per peer (a restart resets a peer's).
  std::vector<unistore::pgrid::LocalStoreWriteStats> stores;
  uint64_t events = 0;  ///< Scheduler::processed_events().
  int64_t now_us = 0;
};

Snapshot TakeSnapshot(unistore::core::Cluster& cluster);

/// Counter growth between two snapshots.
struct Delta {
  unistore::net::TrafficStats traffic;  ///< TrafficStats::Since.
  uint64_t envelopes = 0;
  uint64_t sheds = 0;
  uint64_t deferred_relaunches = 0;
  uint64_t repair_runs_fetched = 0;
  uint64_t repair_chunks_received = 0;
  uint64_t repair_failovers = 0;
  uint64_t rerouted_entries = 0;
  uint64_t restarts = 0;
  uint64_t joins = 0;
  uint64_t leaves = 0;
  uint64_t recruits = 0;
  /// Slowest post-restart catch-up seen by `after` (a maximum, not a
  /// difference).
  int64_t max_restart_catchup_us = 0;
  unistore::pgrid::LocalStoreWriteStats store;  ///< Summed over peers.
  uint64_t events = 0;
  int64_t virtual_us = 0;

  uint64_t Retries(const std::string& policy) const;
  /// Messages of the types in one group (see MessageGroups()).
  uint64_t GroupMessages(const std::string& group) const;
};

Delta Difference(const Snapshot& before, const Snapshot& after);

/// Names of the message groups, in report order: lookup, insert, bulk,
/// range, envelope, replica, repair, lifecycle, gossip.
const std::vector<std::string>& MessageGroups();

}  // namespace perfbench

#endif  // PERFBENCH_COUNTERS_H_
