#include "counters.h"

#include <map>

#include "pgrid/peer.h"
#include "stats.h"

namespace perfbench {
namespace {

using unistore::net::MessageType;

const std::map<std::string, std::vector<MessageType>>& GroupTypes() {
  static const auto* groups =
      new std::map<std::string, std::vector<MessageType>>{
          {"lookup", {MessageType::kLookup, MessageType::kLookupReply}},
          {"insert",
           {MessageType::kInsert, MessageType::kInsertReply,
            MessageType::kRemove, MessageType::kRemoveReply}},
          {"bulk", {MessageType::kBulkInsert, MessageType::kBulkInsertReply}},
          {"range",
           {MessageType::kRangeSeq, MessageType::kRangeSeqReply,
            MessageType::kRangeShower, MessageType::kRangeShowerReply}},
          {"envelope",
           {MessageType::kPlanExec, MessageType::kPlanExecReply,
            MessageType::kPlanExecPartial, MessageType::kVersionProbe,
            MessageType::kVersionProbeReply}},
          {"replica", {MessageType::kReplicaPush}},
          {"repair",
           {MessageType::kManifestPull, MessageType::kManifestPullReply,
            MessageType::kRunFetch, MessageType::kRunFetchReply}},
          {"lifecycle",
           {MessageType::kPing, MessageType::kPong, MessageType::kExchange,
            MessageType::kExchangeReply, MessageType::kReplicaProbe,
            MessageType::kReplicaProbeReply, MessageType::kJoin,
            MessageType::kJoinReply, MessageType::kRecruit,
            MessageType::kRecruitReply, MessageType::kRefUpdate}},
          {"gossip", {MessageType::kStatsGossip}},
      };
  return *groups;
}

}  // namespace

const std::vector<std::string>& MessageGroups() {
  static const auto* names = new std::vector<std::string>{
      "lookup", "insert",  "bulk",      "range", "envelope",
      "replica", "repair", "lifecycle", "gossip"};
  return *names;
}

Snapshot TakeSnapshot(unistore::core::Cluster& cluster) {
  Snapshot s;
  s.traffic = cluster.overlay().transport().stats();
  for (size_t id = 0; id < cluster.size(); ++id) {
    auto& node = cluster.node(static_cast<unistore::net::PeerId>(id));
    s.envelopes += node.service().envelopes_processed();
    s.sheds += node.service().sheds();
    s.deferred_relaunches += node.service().deferred_relaunches();
    const unistore::pgrid::Peer* peer = node.peer();
    s.repair_runs_fetched += peer->repair_runs_fetched();
    s.repair_chunks_received += peer->repair_chunks_received();
    s.repair_failovers += peer->repair_failovers();
    s.rerouted_entries += peer->rerouted_entries();
    s.stores.push_back(peer->store().write_stats());
  }
  s.lifecycle = cluster.AggregateLifecycleStats();
  s.events = cluster.scheduler().processed_events();
  s.now_us = cluster.scheduler().Now();
  return s;
}

Delta Difference(const Snapshot& before, const Snapshot& after) {
  Delta d;
  d.traffic = after.traffic.Since(before.traffic);
  d.envelopes = CounterDelta(before.envelopes, after.envelopes);
  d.sheds = CounterDelta(before.sheds, after.sheds);
  d.deferred_relaunches =
      CounterDelta(before.deferred_relaunches, after.deferred_relaunches);
  d.repair_runs_fetched =
      CounterDelta(before.repair_runs_fetched, after.repair_runs_fetched);
  d.repair_chunks_received = CounterDelta(before.repair_chunks_received,
                                          after.repair_chunks_received);
  d.repair_failovers =
      CounterDelta(before.repair_failovers, after.repair_failovers);
  d.rerouted_entries =
      CounterDelta(before.rerouted_entries, after.rerouted_entries);
  d.restarts = CounterDelta(before.lifecycle.restarts,
                            after.lifecycle.restarts);
  d.joins = CounterDelta(before.lifecycle.joins_completed,
                         after.lifecycle.joins_completed);
  d.leaves = CounterDelta(before.lifecycle.leaves_completed,
                          after.lifecycle.leaves_completed);
  d.recruits = CounterDelta(before.lifecycle.recruits_completed,
                            after.lifecycle.recruits_completed);
  d.max_restart_catchup_us = after.lifecycle.max_restart_catchup_us;
  // Peers that joined during the phase have no `before` entry.
  for (size_t i = 0; i < after.stores.size(); ++i) {
    const unistore::pgrid::LocalStoreWriteStats zero;
    const auto& b = i < before.stores.size() ? before.stores[i] : zero;
    const auto& a = after.stores[i];
    d.store.ingested_entries +=
        CounterDelta(b.ingested_entries, a.ingested_entries);
    d.store.ingested_bytes += CounterDelta(b.ingested_bytes, a.ingested_bytes);
    d.store.flushed_entries +=
        CounterDelta(b.flushed_entries, a.flushed_entries);
    d.store.flushed_bytes += CounterDelta(b.flushed_bytes, a.flushed_bytes);
    d.store.compacted_entries +=
        CounterDelta(b.compacted_entries, a.compacted_entries);
    d.store.compacted_bytes +=
        CounterDelta(b.compacted_bytes, a.compacted_bytes);
    d.store.bulk_loaded_entries +=
        CounterDelta(b.bulk_loaded_entries, a.bulk_loaded_entries);
    d.store.bulk_loaded_bytes +=
        CounterDelta(b.bulk_loaded_bytes, a.bulk_loaded_bytes);
    d.store.compactions += CounterDelta(b.compactions, a.compactions);
  }
  d.events = CounterDelta(before.events, after.events);
  d.virtual_us = after.now_us - before.now_us;
  return d;
}

uint64_t Delta::Retries(const std::string& policy) const {
  auto it = traffic.retries_by_policy.find(policy);
  return it == traffic.retries_by_policy.end() ? 0 : it->second;
}

uint64_t Delta::GroupMessages(const std::string& group) const {
  auto g = GroupTypes().find(group);
  if (g == GroupTypes().end()) return 0;
  uint64_t total = 0;
  for (MessageType type : g->second) {
    auto it = traffic.per_type.find(type);
    if (it != traffic.per_type.end()) total += it->second;
  }
  return total;
}

}  // namespace perfbench
