#include "metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "exec/envelope_coordinator.h"
#include "pgrid/peer.h"
#include "stats.h"

namespace perfbench {
namespace {

std::string Fmt(const char* format, double a, double b = 0, double c = 0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

double D(uint64_t v) { return static_cast<double>(v); }

const std::vector<std::string>& ReportClasses() {
  static const auto* classes = new std::vector<std::string>{
      "skyline", "point", "exact", "range",  "substring",
      "topk",    "similarity", "join", "write"};
  return *classes;
}

std::vector<double> SetupTimes(const std::vector<Round>& rounds,
                               double (*part)(const Round&)) {
  std::vector<double> times;
  for (const Round& r : rounds) times.push_back(part(r));
  return times;
}

/// CalibrationSeconds() of the machine the bounds were set on. Host-time
/// end-to-end metrics are rescaled to it, round by round, so a shared
/// machine's drift in speed between runs (about a quarter over minutes,
/// in CPU time too) mostly cancels; a change to the program does not move
/// the calibration load.
constexpr double kReferenceCalibrationS = 0.045;

/// Per-block throughputs of every measured round, pooled; `scaled`
/// rescales each round's to the reference machine speed.
std::vector<double> BlockRates(const std::vector<Round>& rounds,
                               bool scaled) {
  std::vector<double> rates;
  for (const Round& r : rounds) {
    if (!r.measured) continue;
    const double scale =
        scaled ? r.phase_calibration_s / kReferenceCalibrationS : 1.0;
    for (double rate : r.block_rates) rates.push_back(rate * scale);
  }
  return rates;
}

}  // namespace

std::vector<Metric> EndToEnd(const std::vector<Round>& rounds,
                             double peak_rss_mb) {
  const Round& r0 = rounds.front();
  const double n = D(r0.outcomes.size());
  const std::vector<double> rates = BlockRates(rounds, /*scaled=*/true);
  const auto measured = std::count_if(
      rounds.begin(), rounds.end(), [](const Round& r) { return r.measured; });
  const std::vector<double> setups = SetupTimes(rounds, [](const Round& r) {
    return r.setup_s() * kReferenceCalibrationS / r.calibration_s;
  });
  const std::vector<double> lat = SuccessLatenciesMs(r0.outcomes);
  const double k = D(lat.size());
  const std::string samples =
      Fmt("of %.0f successful ops; %.0f beyond p99", k,
          D(SamplesBeyond(lat.size(), 99)));
  const auto& t = r0.delta.traffic;

  return {
      {"setup_s", Median(setups), "s",
       Fmt("median of %.0f set-ups, host thread CPU, rescaled to the "
           "reference machine speed", D(setups.size()))},
      {"ops_per_s", Median(rates), "1/s",
       Fmt("median over %.0f blocks of %.0f rounds of %.0f ops; host thread "
           "CPU, rescaled to the reference machine speed", D(rates.size()),
           static_cast<double>(measured), n)},
      {"peak_rss_mb", peak_rss_mb, "MiB",
       "peak resident size (VmHWM) of the first measured round, from a "
       "trimmed heap"},
      {"virt_latency_ms_p50", GroupedPercentile(lat, 50, r0.hop_ms), "ms",
       samples + Fmt("; interpolated within %g ms hops", r0.hop_ms)},
      {"virt_latency_ms_p99", GroupedPercentile(lat, 99, r0.hop_ms), "ms",
       samples + Fmt("; highest supported percentile p%g",
                     HighestSupportedPercentile(lat.size()))},
      {"slo_share", SloShare(r0.outcomes, kSloUs), "share",
       Fmt("ok, correct and <= %.0f virtual ms, over %.0f attempted",
           D(kSloUs) / 1000.0, n)},
      {"msgs_per_op", Ratio(D(t.messages_sent), n), "msgs",
       Fmt("%.0f messages / %.0f ops", D(t.messages_sent), n)},
      {"kb_per_op", Ratio(D(t.bytes_sent) / 1024.0, n), "KiB",
       Fmt("%.1f KiB / %.0f ops", D(t.bytes_sent) / 1024.0, n)},
  };
}

Metric FailShare(const Round& round) {
  const double n = D(round.outcomes.size());
  const double failed = D(FailCount(round.outcomes));
  return {"fail_share", Ratio(failed, n), "share",
          Fmt("%.0f failed, timed out or wrong / %.0f attempted", failed, n)};
}

std::vector<Metric> PerLayer(const Workload& w,
                             const std::vector<Round>& rounds,
                             const Round& traced, const Tracer& tracer) {
  const Round& r0 = rounds.front();
  const Delta& d = r0.delta;
  const auto& ops = w.ops();
  const double n = D(ops.size());
  double reads = 0;
  double writes = 0;
  double retries = 0;
  for (size_t j = 0; j < ops.size(); ++j) {
    if (ops[j].is_write()) {
      ++writes;
    } else {
      ++reads;
    }
    if (r0.attempts[j] > 1) retries += r0.attempts[j] - 1;
  }
  const double kops = n / 1000.0;
  const std::vector<double> lat = SuccessLatenciesMs(r0.outcomes);
  std::vector<Metric> m;
  auto add = [&m](std::string name, double value, std::string unit,
                  std::string basis = "") {
    m.push_back({std::move(name), value, std::move(unit), std::move(basis)});
  };

  add("base.ops", n, "count");
  add("base.reads", reads, "count");
  add("base.writes", writes, "count");
  add("base.latency_samples", D(lat.size()), "count");
  add("base.p99_samples_beyond", D(SamplesBeyond(lat.size(), 99)), "count");

  const double parse_us = Ratio(tracer.Total("vql.parse"), reads) * 1e6;
  add("vql.parse_us", parse_us, "us", "traced; per read");
  add("plan.plan_us", Ratio(tracer.Total("plan.plan"), reads) * 1e6 - parse_us,
      "us", "traced PlanOnly minus parse; per read");
  add("exec.execute_us",
      Ratio(tracer.Total("exec.execute") + tracer.Total("exec.issue"), reads) *
          1e6,
      "us", "traced QueryPlanSync (open loop: the issuing call); per read");
  add("exec.rows_per_query", Ratio(D(r0.rows_returned), reads), "rows");
  add("exec.envelopes_per_query", Ratio(D(d.envelopes), reads), "count");
  add("exec.walk_retries_per_kop",
      Ratio(D(d.Retries(std::string(unistore::exec::kWalkRetryPolicy))), kops),
      "1/kop");
  add("exec.defer_retries_per_kop",
      Ratio(D(d.Retries(std::string(unistore::exec::kDeferRetryPolicy))),
            kops),
      "1/kop");
  add("exec.sheds", D(d.sheds), "count");
  add("exec.deferred_relaunches", D(d.deferred_relaunches), "count");

  add("triple.write_us", Ratio(tracer.Total("triple.write"), writes) * 1e6,
      "us", "traced InsertTuple call; per write");
  add("triple.entries_per_write",
      Ratio(D(d.store.ingested_entries), writes), "count",
      "LocalStore entries ingested cluster-wide, replicas included");

  for (const std::string& g : MessageGroups()) {
    add("pgrid.msgs_per_op." + g, Ratio(D(d.GroupMessages(g)), n), "msgs");
  }
  for (std::string_view policy :
       {unistore::pgrid::kLookupRetryPolicy, unistore::pgrid::kInsertRetryPolicy,
        unistore::pgrid::kBulkRetryPolicy, unistore::pgrid::kRepairRetryPolicy}) {
    add("pgrid.retries_per_kop." + std::string(policy),
        Ratio(D(d.Retries(std::string(policy))), kops), "1/kop");
  }
  add("pgrid.repair_runs_fetched", D(d.repair_runs_fetched), "count");
  add("pgrid.repair_chunks_received", D(d.repair_chunks_received), "count");
  add("pgrid.repair_failovers", D(d.repair_failovers), "count");
  add("pgrid.restarts", D(d.restarts), "count");
  add("pgrid.joins", D(d.joins), "count");
  add("pgrid.leaves", D(d.leaves), "count");
  add("pgrid.recruits", D(d.recruits), "count");
  add("pgrid.max_restart_catchup_ms",
      static_cast<double>(d.max_restart_catchup_us) / 1000.0, "ms");
  add("pgrid.rerouted_entries", D(d.rerouted_entries), "count");

  const double mib = 1024.0 * 1024.0;
  add("storage.write_amp", d.store.WriteAmplification(), "ratio",
      "bytes written to runs / bytes ingested, measured phase");
  add("storage.flushed_mb", D(d.store.flushed_bytes) / mib, "MiB");
  add("storage.compacted_mb", D(d.store.compacted_bytes) / mib, "MiB");
  add("storage.compactions_per_kop", Ratio(D(d.store.compactions), kops),
      "1/kop");
  add("storage.runs_max", D(r0.runs_max), "count", "max over peers, end");
  add("storage.resident_bytes_per_live_entry",
      r0.resident_bytes_per_live_entry, "B", "summed over peers, end");
  const double load_s =
      Median(SetupTimes(rounds, [](const Round& r) { return r.load_s; }));
  add("storage.ingest_entries_per_s", Ratio(D(r0.setup_entries), load_s),
      "1/s", "entries ingested in set-up / median load seconds");
  add("storage.entries_per_peer_mean", r0.entries_per_peer_mean, "count",
      "live entries after set-up, against the memtable flush threshold");
  add("storage.entries_per_peer_max", D(r0.entries_per_peer_max), "count");

  add("net.dropped_share",
      Ratio(D(d.traffic.total_dropped()), D(d.traffic.messages_sent)),
      "share");
  add("net.churn_drops", D(d.traffic.messages_lost_churn), "count");
  uint64_t max_msg = 0;
  for (const auto& [type, bytes] : d.traffic.per_type_max_bytes) {
    max_msg = std::max(max_msg, bytes);
  }
  add("net.max_msg_kb", D(max_msg) / 1024.0, "KiB",
      "largest message since start, set-up included");
  add("net.setup_kb_per_entry",
      Ratio(D(r0.setup_bytes) / 1024.0, D(r0.setup_entries)), "KiB");

  add("sim.events_per_op", Ratio(D(d.events), n), "count");
  add("sim.events_per_host_s", Ratio(D(d.events), r0.host_s), "1/s");
  add("sim.virtual_s", D(d.virtual_us) / 1e6, "s");
  add("sim.pending_peak", D(r0.pending_peak), "count");

  add("core.setup.load_s", load_s, "s");
  add("core.setup.stats_s",
      Median(SetupTimes(rounds, [](const Round& r) { return r.stats_s; })),
      "s");
  add("core.setup.churn_s",
      Median(SetupTimes(rounds, [](const Round& r) { return r.churn_s; })),
      "s");

  for (const std::string& cls : ReportClasses()) {
    std::vector<double> host;
    std::vector<double> virt;
    double msgs = 0;
    for (size_t j = 0; j < ops.size(); ++j) {
      if (ops[j].cls != cls) continue;
      host.push_back(r0.host_us[j]);
      if (r0.outcomes[j].ok) {
        virt.push_back(static_cast<double>(r0.outcomes[j].latency_us()) /
                       1000.0);
      }
      msgs += D(r0.msgs[j]);
    }
    add("class." + cls + ".host_us_p50", Median(host), "us");
    std::sort(virt.begin(), virt.end());
    add("class." + cls + ".virt_ms_p50", GroupedPercentile(virt, 50, r0.hop_ms),
        "ms");
    add("class." + cls + ".msgs", Ratio(msgs, D(host.size())), "msgs",
        "per op; closed loop only");
  }

  add("client.retries_per_kop", Ratio(retries, kops), "1/kop");
  add("client.duplicate_callbacks", D(r0.duplicate_callbacks), "count",
      "an attempt's completion callback invoked again");
  add("client.gen_late_ms_max", static_cast<double>(r0.late_us_max) / 1000.0,
      "ms");
  add("oracle.lost_acked_writes", D(r0.lost_writes), "count",
      "an index entry on no live peer's store after quiesce");
  add("oracle.unreadable_acked_writes", D(r0.unreadable_writes), "count",
      "missed by point reads from five initiators after quiesce");
  add("oracle.acked_writes_checked", D(r0.writes_checked), "count");

  add("trace.coverage", Ratio(LayerSelfSeconds(tracer.spans()), traced.host_s),
      "share", "self time of layer spans / traced measured phase");
  add("trace.overhead",
      Ratio(Median(BlockRates(rounds, /*scaled=*/false)),
            Median(traced.block_rates)),
      "x", "untraced ops_per_s / traced ops_per_s");
  const std::map<std::string, double> self = tracer.SelfByLayer();
  for (const char* layer : {"bench", "vql", "plan", "exec", "triple", "sim"}) {
    auto it = self.find(layer);
    add(std::string("trace.self_us_per_op.") + layer,
        Ratio(it == self.end() ? 0.0 : it->second, n) * 1e6, "us");
  }
  return m;
}

}  // namespace perfbench
