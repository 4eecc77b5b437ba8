#include "runner.h"

#include <algorithm>
#include <functional>
#include <optional>

#include "triple/index.h"
#include "vql/parser.h"

namespace perfbench {
namespace {

using unistore::Result;
using unistore::Status;
using unistore::core::Cluster;
using unistore::exec::QueryResult;
using unistore::net::PeerId;

/// An untraced measured phase takes a calibration slice every
/// blocks / kPhaseSlices blocks: at least kPhaseSlices of them.
constexpr size_t kPhaseSlices = 8;

/// True iff a calibration slice goes before block `b` of `blocks`.
bool SliceBefore(size_t b, size_t blocks) {
  return b % std::max<size_t>(1, blocks / kPhaseSlices) == 0;
}

/// Open loop: the phase starts this long after set-up ends.
constexpr int64_t kStartOffsetUs = 100 * 1000;
/// Open loop: operations still running this long after the last one was
/// due count as timed out. It lies beyond kMaxAttempts attempts of a
/// minute each (the longest a write attempt takes under churn_open's
/// script), so operations end by themselves, not by the harness.
constexpr int64_t kDrainLimitUs = 400 * 1000 * 1000;

uint64_t HashMix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t HashString(uint64_t h, const std::string& s) {
  for (unsigned char c : s) h = HashMix(h, c);
  return HashMix(h, s.size());
}

/// Parse, plan and execute as separate calls, each inside its span.
/// `execute` runs the plan (synchronously or not).
template <typename Execute>
bool TracedQuery(Cluster& cluster, Tracer* tracer, uint32_t op, PeerId via,
                 const std::string& vql, Execute execute) {
  {
    Tracer::Scope span(tracer, "vql.parse", op);
    if (!unistore::vql::Parse(vql).ok()) return false;
  }
  Result<unistore::plan::PhysicalPlan> plan =
      unistore::Status::Internal("unplanned");
  {
    Tracer::Scope span(tracer, "plan.plan", op);
    plan = cluster.node(via).PlanOnly(vql);
  }
  if (!plan.ok()) return false;
  execute(*plan);
  return true;
}

void RunClosedLoop(const Workload& w, Cluster& cluster, Tracer* tracer,
                   Round* r, std::vector<std::optional<QueryResult>>* out) {
  const auto& ops = w.ops();
  auto& sched = cluster.scheduler();
  auto& transport = cluster.overlay().transport();
  const bool traced = tracer != nullptr && tracer->enabled();
  const size_t block = std::max<size_t>(1, ops.size() / w.rate_blocks());
  for (size_t j = 0; j < ops.size(); ++j) {
    if (!traced && j % block == 0 && SliceBefore(j / block, w.rate_blocks())) {
      r->calibration_slices.push_back(CalibrationSlice());
    }
    const auto op_id = static_cast<uint32_t>(j);
    Tracer::Scope op_span(tracer, "op", op_id);
    const uint64_t msgs0 = transport.stats().messages_sent;
    const double h0 = HostSeconds();
    r->history.issued_us[j] = sched.Now();
    bool ok = false;
    if (ops[j].is_write()) {
      Tracer::Scope span(tracer, "triple.write", op_id);
      ok = cluster.InsertTupleSync(ops[j].via, ops[j].tuple).ok();
      r->history.acked[j] = ok;
    } else {
      Result<QueryResult> result = Status::Internal("not run");
      if (traced) {
        const bool planned = TracedQuery(
            cluster, tracer, op_id, ops[j].via, ops[j].vql,
            [&](const unistore::plan::PhysicalPlan& plan) {
              Tracer::Scope span(tracer, "exec.execute", op_id);
              result = cluster.QueryPlanSync(ops[j].via, plan);
            });
        if (!planned) r->traced_plan_failed = true;
      } else {
        result = cluster.QuerySync(ops[j].via, ops[j].vql);
      }
      ok = result.ok();
      if (ok) (*out)[j] = std::move(*result);
    }
    r->host_us[j] = (HostSeconds() - h0) * 1e6;
    r->history.done_us[j] = sched.Now();
    r->msgs[j] = transport.stats().messages_sent - msgs0;
    r->outcomes[j].ok = ok;
    r->outcomes[j].start_us = r->history.issued_us[j];
    r->outcomes[j].done_us = r->history.done_us[j];
    r->pending_peak = std::max(r->pending_peak, sched.pending_events());
  }
  // Throughput per block of consecutive operations, from the client
  // calls' host time.
  for (size_t b = 0; b + block <= ops.size(); b += block) {
    double host_us = 0;
    for (size_t j = b; j < b + block; ++j) host_us += r->host_us[j];
    r->block_rates.push_back(Ratio(static_cast<double>(block), host_us * 1e-6));
  }
}

/// Issues every operation at its due time, regardless of completions.
class OpenLoop {
 public:
  OpenLoop(const Workload& w, Cluster& cluster, Tracer* tracer, Round* r,
           std::vector<std::optional<QueryResult>>* out, int64_t start_us)
      : w_(w), cluster_(cluster), tracer_(tracer), r_(r), out_(out),
        start_us_(start_us),
        traced_(tracer != nullptr && tracer->enabled()) {}

  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Runs until every operation finished (or the drain limit passed).
  /// Host time is taken per virtual window of the arrival schedule, for
  /// per-window throughput.
  void Run() {
    auto& sched = cluster_.scheduler();
    const auto& ops = w_.ops();
    if (ops.empty()) return;
    ScheduleGenerator(0);
    const int64_t last_due = start_us_ + ops.back().due_us;
    sched.ScheduleAt(last_due + kDrainLimitUs, [this] { deadline_hit_ = true; });
    const int64_t window =
        std::max<int64_t>(1, (ops.back().due_us + 1) /
                                 static_cast<int64_t>(w_.rate_blocks()));
    Tracer::Scope span(tracer_, "sim.run", 0);
    size_t due_before = 0;
    size_t b = 0;
    for (int64_t until = start_us_ + window; !Done(); until += window, ++b) {
      if (!traced_ && until <= last_due + 1 &&
          SliceBefore(b, w_.rate_blocks())) {
        r_->calibration_slices.push_back(CalibrationSlice());
      }
      const double h0 = HostSeconds();
      sched.RunUntil([this, &sched, until] {
        return Done() || sched.Now() >= until;
      });
      const double host_s = HostSeconds() - h0;
      size_t due = due_before;
      while (due < ops.size() && start_us_ + ops[due].due_us < until) ++due;
      if (until <= last_due + 1 && due > due_before) {
        r_->block_rates.push_back(
            Ratio(static_cast<double>(due - due_before), host_s));
      }
      due_before = due;
    }
    stopped_ = true;  // Late completions and retries are ignored.
    for (size_t j = 0; j < ops.size(); ++j) {
      if (r_->attempts[j] > 0 && r_->history.done_us[j] < 0) {
        r_->history.done_us[j] = sched.Now();  // Timed out.
        r_->outcomes[j].done_us = sched.Now();
      }
    }
  }

 private:
  bool Done() const {
    return finished_ == w_.ops().size() || deadline_hit_;
  }

  void ScheduleGenerator(size_t j) {
    cluster_.scheduler().ScheduleAt(start_us_ + w_.ops()[j].due_us,
                                    [this, j] { Generate(j); });
  }

  void Generate(size_t j) {
    Tracer::Scope op_span(tracer_, "op", static_cast<uint32_t>(j));
    auto& sched = cluster_.scheduler();
    const int64_t due = start_us_ + w_.ops()[j].due_us;
    r_->late_us_max = std::max(r_->late_us_max, sched.Now() - due);
    r_->history.issued_us[j] = due;
    r_->outcomes[j].start_us = due;
    Attempt(j);
    if (j + 1 < w_.ops().size()) ScheduleGenerator(j + 1);
    r_->pending_peak = std::max(r_->pending_peak, sched.pending_events());
  }

  void Attempt(size_t j) {
    if (stopped_) return;
    const Op& op = w_.ops()[j];
    const int attempt = r_->attempts[j]++;
    const auto& initiators = w_.initiators();
    const PeerId via =
        attempt == 0 ? op.via
                     : initiators[(j * 7 + static_cast<size_t>(attempt)) %
                                  initiators.size()];
    const auto op_id = static_cast<uint32_t>(j);
    Tracer::Scope op_span(tracer_, "op", op_id);
    const double h0 = HostSeconds();
    if (op.is_write()) {
      Tracer::Scope span(tracer_, "triple.write", op_id);
      cluster_.node(via).InsertTuple(op.tuple, [this, j, attempt](Status s) {
        Finish(j, attempt, s.ok(), nullptr);
      });
    } else {
      auto done = [this, j, attempt](Result<QueryResult> result) {
        Finish(j, attempt, result.ok(), result.ok() ? &*result : nullptr);
      };
      if (traced_) {
        const bool planned = TracedQuery(
            cluster_, tracer_, op_id, via, op.vql,
            [&](const unistore::plan::PhysicalPlan& plan) {
              Tracer::Scope span(tracer_, "exec.issue", op_id);
              cluster_.node(via).QueryPlan(plan, done);
            });
        if (!planned) {
          r_->traced_plan_failed = true;
          Finish(j, attempt, false, nullptr);
        }
      } else {
        cluster_.node(via).Query(op.vql, done);
      }
    }
    r_->host_us[j] += (HostSeconds() - h0) * 1e6;
  }

  /// Completion of attempt `attempt` of operation `j`. A second callback
  /// for an attempt that already completed is counted and ignored.
  void Finish(size_t j, int attempt, bool ok, QueryResult* result) {
    Tracer::Scope op_span(tracer_, "op", static_cast<uint32_t>(j));
    auto& sched = cluster_.scheduler();
    if (stopped_) return;
    if (attempt != r_->attempts[j] - 1 || completed_[j] > attempt) {
      ++r_->duplicate_callbacks;
      return;
    }
    completed_[j] = attempt + 1;
    if (!ok && r_->attempts[j] < kMaxAttempts) {
      sched.Schedule(kRetryBackoffUs, [this, j] { Attempt(j); });
      return;
    }
    r_->history.done_us[j] = sched.Now();
    r_->outcomes[j].done_us = sched.Now();
    r_->outcomes[j].ok = ok;
    if (w_.ops()[j].is_write()) {
      r_->history.acked[j] = ok;
    } else if (result != nullptr) {
      (*out_)[j] = std::move(*result);
    }
    ++finished_;
    r_->pending_peak = std::max(r_->pending_peak, sched.pending_events());
  }

  const Workload& w_;
  Cluster& cluster_;
  Tracer* tracer_;
  Round* r_;
  std::vector<std::optional<QueryResult>>* out_;
  int64_t start_us_;
  bool traced_;
  /// Per op: attempts whose completion has been seen.
  std::vector<int> completed_ = std::vector<int>(w_.ops().size(), 0);
  size_t finished_ = 0;
  bool deadline_hit_ = false;
  bool stopped_ = false;
};

/// True iff a live peer's store holds `entry` (same key and id, not a
/// tombstone).
bool HeldByLivePeer(Cluster& cluster, const unistore::pgrid::Entry& entry) {
  auto& overlay = cluster.overlay();
  for (size_t p = 0; p < overlay.size(); ++p) {
    const auto id = static_cast<PeerId>(p);
    if (!overlay.IsAlive(id)) continue;
    bool held = false;
    overlay.peer(id)->store().ScanKey(
        entry.key, [&](const unistore::pgrid::EntryView& e) {
          held = e.id == entry.id && !e.deleted;
          return !held;
        });
    if (held) return true;
  }
  return false;
}

/// After quiesce, for every acknowledged write: it is lost if one of its
/// index entries is on no live peer's store, and unreadable if a point
/// read from each of a few initiators (which may reach different
/// replicas) misses part of it.
void CheckAckedWrites(const Workload& w, Cluster& cluster, Round* r) {
  constexpr size_t kReaders = 5;
  const auto& ops = w.ops();
  const auto& initiators = w.initiators();
  for (size_t j = 0; j < ops.size(); ++j) {
    if (!ops[j].is_write() || !r->history.acked[j]) continue;
    ++r->writes_checked;
    bool held = true;
    for (const auto& triple : unistore::triple::Decompose(ops[j].tuple)) {
      for (const auto& entry :
           unistore::triple::EntriesForTriple(triple, /*version=*/1)) {
        held = held && HeldByLivePeer(cluster, entry);
      }
    }
    if (!held) ++r->lost_writes;
    const std::vector<std::string> expected = TupleRows(ops[j].tuple);
    const std::string vql =
        "SELECT ?p,?v WHERE { ('" + ops[j].tuple.oid + "',?p,?v) }";
    bool found = false;
    for (size_t k = 0; k < kReaders && !found; ++k) {
      auto result = cluster.QuerySync(
          initiators[(j + k * 11) % initiators.size()], vql);
      if (!result.ok()) continue;
      std::vector<std::string> rows = RenderRows(*result);
      std::sort(rows.begin(), rows.end());
      found = rows == expected;
    }
    if (!found) ++r->unreadable_writes;
  }
}

}  // namespace

uint64_t Round::VirtualDigest() const {
  uint64_t h = 0;
  for (size_t j = 0; j < outcomes.size(); ++j) {
    h = HashMix(h, outcomes[j].ok);
    h = HashMix(h, static_cast<uint64_t>(outcomes[j].start_us));
    h = HashMix(h, static_cast<uint64_t>(outcomes[j].done_us));
    for (const std::string& row : rows[j]) h = HashString(h, row);
  }
  h = HashMix(h, delta.traffic.messages_sent);
  h = HashMix(h, delta.traffic.bytes_sent);
  h = HashMix(h, delta.events);
  return h;
}

void Round::ReleaseRows() {
  for (const auto& r : rows) rows_returned += r.size();
  std::vector<std::vector<std::string>>().swap(rows);
}

void Round::ReleasePerOp() {
  ReleaseRows();
  std::vector<Outcome>().swap(outcomes);
  history = History{};
  std::vector<double>().swap(host_us);
  std::vector<uint64_t>().swap(msgs);
  std::vector<int>().swap(attempts);
}

bool RunRound(const Workload& w, Phase phase, Tracer* tracer, Round* r,
              std::string* error) {
  const unistore::core::ClusterOptions options = w.Options();
  r->memtable_flush_threshold = options.peer.storage.memtable_flush_threshold;
  if (options.latency == unistore::core::ClusterOptions::Latency::kLan) {
    r->hop_ms = static_cast<double>(options.lan_delay_us) / 1000.0;
  }
  r->calibration_s = CalibrationSeconds();

  double t0 = HostSeconds();
  Cluster cluster(options);
  Status loaded = w.Load(cluster);
  cluster.simulation().RunUntilIdle();
  double t1 = HostSeconds();
  cluster.RefreshStats();
  double t2 = HostSeconds();
  const int64_t start_us = cluster.scheduler().Now() + kStartOffsetUs;
  unistore::net::ChurnSchedule churn = w.Churn(start_us);
  if (!churn.empty()) cluster.InstallChurn(std::move(churn));
  double t3 = HostSeconds();
  r->load_s = t1 - t0;
  r->stats_s = t2 - t1;
  r->churn_s = t3 - t2;
  if (!loaded.ok()) {
    *error = "set-up failed: " + loaded.ToString();
    return false;
  }

  const Snapshot before = TakeSnapshot(cluster);
  r->setup_bytes = before.traffic.bytes_sent;
  for (size_t p = 0; p < options.peers; ++p) {
    r->setup_entries += before.stores[p].ingested_entries;
    const size_t live =
        cluster.overlay().peer(static_cast<PeerId>(p))->store().live_size();
    r->entries_per_peer_max = std::max(r->entries_per_peer_max, live);
    r->entries_per_peer_mean += static_cast<double>(live);
  }
  r->entries_per_peer_mean /= static_cast<double>(options.peers);
  if (phase == Phase::kSetupOnly) return true;

  const size_t n = w.ops().size();
  r->measured = true;
  r->outcomes.assign(n, Outcome{});
  r->history.issued_us.assign(n, -1);
  r->history.done_us.assign(n, -1);
  r->history.acked.assign(n, false);
  r->host_us.assign(n, 0.0);
  r->msgs.assign(n, 0);
  r->attempts.assign(n, 0);
  std::vector<std::optional<QueryResult>> results(n);

  const double h0 = HostSeconds();
  if (w.open_loop()) {
    OpenLoop loop(w, cluster, tracer, r, &results, start_us);
    loop.Run();
  } else {
    RunClosedLoop(w, cluster, tracer, r, &results);
  }
  double sliced_s = 0;
  for (double s : r->calibration_slices) sliced_s += s;
  r->host_s = HostSeconds() - h0 - sliced_s;
  r->phase_calibration_s = r->calibration_slices.empty()
                               ? r->calibration_s
                               : Median(r->calibration_slices);
  r->delta = Difference(before, TakeSnapshot(cluster));
  if (w.open_loop() && phase == Phase::kJudged) {
    cluster.scheduler().RunUntilIdle();  // Quiesce before the write check.
    CheckAckedWrites(w, cluster, r);
  }

  size_t live_total = 0;
  size_t resident_total = 0;
  for (size_t p = 0; p < cluster.overlay().size(); ++p) {
    const auto& store = cluster.overlay().peer(static_cast<PeerId>(p))->store();
    r->runs_max = std::max(r->runs_max, store.run_count());
    live_total += store.live_size();
    resident_total += store.resident_bytes();
  }
  r->resident_bytes_per_live_entry =
      Ratio(static_cast<double>(resident_total), static_cast<double>(live_total));

  r->rows.assign(n, {});
  for (size_t j = 0; j < n; ++j) {
    if (results[j].has_value()) r->rows[j] = RenderRows(*results[j]);
    r->outcomes[j].correct = r->outcomes[j].ok;
  }
  return true;
}

}  // namespace perfbench
