// Self-tests of the benchmark's own arithmetic, on hand-made samples and
// on tiny clusters. Every run executes them first and refuses to measure
// if one fails.
#include "selftest.h"

#include <cmath>
#include <cstdio>
#include <numeric>

#include "core/datagen.h"
#include "runner.h"

namespace perfbench {
namespace {

using unistore::core::Cluster;
using unistore::core::ClusterOptions;
using unistore::net::PeerId;
using unistore::triple::Tuple;

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("selftest FAILED: %s\n", what);
  }
}

/// A small bibliography on a few peers, for the runner tests.
class TinyWorkload : public Workload {
 public:
  TinyWorkload(bool open_loop, size_t peers)
      : Workload("selftest", open_loop), peers_(peers) {
    unistore::core::BibliographyOptions bib;
    bib.authors = 6;
    bib.publications_per_author = 1;
    data_ = unistore::core::GenerateBibliography(bib).AllTuples();
    for (size_t p = 1; p < peers; ++p) {
      initiators_.push_back(static_cast<PeerId>(p));
    }
  }

  /// A join over every person, so the initiator must reach other peers.
  void AddJoin(PeerId via, int64_t due_us) {
    AddRead("join", "SELECT ?o,?n WHERE { (?o,'age',?g) (?o,'name',?n) }",
            via, [](const Tuple& t) {
              std::vector<std::string> rows;
              auto age = t.attributes.find("age");
              auto name = t.attributes.find("name");
              if (age != t.attributes.end() && name != t.attributes.end()) {
                rows.push_back(RenderValue(unistore::triple::Value::String(
                                   t.oid)) +
                               '\x1f' + RenderValue(name->second));
              }
              return rows;
            });
    ops_.back().due_us = due_us;
  }

  void AddPointWrite(Tuple t, PeerId via) { AddWrite(std::move(t), via); }

  void CrashAtStart(PeerId peer) { crashed_ = peer; }

  size_t rate_blocks() const override { return 1; }

  ClusterOptions Options() const override {
    ClusterOptions o;
    o.peers = peers_;
    o.seed = 5;
    return o;
  }

  unistore::Status Load(Cluster& cluster) const override {
    for (size_t i = 0; i < data_.size(); ++i) {
      auto s = cluster.InsertTupleSync(static_cast<PeerId>(i % peers_),
                                       data_[i]);
      if (!s.ok()) return s;
    }
    return unistore::Status::OK();
  }

  unistore::net::ChurnSchedule Churn(int64_t start_us) const override {
    unistore::net::ChurnSchedule churn;
    if (crashed_ != unistore::net::kNoPeer) churn.Crash(crashed_, start_us);
    return churn;
  }

 private:
  size_t peers_;
  PeerId crashed_ = unistore::net::kNoPeer;
};

void TestPercentileRule() {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  Expect(Percentile(v, 50) == 500 && Percentile(v, 99) == 990,
         "nearest-rank percentiles of 1..1000");
  Expect(SamplesBeyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  Expect(HighestSupportedPercentile(1000) == 99,
         "p99 is the highest supported percentile of 1000 samples");
  Expect(HighestSupportedPercentile(999) == 90,
         "999 samples support only p90");
  Expect(HighestSupportedPercentile(10000) == 99.9,
         "10000 samples support p99.9");
  Expect(HighestSupportedPercentile(19) == 0, "19 samples support nothing");
  Expect(Median({3, 1, 2, 10}) == 2.5, "median of an even sample");

  // Whole-hop latencies: 2 samples of 3 ms, 6 of 4 ms, 2 of 5 ms.
  const std::vector<double> hops = {3, 3, 4, 4, 4, 4, 4, 4, 5, 5};
  Expect(Percentile(hops, 50) == 4 &&
             std::fabs(GroupedPercentile(hops, 50, 1.0) - 3.5) < 1e-12,
         "the median interpolates within its hop: 3 + (5 - 2) / 6");
  const std::vector<double> faster = {3, 3, 3, 4, 4, 4, 4, 4, 5, 5};
  Expect(Percentile(faster, 50) == 4 &&
             GroupedPercentile(faster, 50, 1.0) <
                 GroupedPercentile(hops, 50, 1.0),
         "one operation a hop faster lowers the grouped median");
  Expect(GroupedPercentile(v, 99, 0.0) == Percentile(v, 99),
         "a zero step gives the nearest-rank percentile");
  Expect(GroupedPercentile(hops, 100, 1.0) == 5,
         "the grouped maximum is the maximum");
}

void TestSloShare() {
  std::vector<Outcome> ops(5);
  ops[0] = {true, true, 0, 100 * 1000};        // Met.
  ops[1] = {true, true, 0, 600 * 1000};        // Too slow.
  ops[2] = {false, false, 0, 10 * 1000};       // Failed.
  ops[3] = {true, false, 0, 10 * 1000};        // Wrong rows.
  ops[4] = {true, true, 1000, 501 * 1000};     // Exactly the limit.
  Expect(std::fabs(SloShare(ops, 500 * 1000) - 0.4) < 1e-12,
         "slo_share counts failures and wrong rows as misses");
  Expect(FailCount(ops) == 2, "fail count includes wrong rows");
  Expect(SuccessLatenciesMs(ops).size() == 4,
         "latencies are taken from completed operations");
}

void TestOpenLoopLatency() {
  TinyWorkload w(/*open_loop=*/true, 8);
  w.AddJoin(/*via=*/0, /*due_us=*/0);     // Its initiator is down.
  w.AddJoin(/*via=*/1, /*due_us=*/1000);
  w.CrashAtStart(0);
  Round r;
  std::string error;
  const bool ran = RunRound(w, Phase::kJudged, nullptr, &r, &error);
  Expect(ran, "tiny open-loop round runs");
  if (!ran) return;
  const Outcome& late = r.outcomes[0];
  const Outcome& prompt = r.outcomes[1];
  Expect(late.ok && prompt.ok, "both open-loop operations complete");
  Expect(r.attempts[0] > 1 && r.attempts[1] == 1,
         "only the operation from the crashed initiator is retried");
  Expect(prompt.start_us - late.start_us == 1000,
         "open-loop operations start at their due times");
  Expect(late.start_us == r.history.issued_us[0] &&
             late.latency_us() == late.done_us - late.start_us,
         "open-loop latency runs from the due time");
  Expect(late.latency_us() >= kRetryBackoffUs &&
             late.latency_us() > prompt.latency_us(),
         "a retried operation is charged its wait from the due time");
  Expect(w.Check(0, r.rows[0], r.history) && w.Check(1, r.rows[1], r.history),
         "the tiny open-loop rows pass the oracle");
}

void TestAckedWriteCheck() {
  TinyWorkload w(/*open_loop=*/true, 4);
  Tuple t;
  t.oid = "selftest-open-write";
  t.attributes["age"] = unistore::triple::Value::Int(41);
  w.AddPointWrite(t, 1);
  Round r;
  std::string error;
  const bool ran = RunRound(w, Phase::kJudged, nullptr, &r, &error);
  Expect(ran && r.history.acked[0] && r.writes_checked == 1 &&
             r.lost_writes == 0 && r.unreadable_writes == 0,
         "an acknowledged write is found on a live store and reads back");
}

Span MakeSpan(const char* name, double start, double end, int parent) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  return s;
}

void TestTraceCoverage() {
  // The open loop's shape: one sim.run span around the phase, client
  // callbacks ("op") inside it, layer calls inside those.
  std::vector<Span> spans = {
      MakeSpan("sim.run", 0, 10, -1),
      MakeSpan("op", 1, 5, 0),
      MakeSpan("vql.parse", 2, 3, 1),
      MakeSpan("exec.issue", 3, 4, 1),
  };
  Expect(LayerSelfSeconds(spans) == 8,
         "coverage counts layer self time: sim.run 6 s, parse 1 s, issue 1 s");
  spans.push_back(MakeSpan("op", 6, 9, 0));  // Bookkeeping, no layer span.
  Expect(LayerSelfSeconds(spans) == 5,
         "a span-free stretch of client work inside sim.run lowers coverage");
  std::vector<Span> flat = {MakeSpan("op", 0, 4, -1),
                            MakeSpan("triple.write", 1, 4, 0)};
  Expect(LayerSelfSeconds(flat) == 3,
         "closed loop: the op span's own time is not covered");
}

void TestCounterDifferencing() {
  Expect(CounterDelta(10, 25) == 15, "counter delta");
  Expect(CounterDelta(10, 3) == 3, "a reset counter contributes since reset");

  Snapshot before;
  Snapshot after;
  before.stores.resize(1);
  after.stores.resize(2);  // A peer joined during the phase.
  before.stores[0].ingested_entries = 100;
  after.stores[0].ingested_entries = 130;
  after.stores[1].ingested_entries = 7;
  Expect(Difference(before, after).store.ingested_entries == 37,
         "store deltas cover peers that joined in the phase");

  TinyWorkload w(/*open_loop=*/false, 4);
  w.AddJoin(1, 0);
  Tuple t;
  t.oid = "selftest-write";
  t.attributes["age"] = unistore::triple::Value::Int(33);
  t.attributes["name"] = unistore::triple::Value::String("new");
  w.AddPointWrite(t, 2);
  w.AddJoin(3, 0);
  Round r;
  std::string error;
  const bool ran = RunRound(w, Phase::kJudged, nullptr, &r, &error);
  Expect(ran, "tiny closed-loop round runs");
  if (!ran) return;
  const uint64_t per_op = std::accumulate(r.msgs.begin(), r.msgs.end(),
                                          uint64_t{0});
  Expect(r.setup_bytes > 0 && r.delta.traffic.messages_sent > 0,
         "set-up and the measured phase both send messages");
  Expect(r.delta.traffic.messages_sent == per_op,
         "phase counters equal the operations' own traffic: set-up excluded");
  Expect(r.outcomes[2].ok && w.Check(2, r.rows[2], r.history) &&
             r.rows[2].size() == r.rows[0].size() + 1,
         "a read after an acknowledged write must return it");
}

}  // namespace

int RunSelfTests() {
  failures = 0;
  TestPercentileRule();
  TestSloShare();
  TestOpenLoopLatency();
  TestAckedWriteCheck();
  TestTraceCoverage();
  TestCounterDifferencing();
  return failures;
}

}  // namespace perfbench
