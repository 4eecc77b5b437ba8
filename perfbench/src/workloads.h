// The benchmark workloads: their cluster configuration, data set,
// operation script and output oracles. Everything is generated from the
// run's seed; the cluster receives only the generated tuples and VQL
// strings.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "exec/executor.h"
#include "net/churn_plane.h"
#include "triple/schema.h"

namespace perfbench {

/// Renders a value so the engine's rows and the references compare
/// exactly: numbers by value, strings verbatim.
std::string RenderValue(const unistore::triple::Value& v);

/// One rendered row per result row, columns in result order.
std::vector<std::string> RenderRows(const unistore::exec::QueryResult& r);

/// The sorted rows a point query on `t.oid` returns: (attribute, value).
std::vector<std::string> TupleRows(const unistore::triple::Tuple& t);

/// One scripted operation.
struct Op {
  std::string cls;                 ///< Query class, or "write".
  std::string vql;                 ///< Reads: the query text.
  unistore::triple::Tuple tuple;   ///< Writes: the tuple inserted.
  unistore::net::PeerId via = 0;   ///< Initiating peer (first attempt).
  int64_t due_us = 0;  ///< Open loop: due time after the phase starts.

  bool is_write() const { return cls == "write"; }
};

/// What the runner saw, per operation, for the oracles.
struct History {
  std::vector<int64_t> issued_us;  ///< First issue (open loop: due time).
  std::vector<int64_t> done_us;    ///< Completion of the last attempt.
  std::vector<bool> acked;         ///< Writes: acknowledged.
};

class Workload {
 public:
  virtual ~Workload() = default;

  const std::string& name() const { return name_; }
  bool open_loop() const { return open_loop_; }
  const std::vector<Op>& ops() const { return ops_; }
  /// Peers an open-loop client may re-issue from (never scripted down).
  const std::vector<unistore::net::PeerId>& initiators() const {
    return initiators_;
  }
  size_t data_tuples() const { return data_.size(); }
  /// Blocks (closed loop) or virtual windows (open loop) the measured
  /// phase is cut into for per-block throughput; each block holds the
  /// same operation mix.
  virtual size_t rate_blocks() const = 0;

  virtual unistore::core::ClusterOptions Options() const = 0;

  /// Ingests the data set.
  virtual unistore::Status Load(unistore::core::Cluster& cluster) const = 0;

  /// Lifecycle script for a phase starting at `start_us`; empty if none.
  virtual unistore::net::ChurnSchedule Churn(int64_t start_us) const {
    (void)start_us;
    return {};
  }

  /// Computes references that need a cluster of their own (outside every
  /// timed phase). Returns false if a reference query failed.
  virtual bool PrepareReferences() { return true; }

  /// True iff `rows` (rendered, in result order) are right for read `j`.
  /// Rows from the preloaded data are required; rows of writes are allowed
  /// once issued before `j` completed, and in a closed loop required once
  /// acknowledged before `j` was issued.
  bool Check(size_t j, const std::vector<std::string>& rows,
             const History& history) const;

 protected:
  Workload(std::string name, bool open_loop)
      : name_(std::move(name)), open_loop_(open_loop) {}

  /// Appends a read whose rows are `matcher` over the data; `limit` > 0
  /// marks an ascending ORDER BY ... LIMIT read. `preload`, when given,
  /// holds the matcher's rows over the data, precomputed by the caller.
  void AddRead(std::string cls, std::string vql, unistore::net::PeerId via,
               std::function<std::vector<std::string>(
                   const unistore::triple::Tuple&)> matcher,
               size_t limit = 0,
               const std::vector<std::string>* preload = nullptr);
  void AddWrite(unistore::triple::Tuple tuple, unistore::net::PeerId via);
  /// Replaces read `j`'s required rows (references from a cluster).
  void SetReference(size_t j, std::vector<std::string> rows);

  std::vector<unistore::triple::Tuple> data_;
  std::vector<Op> ops_;
  std::vector<unistore::net::PeerId> initiators_;

 private:
  std::string name_;
  bool open_loop_;
  std::vector<std::function<std::vector<std::string>(
      const unistore::triple::Tuple&)>>
      matchers_;
  std::vector<std::vector<std::string>> preload_rows_;  ///< Sorted.
  std::vector<size_t> limits_;
};

/// The measured workloads paper_mix and zipf_rw, or one of the two that
/// reproduce known defects of the program and fail (paper_mix_pubs:
/// paper_mix with top-k reads on num_of_pubs too; churn_open); nullptr for
/// another name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
