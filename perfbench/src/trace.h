// Host-time spans recorded by the benchmark around its calls into each
// layer. Spans stay in memory and are written out when the run ends; a
// disabled tracer records nothing.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host CPU seconds of the calling thread. The benchmark is one thread on
/// the single-thread engine, so this is the CPU the cluster costs, free of
/// the wall-clock noise of a shared machine.
double HostSeconds();

/// Host seconds a fixed synthetic load takes right now: string keys
/// through an ordered map and a pointer chase through 8 MiB, the kinds of
/// work the cluster's hot paths do, in none of its code.
double CalibrationSlice();

/// Median of five CalibrationSlice() runs.
double CalibrationSeconds();

struct Span {
  const char* name;  ///< "<layer>.<call>", e.g. "vql.parse".
  double start = 0;  ///< HostSeconds() at entry.
  double end = 0;
  int parent = -1;   ///< Index of the enclosing span, -1 for a root.
  uint32_t op = 0;   ///< Operation the span belongs to.
};

/// Seconds attributed to the layers: the self time of every span that is
/// not the benchmark's own ("op"). The self time of "op" spans (the
/// client's bookkeeping, even when nested in a layer span such as the
/// open loop's "sim.run") and time outside every span are not covered.
double LayerSelfSeconds(const std::vector<Span>& spans);

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when disabled.
  int Begin(const char* name, uint32_t op);
  void End(int index);

  /// RAII span.
  class Scope {
   public:
    /// A null tracer records nothing.
    Scope(Tracer* tracer, const char* name, uint32_t op)
        : tracer_(tracer),
          index_(tracer == nullptr ? -1 : tracer->Begin(name, op)) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Seconds spent in spans of `name`, in total.
  double Total(const std::string& name) const;

  /// Self time per layer (the span name up to its first '.'): a span's
  /// duration minus the part its child spans cover.
  std::map<std::string, double> SelfByLayer() const;


  /// Writes one JSON object per span per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
