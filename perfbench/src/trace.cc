#include "trace.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {
namespace {

bool IsBenchSpan(const Span& s) { return std::strcmp(s.name, "op") == 0; }

std::string LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string("bench") : std::string(name, dot);
}

/// Each span's duration minus the part its child spans cover.
std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end - s.start;
  }
  return self;
}

}  // namespace

double HostSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double CalibrationSlice() {
  const double t0 = HostSeconds();
  std::map<std::string, uint64_t> m;
  uint64_t x = 88172645463325252ULL;
  uint64_t sink = 0;
  for (int i = 0; i < 10000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    m[std::to_string(x % 20000)] += static_cast<uint64_t>(i);
  }
  for (auto it = m.begin(); it != m.end(); it = m.erase(it)) {
    sink += it->second;
  }
  std::vector<uint32_t> ring(1u << 21);
  for (uint32_t i = 0; i < ring.size(); ++i) {
    ring[i] = (i * 2654435761u) & static_cast<uint32_t>(ring.size() - 1);
  }
  uint32_t p = 0;
  for (uint32_t i = 0; i < (1u << 18); ++i) p = ring[p] ^ (i & 7u);
  sink += p;
  volatile uint64_t keep = sink;
  (void)keep;
  return HostSeconds() - t0;
}

double CalibrationSeconds() {
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) times.push_back(CalibrationSlice());
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

int Tracer::Begin(const char* name, uint32_t op) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  span.start = HostSeconds();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end = HostSeconds();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double Tracer::Total(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.end - s.start;
  }
  return total;
}

double LayerSelfSeconds(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  double covered = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!IsBenchSpan(spans[i])) covered += self[i];
  }
  return covered;
}

std::map<std::string, double> Tracer::SelfByLayer() const {
  const std::vector<double> self = SelfTimes(spans_);
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_layer[LayerOf(spans_[i].name)] += self[i];
  }
  return by_layer;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"parent\":%d,\"op\":%u}\n",
                 s.name, (s.start - origin) * 1e6, (s.end - origin) * 1e6,
                 s.parent, s.op);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
