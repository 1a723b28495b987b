// Measurement helpers of the benchmark: exact sample percentiles and
// per-span-name self time folded from obs::TraceContext span trees.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

inline double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// Exact percentiles over every recorded sample (no bucketing: the
/// reported number is a measured value).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  /// A failed or refused operation: an infinite sample, so it misses
  /// every latency limit (a percentile it reaches is not finite, which
  /// fails the run).
  void AddFailure() {
    values_.push_back(std::numeric_limits<double>::infinity());
  }
  void Merge(const Samples& other);
  size_t count() const { return values_.size(); }
  /// Nearest-rank percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  double Mean() const;

 private:
  std::vector<double> values_;
};

/// Samples a percentile needs so that at least `beyond` samples lie
/// above it (p99 with 10 beyond needs 1000).
size_t SamplesNeeded(double p, size_t beyond);

/// Median of a small set of per-window statistics; 0 when empty.
double Median(std::vector<double> values);

/// Self time per span name: a span's duration minus the part of its
/// interval covered by its direct children.
class SpanTable {
 public:
  /// Folds one finished trace (spans in open order, parent links).
  void Add(const std::vector<grnn::obs::SpanRecord>& spans);
  void Merge(const SpanTable& other);

  /// Total self nanoseconds of spans named `name`.
  double SelfNanos(const std::string& name) const;
  /// Sum over spans of one note key (e.g. "page.pins").
  uint64_t NoteTotal(const std::string& key) const;
  const std::map<std::string, double>& self_nanos() const {
    return self_nanos_;
  }
  const std::map<std::string, uint64_t>& span_counts() const {
    return span_counts_;
  }

 private:
  std::map<std::string, double> self_nanos_;
  std::map<std::string, uint64_t> span_counts_;
  std::map<std::string, uint64_t> notes_;
};

/// Self time of span `index` within `spans` (exposed for the unit check).
double SelfNanos(const std::vector<grnn::obs::SpanRecord>& spans,
                 size_t index);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// CPU time of the calling thread and of the whole process, in seconds.
/// On a host that accounts steal time separately (paravirtualized
/// clocks), neither includes time the host ran something else.
double ThreadCpuSeconds();
double ProcessCpuSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
