#include "stats.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

// Nanoseconds of each span's interval covered by its direct children.
// Children of one parent open in start order (the arena is preorder by
// open time), so a running cover end per parent merges overlaps.
std::vector<double> CoveredNanos(
    const std::vector<grnn::obs::SpanRecord>& spans) {
  std::vector<double> covered(spans.size(), 0.0);
  std::vector<uint64_t> cover_end(spans.size(), 0);
  for (const grnn::obs::SpanRecord& child : spans) {
    if (child.parent < 0 ||
        static_cast<size_t>(child.parent) >= spans.size()) {
      continue;
    }
    const size_t p = static_cast<size_t>(child.parent);
    const grnn::obs::SpanRecord& parent = spans[p];
    const uint64_t parent_end = parent.start_nanos + parent.duration_nanos;
    const uint64_t start = std::max(
        {child.start_nanos, parent.start_nanos, cover_end[p]});
    const uint64_t end =
        std::min(child.start_nanos + child.duration_nanos, parent_end);
    if (end > start) {
      covered[p] += static_cast<double>(end - start);
      cover_end[p] = end;
    }
  }
  return covered;
}

}  // namespace

void Samples::Merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) {
    return 0.0;
  }
  const double n = static_cast<double>(values_.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, values_.size());
  std::vector<double> copy = values_;
  std::nth_element(copy.begin(), copy.begin() + static_cast<long>(rank - 1),
                   copy.end());
  return copy[rank - 1];
}

double Samples::Mean() const {
  if (values_.empty()) {
    return 0.0;
  }
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

size_t SamplesNeeded(double p, size_t beyond) {
  return static_cast<size_t>(
      std::ceil(static_cast<double>(beyond) * 100.0 / (100.0 - p)));
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

double SelfNanos(const std::vector<grnn::obs::SpanRecord>& spans,
                 size_t index) {
  const std::vector<double> covered = CoveredNanos(spans);
  return std::max(
      0.0, static_cast<double>(spans[index].duration_nanos) - covered[index]);
}

void SpanTable::Add(const std::vector<grnn::obs::SpanRecord>& spans) {
  const std::vector<double> covered = CoveredNanos(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    self_nanos_[name] += std::max(
        0.0, static_cast<double>(spans[i].duration_nanos) - covered[i]);
    span_counts_[name]++;
    for (const auto& [key, value] : spans[i].notes) {
      notes_[key] += value;
    }
  }
}

void SpanTable::Merge(const SpanTable& other) {
  for (const auto& [name, v] : other.self_nanos_) {
    self_nanos_[name] += v;
  }
  for (const auto& [name, v] : other.span_counts_) {
    span_counts_[name] += v;
  }
  for (const auto& [key, v] : other.notes_) {
    notes_[key] += v;
  }
}

double SpanTable::SelfNanos(const std::string& name) const {
  auto it = self_nanos_.find(name);
  return it == self_nanos_.end() ? 0.0 : it->second;
}

uint64_t SpanTable::NoteTotal(const std::string& key) const {
  auto it = notes_.find(key);
  return it == notes_.end() ? 0 : it->second;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

}  // namespace perfbench
