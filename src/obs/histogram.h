// Copyright (c) GRNN authors.
// Log-linear histogram: the one histogram shape used everywhere
// (scheduler latency, registry histograms, bench percentiles).
//
// Grew out of the serving layer's latency histogram and moved here so
// the metrics registry and the scheduler share one implementation.

#ifndef GRNN_OBS_HISTOGRAM_H_
#define GRNN_OBS_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace grnn::obs {

/// Log-linear histogram (integer samples, typically microseconds):
/// exact buckets below 2^kSubBits, then kSubBuckets per power-of-two
/// octave, so the quantile error is bounded by ~1/kSubBuckets of the
/// value at every magnitude. Record is O(1); Percentile walks the
/// (fixed, small) bucket array. Not internally synchronized — callers
/// shard or lock (MetricsRegistry does the former).
class Histogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr uint64_t kSubBuckets = uint64_t{1} << kSubBits;

  void Record(uint64_t value);
  /// Upper bound of the bucket holding the p-th percentile sample
  /// (p in [0, 100]); 0 when empty.
  uint64_t Percentile(double p) const;
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  uint64_t max() const { return max_; }
  uint64_t sum() const { return sum_; }

 private:
  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketUpperBound(size_t index);
  // 64 - kSubBits octaves of kSubBuckets plus the exact range.
  static constexpr size_t kNumBuckets =
      (64 - kSubBits) * kSubBuckets + kSubBuckets;

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t max_ = 0;
  uint64_t sum_ = 0;
};

}  // namespace grnn::obs

#endif  // GRNN_OBS_HISTOGRAM_H_
