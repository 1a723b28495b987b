// Unit check of the benchmark's measurement helpers: exact percentiles,
// the p99 sample rule, medians, failure samples, and per-span-name self
// time. Exits non-zero on the first failed check.
//
//   perfbench_unit

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "obs/trace.h"
#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    failures++;
  }
}

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

grnn::obs::SpanRecord Span(int32_t parent, const char* name, uint64_t start,
                           uint64_t duration) {
  grnn::obs::SpanRecord s;
  s.parent = parent;
  s.name = name;
  s.start_nanos = start;
  s.duration_nanos = duration;
  return s;
}

void TestPercentiles() {
  perfbench::Samples s;
  Check(s.Percentile(50) == 0.0, "empty percentile is 0");
  for (int v = 100; v >= 1; --v) {
    s.Add(v);  // 1..100, inserted out of order
  }
  Check(Near(s.Percentile(50), 50), "p50 of 1..100 is 50 (nearest rank)");
  Check(Near(s.Percentile(99), 99), "p99 of 1..100 is 99");
  Check(Near(s.Percentile(100), 100), "p100 is the maximum");
  Check(Near(s.Percentile(0), 1), "p0 is the minimum");
  Check(Near(s.Mean(), 50.5), "mean of 1..100");
  Check(perfbench::SamplesNeeded(99, 10) == 1000,
        "p99 needs 1000 samples for 10 beyond it");
  Check(perfbench::SamplesNeeded(50, 10) == 20, "p50 needs 20");

  perfbench::Samples with_failure;
  for (int v = 1; v <= 99; ++v) {
    with_failure.Add(v);
  }
  with_failure.AddFailure();
  Check(std::isinf(with_failure.Percentile(100)),
        "a failure is an infinite sample");
  Check(Near(with_failure.Percentile(99), 99),
        "one failure in 100 stays beyond p99");

  Check(Near(perfbench::Median({3, 1, 2}), 2), "odd median");
  Check(Near(perfbench::Median({4, 1, 3, 2}), 2.5), "even median");
  Check(perfbench::Median({}) == 0.0, "empty median is 0");
}

void TestSelfTime() {
  // query [0, 100): children a [10, 40) and b [30, 60) overlap by 10, so
  // they cover 50; a has a child c [15, 25).
  std::vector<grnn::obs::SpanRecord> spans = {
      Span(-1, "query", 0, 100), Span(0, "a", 10, 30), Span(1, "c", 15, 10),
      Span(0, "b", 30, 30)};
  Check(Near(perfbench::SelfNanos(spans, 0), 50),
        "root self time subtracts the union of its children");
  Check(Near(perfbench::SelfNanos(spans, 1), 20), "a minus its child c");
  Check(Near(perfbench::SelfNanos(spans, 2), 10), "leaf self = duration");
  Check(Near(perfbench::SelfNanos(spans, 3), 30), "b has no children");

  // A child running past its parent's end only covers the overlap.
  std::vector<grnn::obs::SpanRecord> spill = {Span(-1, "query", 0, 50),
                                              Span(0, "x", 40, 30)};
  Check(Near(perfbench::SelfNanos(spill, 0), 40), "clipped child cover");

  perfbench::SpanTable table;
  spans[1].notes.push_back({"page.pins", 3});
  spans[3].notes.push_back({"page.pins", 2});
  table.Add(spans);
  table.Add(spans);
  Check(Near(table.SelfNanos("query"), 100), "table sums self time");
  Check(Near(table.SelfNanos("c"), 20), "table per name");
  Check(table.span_counts().at("a") == 2, "table counts spans");
  Check(table.NoteTotal("page.pins") == 10, "table sums notes");
  perfbench::SpanTable merged;
  merged.Merge(table);
  Check(Near(merged.SelfNanos("b"), 60), "merge keeps self time");
}

}  // namespace

int main() {
  TestPercentiles();
  TestSelfTime();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_unit: all checks passed\n");
  return 0;
}
