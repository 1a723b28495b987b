// The benchmark's metric catalogue and result line.
//
// Every metric the benchmark can print is declared once here with its
// unit, in the order BENCHMARK.json lists it. A run fills values into a
// Report; Print() writes a human-readable table followed by the single
// JSON result line (the last line of stdout).

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (printed by untraced runs). Defined on every
/// workload and never zero.
const std::vector<MetricDef>& EndToEndMetrics();
/// Per-layer metrics (printed by traced runs). A layer a workload never
/// touches reports 0.
const std::vector<MetricDef>& PerLayerMetrics();

class Report {
 public:
  /// Records a metric; `name` must be in one of the catalogues.
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;

  /// Marks the run incorrect (oracle mismatch, guard tripped, ...).
  void Fail(const std::string& problem);
  bool correct() const { return problems_.empty(); }
  const std::vector<std::string>& problems() const { return problems_; }

  /// Operations attempted / failed (shed, expired and errored ops count
  /// as failed).
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Prints the metric table of `defs` (missing per-layer values print
  /// as 0; a missing end-to-end value fails the run), the problems, and
  /// the JSON result line restricted to `defs`.
  void Print(const std::vector<MetricDef>& defs, bool zero_fill);

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> problems_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
