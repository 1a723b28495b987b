// perfbench: one workload of the RkNN engine benchmark per invocation.
//
//   perfbench --workload hub-serve|stored-expand|durable-mixed
//             --seed N --seconds S --trace 0|1 [--tiny]
//
// Prints a human-readable report and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics for --trace 0, the per-layer metrics for --trace 1.
// Exits non-zero only when the run could not be carried out at all.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "workload.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload hub-serve|stored-expand|"
               "durable-mixed --seed N --seconds S --trace 0|1 [--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--tiny") {
      cfg.tiny = true;
    } else {
      return Usage();
    }
  }
  if (cfg.seconds <= 0) {
    return Usage();
  }

  perfbench::Report report;
  if (workload == "hub-serve") {
    perfbench::RunHubServe(cfg, &report);
  } else if (workload == "stored-expand") {
    perfbench::RunStoredExpand(cfg, &report);
  } else if (workload == "durable-mixed") {
    perfbench::RunDurableMixed(cfg, &report);
  } else {
    return Usage();
  }
  if (cfg.trace) {
    report.Print(perfbench::PerLayerMetrics(), /*zero_fill=*/true);
  } else {
    report.Print(perfbench::EndToEndMetrics(), /*zero_fill=*/false);
  }
  return 0;
}
