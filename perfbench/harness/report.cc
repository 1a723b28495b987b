#include "report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"query_p50_us", "us"},
      {"query_p99_us", "us"},
      {"query_qps", "1/s"},
      {"query_cpu_us", "us"},
      {"peak_rss_mb", "MB"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      // Workload-specific user-facing numbers (0 where the workload has
      // no such operation).
      {"update_p50_us", "us"},
      {"update_p99_us", "us"},
      {"update_ops_s", "1/s"},
      {"error_frac", "frac"},
      {"recovery_s", "s"},
      {"store_mb", "MB"},
      // client: the benchmark's own load generator
      {"client.query_samples", "count"},
      {"client.update_samples", "count"},
      // serve
      {"serve.queue_wait_p50_us", "us"},
      {"serve.queue_wait_p99_us", "us"},
      {"serve.batch_size_mean", "count"},
      {"serve.shed_frac", "frac"},
      {"serve.expired_frac", "frac"},
      {"serve.epoch.pin_self_us", "us"},
      {"serve.epoch.limbo_max", "count"},
      {"serve.epoch.reclaim_lag", "count"},
      // core
      {"core.dispatch_self_us", "us"},
      {"core.algo.E.p50_us", "us"},
      {"core.algo.EM.p50_us", "us"},
      {"core.algo.L.p50_us", "us"},
      {"core.algo.LEP.p50_us", "us"},
      {"core.algo.H.p50_us", "us"},
      {"core.expand_self_us.eager", "us"},
      {"core.expand_self_us.eagerm", "us"},
      {"core.expand_self_us.lazy", "us"},
      {"core.expand_self_us.lazyep", "us"},
      {"core.nodes_expanded_per_q", "count"},
      {"core.heap_pushes_per_q", "count"},
      {"core.verify_calls_per_q", "count"},
      {"core.range_nn_calls_per_q", "count"},
      {"core.knn_list_reads_per_q", "count"},
      {"core.verify_yield", "ratio"},
      {"core.update_apply_p50_us", "us"},
      {"core.maint.lists_written_per_upd", "count"},
      {"core.maint.nodes_touched_per_upd", "count"},
      {"core.materialize_s", "s"},
      {"core.engine_create_s", "s"},
      {"core.workspace_grows", "count"},
      {"core.hub_fallbacks", "count"},
      // index
      {"index.hub.sweep_self_us", "us"},
      {"index.hub.verify_self_us", "us"},
      {"index.label_entries_per_q", "count"},
      {"index.label.scan_self_us", "us"},
      {"index.label_build_s", "s"},
      {"index.avg_label_size", "count"},
      {"index.label_bytes_per_entry", "B"},
      // storage
      {"storage.pool.hit_ratio", "ratio"},
      {"storage.pool.misses_per_q", "count"},
      {"storage.pool.evictions_per_q", "count"},
      {"storage.page.miss_self_us", "us"},
      {"storage.page.pins_per_q", "count"},
      {"storage.wal.flushes_per_upd", "count"},
      {"storage.wal.bytes_per_upd", "B"},
      {"storage.wal.checkpoints", "count"},
      {"storage.write_amp", "ratio"},
      {"storage.recovery.records", "count"},
      {"storage.recovery.pages_written", "count"},
      {"storage.recovery.records_per_s", "1/s"},
      {"storage.file_build_s", "s"},
      {"storage.pool.pinned_end", "count"},
      // graph
      {"graph.dijkstra.expand_self_us", "us"},
      {"graph.nodes_scanned_per_q", "count"},
      // gen
      {"gen.generate_s", "s"},
      // obs
      {"obs.trace_overhead_pct", "%"},
      {"obs.span_overflow", "count"},
  };
  return kDefs;
}

namespace {

bool Known(const std::string& name) {
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& d : *defs) {
      if (name == d.name) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

void Report::Set(const std::string& name, double value) {
  if (!Known(name)) {
    std::fprintf(stderr, "perfbench: unknown metric '%s'\n", name.c_str());
    std::abort();
  }
  values_[name] = value;
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::Fail(const std::string& problem) {
  problems_.push_back(problem);
}

void Report::Print(const std::vector<MetricDef>& defs, bool zero_fill) {
  for (const MetricDef& d : defs) {
    auto it = values_.find(d.name);
    if (it == values_.end() && !zero_fill) {
      Fail(std::string("metric not measured: ") + d.name);
    } else if (it != values_.end() && !std::isfinite(it->second)) {
      Fail(std::string("metric not finite: ") + d.name);
    }
  }
  std::printf("\n%-36s %16s  %s\n", "metric", "value", "unit");
  for (const MetricDef& d : defs) {
    std::printf("%-36s %16.6g  %s\n", d.name, Get(d.name), d.unit);
  }
  std::printf("\nattempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const std::string& p : problems_) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < defs.size(); ++i) {
    const double v = Get(defs[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, std::isfinite(v) ? v : 0.0,
                defs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
