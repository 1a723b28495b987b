#include "workload.h"

#include <algorithm>
#include <thread>

#include "common/string_util.h"
#include "core/query.h"
#include "graph/network_view.h"
#include "storage/partitioner.h"

namespace perfbench {

using grnn::core::Algorithm;
using grnn::core::EngineStats;
using grnn::core::QuerySpec;
using grnn::core::RknnResult;

WindowPlan PlanWindows(const RunConfig& cfg) {
  WindowPlan plan;
  plan.count = cfg.tiny ? 2 : 6;
  plan.seconds_each = cfg.seconds / plan.count;
  plan.trace = cfg.trace;
  plan.min_samples = cfg.tiny ? 0 : SamplesNeeded(99, 10);
  return plan;
}

void SetupTimer::BeginRep() {
  trace_.Begin();
  root_ = trace_.Open("setup");
}

void SetupTimer::EndRep() {
  trace_.Close(root_);
  if (!warm_) {
    warm_ = true;
    return;
  }
  std::map<std::string, double> rep;
  for (const grnn::obs::SpanRecord& span : trace_.spans()) {
    rep[span.name] += static_cast<double>(span.duration_nanos) * 1e-9;
  }
  for (const auto& [name, s] : rep) {
    seconds_[name].push_back(s);
  }
  reps_++;
  half_s_ += rep["setup"];
}

void SetupTimer::Report(perfbench::Report* out) const {
  auto median = [this](const char* name) {
    auto it = seconds_.find(name);
    return it == seconds_.end() ? 0.0 : Median(it->second);
  };
  const std::vector<double>& all = seconds_.at("setup");
  std::printf("setup: %zu timed builds after one warm-up, median %.4f s "
              "(min %.4f, max %.4f)\n",
              all.size(), median("setup"),
              *std::min_element(all.begin(), all.end()),
              *std::max_element(all.begin(), all.end()));
  out->Set("setup_s", median("setup"));
  out->Set("gen.generate_s", median("gen.generate"));
  out->Set("core.materialize_s", median("core.materialize"));
  out->Set("index.label_build_s", median("index.label_build"));
  out->Set("storage.file_build_s", median("storage.file_build"));
  out->Set("core.engine_create_s", median("core.engine_create"));
}

int Timeline::WindowAt(Clock::time_point t) const {
  if (t < t0) {
    return -1;
  }
  const int w = static_cast<int>(
      std::chrono::duration<double>(t - t0).count() / plan.seconds_each);
  return w < plan.count ? w : -1;
}

Clock::time_point Timeline::end() const {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(plan.seconds_each *
                                                plan.count));
}

Timeline WarmupTimeline(double seconds) {
  Timeline t;
  t.plan.count = 1;
  t.plan.seconds_each = seconds;
  t.t0 = Clock::now();
  return t;
}

void QueryWindow::Merge(const QueryWindow& other) {
  latency_us.Merge(other.latency_us);
  attempted += other.attempted;
  failed += other.failed;
  results += other.results;
  cpu_s += other.cpu_s;
  spans.Merge(other.spans);
  for (const auto& [algo, s] : other.root_us_by_algo) {
    root_us_by_algo[algo].Merge(s);
  }
  traced += other.traced;
  dropped_spans += other.dropped_spans;
  max_spans = std::max(max_spans, other.max_spans);
}

std::vector<QueryWindow> RunClosedLoop(
    grnn::core::RknnEngine& engine,
    std::vector<std::vector<QuerySpec>>& specs, const Timeline& timeline,
    std::string* first_error, Clock::duration think) {
  const size_t n = specs.size();
  std::vector<std::vector<QueryWindow>> per_thread(
      n, std::vector<QueryWindow>(timeline.plan.count));
  std::vector<std::string> errors(n);
  std::vector<std::thread> team;
  for (size_t t = 0; t < n; ++t) {
    team.emplace_back([&, t] {
      grnn::obs::TraceContext trace;
      std::vector<QuerySpec>& mine = specs[t];
      for (size_t i = 0;; ++i) {
        QuerySpec& spec = mine[i % mine.size()];
        const Clock::time_point start = Clock::now();
        if (start >= timeline.end()) {
          return;
        }
        const int w = timeline.WindowAt(start);
        const bool traced = w >= 0 && timeline.plan.Traced(w);
        spec.trace = traced ? &trace : nullptr;
        const double cpu0 = ThreadCpuSeconds();
        auto r = engine.Run(spec);
        const Clock::time_point end = Clock::now();
        const double cpu = ThreadCpuSeconds() - cpu0;
        spec.trace = nullptr;
        while (Clock::now() < end + think) {
        }
        if (w < 0) {
          continue;  // warm-up
        }
        QueryWindow& win = per_thread[t][w];
        win.attempted++;
        if (!r.ok()) {
          win.failed++;
          win.latency_us.AddFailure();
          if (errors[t].empty()) {
            errors[t] = Describe(spec) + ": " + r.status().ToString();
          }
          continue;
        }
        win.results += r->results.size();
        win.latency_us.Add(MicrosBetween(start, end));
        win.cpu_s += cpu;
        if (traced) {
          double root_us = 0;
          win.dropped_spans += FoldTrace(trace, &win.spans, &root_us);
          win.root_us_by_algo[AlgoLabel(spec.algorithm)].Add(root_us);
          win.max_spans = std::max(win.max_spans, trace.spans().size());
          win.traced++;
        }
      }
    });
  }
  for (std::thread& th : team) {
    th.join();
  }
  std::vector<QueryWindow> windows(timeline.plan.count);
  for (size_t t = 0; t < n; ++t) {
    for (int w = 0; w < timeline.plan.count; ++w) {
      windows[w].Merge(per_thread[t][w]);
    }
    if (first_error->empty()) {
      *first_error = errors[t];
    }
  }
  return windows;
}

void ReportQueryLatency(const Samples& latency_us, int windows,
                        const WindowPlan& plan, Report* out) {
  const size_t samples = latency_us.count();
  std::printf("samples: %zu queries in %d untraced windows; p99 needs %zu "
              "for 10 beyond it\n",
              samples, windows, SamplesNeeded(99, 10));
  if (samples < plan.min_samples) {
    out->Fail("too few query samples for p99");
  }
  out->Set("query_p50_us", latency_us.Percentile(50));
  out->Set("query_p99_us", latency_us.Percentile(99));
  out->Set("query_qps",
           static_cast<double>(samples) / (plan.seconds_each * windows));
  out->Set("client.query_samples", static_cast<double>(samples));
}

void ReportQueryWindows(const std::vector<QueryWindow>& windows,
                        const WindowPlan& plan, Report* out) {
  QueryWindow untraced;
  QueryWindow traced;
  int untraced_windows = 0;
  for (int w = 0; w < plan.count; ++w) {
    const QueryWindow& win = windows[w];
    out->attempted += win.attempted;
    out->failed += win.failed;
    if (plan.Traced(w)) {
      traced.Merge(win);
    } else {
      untraced.Merge(win);
      untraced_windows++;
    }
  }
  ReportQueryLatency(untraced.latency_us, untraced_windows, plan, out);
  const size_t samples = untraced.latency_us.count();
  out->Set("query_cpu_us", samples == 0 ? 0.0
                                        : untraced.cpu_s * 1e6 /
                                              static_cast<double>(samples));
  if (!plan.trace) {
    return;
  }
  ReportSelfTimes(traced.spans, traced.traced, out);
  std::printf("  at most %zu spans in one traced query (arena holds %zu)\n",
              traced.max_spans, grnn::obs::TraceContext::kMaxSpans);
  for (const auto& [algo, s] : traced.root_us_by_algo) {
    out->Set("core.algo." + algo + ".p50_us", s.Percentile(50));
  }
  out->Set("storage.page.pins_per_q",
           traced.traced == 0
               ? 0.0
               : static_cast<double>(traced.spans.NoteTotal("page.pins")) /
                     static_cast<double>(traced.traced));
  ReportTraceHealth(out->Get("query_p50_us"),
                    traced.latency_us.Percentile(50), traced.dropped_spans,
                    out);
}

void ReportTraceHealth(double untraced_p50, double traced_p50,
                       uint64_t dropped_spans, Report* out) {
  out->Set("obs.span_overflow", static_cast<double>(dropped_spans));
  out->Set("obs.trace_overhead_pct",
           untraced_p50 > 0
               ? (traced_p50 - untraced_p50) / untraced_p50 * 100.0
               : 0.0);
  if (dropped_spans != 0) {
    out->Fail("trace arena overflowed: " + std::to_string(dropped_spans) +
              " spans dropped");
  }
}

void ReportVerifyYield(const EngineStats& delta, uint64_t results,
                       Report* out) {
  out->Set("core.verify_yield",
           delta.search.verify_calls == 0
               ? 0.0
               : static_cast<double>(results) /
                     static_cast<double>(delta.search.verify_calls));
}

grnn::Result<grnn::storage::KnnFile> MaterializeKnnFile(
    const grnn::graph::Graph& g, const grnn::core::NodePointSet& points,
    uint32_t k, grnn::storage::DiskManager* disk,
    grnn::obs::TraceContext* setup) {
  grnn::obs::ScopedSpan span(setup, "core.materialize");
  const std::vector<grnn::NodeId> order =
      grnn::storage::ComputeNodeOrder(g, grnn::storage::NodeOrder::kBfs);
  std::vector<grnn::NodeId> slot_of(g.num_nodes());
  for (grnn::NodeId i = 0; i < g.num_nodes(); ++i) {
    slot_of[order[i]] = i;
  }
  GRNN_ASSIGN_OR_RETURN(
      grnn::storage::KnnFile file,
      grnn::storage::KnnFile::Create(disk, g.num_nodes(), k, &slot_of));
  grnn::storage::BufferPool build_pool(disk, 256);
  grnn::core::FileKnnStore store(&file, &build_pool);
  grnn::graph::GraphView view(&g);
  GRNN_RETURN_NOT_OK(grnn::core::BuildAllNn(view, points, &store));
  GRNN_RETURN_NOT_OK(build_pool.FlushAll());
  return file;
}

std::vector<WriteOp> MakeWriteOps(const grnn::core::NodePointSet& points,
                                  const grnn::core::NodePointSet* sites,
                                  double site_share, grnn::Rng& rng,
                                  size_t count) {
  using grnn::core::UpdateSpec;
  const int num_sets = sites != nullptr ? 2 : 1;
  std::vector<grnn::core::NodePointSet> mirror = {points};
  if (sites != nullptr) {
    mirror.push_back(*sites);
  }
  std::vector<std::vector<grnn::PointId>> live;
  std::vector<size_t> target;
  for (const auto& set : mirror) {
    live.push_back(set.LivePoints());
    target.push_back(live.back().size());
  }
  std::vector<WriteOp> ops;
  ops.reserve(count);
  while (ops.size() < count) {
    const int set = num_sets == 2 && rng.Bernoulli(site_share) ? 1 : 0;
    const bool grow = live[set].size() < target[set];
    WriteOp op;
    if (live[set].empty() || rng.Bernoulli(grow ? 0.6 : 0.4)) {
      grnn::NodeId node;
      do {
        node = static_cast<grnn::NodeId>(
            rng.UniformInt(mirror[set].num_nodes()));
      } while (mirror[set].Contains(node));
      op.expect = mirror[set].AddPoint(node).ValueOrDie();
      live[set].push_back(op.expect);
      op.spec = set == 0 ? UpdateSpec::InsertPoint(node)
                         : UpdateSpec::InsertSite(node);
    } else {
      const size_t i = rng.UniformInt(live[set].size());
      const grnn::PointId victim = live[set][i];
      live[set][i] = live[set].back();
      live[set].pop_back();
      (void)mirror[set].RemovePoint(victim);
      op.spec = set == 0 ? UpdateSpec::DeletePoint(victim)
                         : UpdateSpec::DeleteSite(victim);
    }
    ops.push_back(op);
  }
  return ops;
}

std::string CheckWrite(
    const WriteOp& op,
    const grnn::Result<grnn::core::RknnEngine::UpdateResult>& r) {
  if (!r.ok()) {
    return r.status().ToString();
  }
  if (op.expect != grnn::kInvalidPoint && r->point != op.expect) {
    return "insert got an unexpected point id";
  }
  return "";
}

void Must(const grnn::Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 s.ToString().c_str());
    std::exit(1);
  }
}

EngineStats StatsDelta(const EngineStats& after, const EngineStats& before) {
  EngineStats d;
  d.queries = after.queries - before.queries;
  const grnn::core::SearchStats& a = after.search;
  const grnn::core::SearchStats& b = before.search;
  d.search.nodes_expanded = a.nodes_expanded - b.nodes_expanded;
  d.search.nodes_scanned = a.nodes_scanned - b.nodes_scanned;
  d.search.nodes_pruned = a.nodes_pruned - b.nodes_pruned;
  d.search.range_nn_calls = a.range_nn_calls - b.range_nn_calls;
  d.search.verify_calls = a.verify_calls - b.verify_calls;
  d.search.knn_list_reads = a.knn_list_reads - b.knn_list_reads;
  d.search.heap_pushes = a.heap_pushes - b.heap_pushes;
  d.search.shortcut_accepts = a.shortcut_accepts - b.shortcut_accepts;
  d.search.label_entries = a.label_entries - b.label_entries;
  d.search.hub_fallbacks = a.hub_fallbacks - b.hub_fallbacks;
  d.io = after.io - before.io;
  d.workspace_grows = after.workspace_grows - before.workspace_grows;
  d.updates = after.updates - before.updates;
  d.update = after.update - before.update;
  return d;
}

void ReportSearchCounters(const EngineStats& delta, Report* out) {
  const double q =
      delta.queries == 0 ? 1.0 : static_cast<double>(delta.queries);
  const grnn::core::SearchStats& s = delta.search;
  out->Set("core.nodes_expanded_per_q",
           static_cast<double>(s.nodes_expanded) / q);
  out->Set("core.heap_pushes_per_q", static_cast<double>(s.heap_pushes) / q);
  out->Set("core.verify_calls_per_q",
           static_cast<double>(s.verify_calls) / q);
  out->Set("core.range_nn_calls_per_q",
           static_cast<double>(s.range_nn_calls) / q);
  out->Set("core.knn_list_reads_per_q",
           static_cast<double>(s.knn_list_reads) / q);
  out->Set("index.label_entries_per_q",
           static_cast<double>(s.label_entries) / q);
  out->Set("graph.nodes_scanned_per_q",
           static_cast<double>(s.nodes_scanned) / q);
  out->Set("core.workspace_grows", static_cast<double>(delta.workspace_grows));
  out->Set("core.hub_fallbacks", static_cast<double>(s.hub_fallbacks));
  if (s.hub_fallbacks != 0) {
    out->Fail(grnn::StrPrintf("%llu hub-label queries fell back to expansion",
                              static_cast<unsigned long long>(
                                  s.hub_fallbacks)));
  }
  if (delta.updates > 0) {
    const double u = static_cast<double>(delta.updates);
    out->Set("core.maint.lists_written_per_upd",
             static_cast<double>(delta.update.lists_written) / u);
    out->Set("core.maint.nodes_touched_per_upd",
             static_cast<double>(delta.update.nodes_touched) / u);
  }
}

void ReportSelfTimes(const SpanTable& spans, uint64_t traced_queries,
                     Report* out) {
  const double per_q =
      traced_queries == 0 ? 0.0 : 1e-3 / static_cast<double>(traced_queries);
  auto self_us = [&](const char* span) {
    return spans.SelfNanos(span) * per_q;
  };
  out->Set("core.dispatch_self_us", self_us("query"));
  out->Set("serve.epoch.pin_self_us", self_us("epoch.pin"));
  out->Set("core.expand_self_us.eager", self_us("eager.expand"));
  out->Set("core.expand_self_us.eagerm", self_us("eagerm.expand"));
  out->Set("core.expand_self_us.lazy", self_us("lazy.expand"));
  out->Set("core.expand_self_us.lazyep", self_us("lazyep.expand"));
  out->Set("index.hub.sweep_self_us", self_us("hub.sweep"));
  out->Set("index.hub.verify_self_us", self_us("hub.verify"));
  out->Set("index.label.scan_self_us", self_us("label.scan"));
  out->Set("storage.page.miss_self_us", self_us("page.miss"));
  out->Set("graph.dijkstra.expand_self_us", self_us("dijkstra.expand"));
  std::printf("\nself time per traced query (%llu traced queries):\n",
              static_cast<unsigned long long>(traced_queries));
  for (const auto& [name, nanos] : spans.self_nanos()) {
    std::printf("  %-20s %10.2f us  (%llu spans)\n", name.c_str(),
                nanos * per_q,
                static_cast<unsigned long long>(
                    spans.span_counts().at(name)));
  }
}

uint64_t FoldTrace(const grnn::obs::TraceContext& ctx, SpanTable* table,
                   double* root_us) {
  const auto& spans = ctx.spans();
  *root_us = !spans.empty() && std::string_view(spans[0].name) == "query"
                 ? static_cast<double>(spans[0].duration_nanos) * 1e-3
                 : 0.0;
  table->Add(spans);
  return ctx.dropped_spans();
}

std::string Describe(const QuerySpec& spec) {
  return grnn::StrPrintf(
      "%s/%s k=%d at node %u (%zu nodes)",
      grnn::core::QueryKindName(spec.kind),
      grnn::core::AlgorithmName(spec.algorithm), spec.k,
      spec.query_nodes.empty() ? grnn::kInvalidNode : spec.query_nodes[0],
      spec.query_nodes.size());
}

bool SameAnswer(const RknnResult& got, const RknnResult& want) {
  if (got.results.size() != want.results.size()) {
    return false;
  }
  for (size_t i = 0; i < got.results.size(); ++i) {
    const auto& a = got.results[i];
    const auto& b = want.results[i];
    if (a.point != b.point || a.node != b.node) {
      return false;
    }
  }
  return true;
}

const char* AlgoLabel(Algorithm a) {
  switch (a) {
    case Algorithm::kEager:
      return "E";
    case Algorithm::kEagerM:
      return "EM";
    case Algorithm::kLazy:
      return "L";
    case Algorithm::kLazyEp:
      return "LEP";
    case Algorithm::kHubLabel:
      return "H";
    case Algorithm::kBruteForce:
      return "BF";
  }
  return "?";
}

}  // namespace perfbench
