// Engine-level telemetry integration: one registry Snapshot() exposes
// engine, buffer-pool, epoch and scheduler counters together; a forced
// slow query retains a well-formed span tree with hub-label sweep/verify
// and page-access children; explicit QuerySpec::trace arms tracing
// without any sampling policy and closes the tree on error paths; and
// the stat structs behind EngineStats accumulate every field (guarded by
// sizeof asserts so new counters force this test to learn about them).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "index/hub_label.h"
#include "index/label_file.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/scheduler.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "test_fixtures.h"

namespace grnn::core {
namespace {

using testfix::PaperExample;

// The paper's running example served through stored labels: hub-label
// queries sweep LabelFile pages through the buffer pool, so one query
// exercises engine + index + storage in a handful of microseconds.
struct StoredWorld {
  testfix::Fixture f;
  std::optional<graph::GraphView> view;
  std::optional<index::HubLabelIndex> labels;
  std::unique_ptr<storage::MemoryDiskManager> disk;
  std::unique_ptr<index::LabelFile> file;
  std::unique_ptr<storage::BufferPool> pool;
  std::optional<index::StoredLabelIndex> stored;
};

std::unique_ptr<StoredWorld> MakeStoredWorld() {
  auto w = std::make_unique<StoredWorld>();
  w->f = PaperExample();
  w->view.emplace(&w->f.g);
  w->labels.emplace(index::HubLabelBuilder::Build(*w->view).ValueOrDie());
  w->disk = std::make_unique<storage::MemoryDiskManager>(512);
  auto built = index::LabelFile::Build(*w->labels, w->disk.get()).ValueOrDie();
  w->file = std::make_unique<index::LabelFile>(
      index::LabelFile::Open(w->disk.get(), built.first_page()).ValueOrDie());
  w->pool = std::make_unique<storage::BufferPool>(w->disk.get(), 64);
  w->stored.emplace(w->file.get(), w->pool.get());
  return w;
}

bool HasCounter(const obs::MetricsSnapshot& snap, const std::string& name) {
  return std::find_if(snap.counters.begin(), snap.counters.end(),
                      [&](const auto& kv) { return kv.first == name; }) !=
         snap.counters.end();
}

bool HasGauge(const obs::MetricsSnapshot& snap, const std::string& name) {
  return std::find_if(snap.gauges.begin(), snap.gauges.end(),
                      [&](const auto& kv) { return kv.first == name; }) !=
         snap.gauges.end();
}

// The tentpole's acceptance shape: engine counters, per-shard pool I/O,
// epoch gauges and scheduler stats all land in ONE Snapshot() of ONE
// registry, and consecutive snapshots are monotone.
TEST(TelemetryEngineTest, OneSnapshotSeesEveryLayer) {
  auto w = MakeStoredWorld();
  obs::MetricsRegistry registry;

  EngineSources sources;
  sources.graph = &*w->view;
  sources.points = &w->f.points;
  sources.hub_labels = &*w->stored;
  sources.pool = w->pool.get();
  sources.metrics = &registry;
  sources.trace.sample_every = 1;  // every query traced
  RknnEngine engine = RknnEngine::Create(sources).ValueOrDie();

  obs::MetricsSnapshot snap1;
  obs::MetricsSnapshot snap2;
  {
    serve::SchedulerOptions sopts;
    sopts.metrics = &registry;
    serve::Scheduler sched(&engine, sopts);
    std::vector<serve::Scheduler::Ticket> tickets;
    for (int i = 0; i < 8; ++i) {
      tickets.push_back(sched.Submit(QuerySpec::Monochromatic(
          Algorithm::kHubLabel, w->f.query_node, 1)));
    }
    for (const auto& t : tickets) {
      ASSERT_TRUE(t.Wait().result.ok());
    }
    snap1 = registry.Snapshot();
    auto direct = engine.Run(
        QuerySpec::Monochromatic(Algorithm::kEager, w->f.query_node, 1));
    ASSERT_TRUE(direct.ok());
    // Scheduler counters unregister at Shutdown: snapshot while live.
    snap2 = registry.Snapshot();
  }

  // Engine layer: query + search counters moved.
  EXPECT_GE(snap2.CounterValue("engine.queries"), 9u);
  EXPECT_GT(snap2.CounterValue("engine.search.label_entries"), 0u);
  EXPECT_GT(snap2.CounterValue("engine.trace.sampled"), 0u);
  // Storage layer: the label sweep went through the pool, per-shard
  // breakdown included.
  EXPECT_GT(snap2.CounterValue("pool.logical_reads"), 0u);
  EXPECT_TRUE(HasCounter(snap2, "pool.shard0.logical_reads"));
  EXPECT_TRUE(HasGauge(snap2, "pool.pinned_pages"));
  // Epoch layer: gauges exported even in lock mode (all-zero there).
  EXPECT_TRUE(HasCounter(snap2, "engine.epoch.pins"));
  EXPECT_TRUE(HasGauge(snap2, "engine.epoch.limbo"));
  // Serve layer: scheduler counters + latency histogram.
  EXPECT_GE(snap2.CounterValue("scheduler.submitted"), 8u);
  EXPECT_GE(snap2.CounterValue("scheduler.completed"), 8u);
  const obs::HistogramSummary* lat =
      snap2.FindHistogram("scheduler.latency_micros");
  ASSERT_NE(lat, nullptr);
  EXPECT_GE(lat->count, 8u);

  // Counters never move backwards between snapshots, and the direct
  // Run() between them is visible.
  for (const auto& [name, value] : snap1.counters) {
    EXPECT_GE(snap2.CounterValue(name), value) << name;
  }
  EXPECT_GT(snap2.CounterValue("engine.queries"),
            snap1.CounterValue("engine.queries"));

  // Engine teardown unregisters its collector: no dangling reads.
  { RknnEngine moved = std::move(engine); }
  obs::MetricsSnapshot after = registry.Snapshot();
  EXPECT_FALSE(HasCounter(after, "engine.queries"));
}

// Walks up the parent links; true when `idx` descends from the root.
bool ReachesRoot(const std::vector<obs::SpanRecord>& spans, int32_t idx) {
  int hops = 0;
  while (idx > 0 && hops++ <= static_cast<int>(spans.size())) {
    idx = spans[static_cast<size_t>(idx)].parent;
  }
  return idx == 0;
}

TEST(TelemetryEngineTest, SlowQuerySpanTreeHasHubAndPageChildren) {
  auto w = MakeStoredWorld();

  EngineSources sources;
  sources.graph = &*w->view;
  sources.points = &w->f.points;
  sources.hub_labels = &*w->stored;
  sources.pool = w->pool.get();
  sources.trace.sample_every = 1;
  sources.trace.slow_query_micros = 1;  // everything is "slow"
  RknnEngine engine = RknnEngine::Create(sources).ValueOrDie();

  // A burst, so at least one query crosses the 1us threshold even on
  // warm caches.
  for (int i = 0; i < 16; ++i) {
    auto r = engine.Run(
        QuerySpec::Monochromatic(Algorithm::kHubLabel, w->f.query_node, 1));
    ASSERT_TRUE(r.ok());
  }
  std::vector<obs::SlowQuery> slow = engine.DrainSlowQueries();
  ASSERT_FALSE(slow.empty());
  const obs::SlowQuery& q = slow.back();
  EXPECT_TRUE(q.ok);
  EXPECT_GE(q.total_micros, 1u);
  EXPECT_EQ(q.dropped_spans, 0u);

  // Well-formed tree: one root named "query", every other span's parent
  // precedes it (spans are recorded in open order) and chains to root.
  const auto& spans = q.spans;
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.front().parent, -1);
  EXPECT_STREQ(spans.front().name, "query");
  bool saw_sweep = false;
  bool saw_verify = false;
  bool saw_label_scan = false;
  bool saw_page_pins = false;
  for (size_t i = 1; i < spans.size(); ++i) {
    ASSERT_GE(spans[i].parent, 0);
    ASSERT_LT(spans[i].parent, static_cast<int32_t>(i));
    EXPECT_TRUE(ReachesRoot(spans, static_cast<int32_t>(i)));
  }
  for (const obs::SpanRecord& s : spans) {
    const std::string name = s.name;
    saw_sweep = saw_sweep || name == "hub.sweep";
    saw_verify = saw_verify || name == "hub.verify";
    saw_label_scan = saw_label_scan || name == "label.scan";
    for (const auto& [key, value] : s.notes) {
      if (std::string(key) == "page.pins" && value > 0) {
        saw_page_pins = true;
      }
    }
  }
  // The hub sweep and per-candidate verification are child spans; the
  // stored-label scans underneath them carry buffer-pool pin notes.
  EXPECT_TRUE(saw_sweep);
  EXPECT_TRUE(saw_verify);  // RNN(q) = {p1, p2}: candidates verified
  EXPECT_TRUE(saw_label_scan);
  EXPECT_TRUE(saw_page_pins);

  // Drain is destructive.
  EXPECT_TRUE(engine.DrainSlowQueries().empty());
}

// QuerySpec::trace arms tracing for that one query even when the
// engine's sampling policy is off (the default) and there is no
// registry at all.
TEST(TelemetryEngineTest, ExplicitTraceFieldArmsWithoutSampling) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  EngineSources sources;
  sources.graph = &view;
  sources.points = &f.points;
  RknnEngine engine = RknnEngine::Create(sources).ValueOrDie();

  obs::TraceContext ctx;
  QuerySpec spec = QuerySpec::Monochromatic(Algorithm::kEager, f.query_node, 1);
  spec.trace = &ctx;
  ASSERT_TRUE(engine.Run(spec).ok());
  EXPECT_EQ(obs::CurrentTrace(), nullptr);  // arm restored after Run
  ASSERT_TRUE(ctx.AllClosed());
  ASSERT_FALSE(ctx.spans().empty());
  EXPECT_STREQ(ctx.spans().front().name, "query");
  bool saw_eager = false;
  for (const obs::SpanRecord& s : ctx.spans()) {
    saw_eager = saw_eager || std::string(s.name) == "eager.expand";
  }
  EXPECT_TRUE(saw_eager);

  // An untraced query must not touch the caller's context.
  const size_t before = ctx.spans().size();
  spec.trace = nullptr;
  ASSERT_TRUE(engine.Run(spec).ok());
  EXPECT_EQ(ctx.spans().size(), before);
}

// A continuous query sweeps one merged virtual label: its hub.sweep
// span notes how many entries that label holds (query_hubs — one per
// distinct hub of the route's labels) beside the run entries it read.
TEST(TelemetryEngineTest, ContinuousSweepNotesQueryHubs) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  auto labels = index::HubLabelBuilder::Build(view).ValueOrDie();
  EngineSources sources;
  sources.graph = &view;
  sources.points = &f.points;
  sources.hub_labels = &labels;
  RknnEngine engine = RknnEngine::Create(sources).ValueOrDie();

  const std::vector<NodeId> route = {3, 2, 3, 0};
  std::vector<NodeId> hubs;
  for (NodeId n : route) {
    for (const index::HubEntry& e : labels.Label(n)) {
      hubs.push_back(e.hub);
    }
  }
  std::sort(hubs.begin(), hubs.end());
  hubs.erase(std::unique(hubs.begin(), hubs.end()), hubs.end());

  obs::TraceContext ctx;
  QuerySpec spec = QuerySpec::Continuous(Algorithm::kHubLabel, route, 1);
  spec.trace = &ctx;
  auto r = engine.Run(spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(ctx.AllClosed());
  const obs::SpanRecord* sweep = nullptr;
  for (const obs::SpanRecord& s : ctx.spans()) {
    if (std::string(s.name) == "hub.sweep") {
      sweep = &s;
    }
  }
  ASSERT_NE(sweep, nullptr);
  uint64_t query_hubs = 0;
  uint64_t label_entries = 0;
  for (const auto& [key, value] : sweep->notes) {
    if (std::string(key) == "query_hubs") {
      query_hubs = value;
    } else if (std::string(key) == "label_entries") {
      label_entries = value;
    }
  }
  EXPECT_EQ(query_hubs, hubs.size());
  EXPECT_GT(label_entries, 0u);
}

// Failing queries still close every span they opened: the root span's
// ScopedSpan unwinds with the error, leaving a finished tree the
// caller can inspect.
TEST(TelemetryEngineTest, ErrorPathClosesAllSpans) {
  auto f = PaperExample();
  graph::GraphView view(&f.g);
  EngineSources sources;
  sources.graph = &view;
  sources.points = &f.points;
  RknnEngine engine = RknnEngine::Create(sources).ValueOrDie();

  obs::TraceContext ctx;
  // Out of range: validated inside the algorithm, AFTER Dispatch armed
  // the trace and opened the root span.
  QuerySpec spec = QuerySpec::Monochromatic(
      Algorithm::kEager, f.g.num_nodes() + 7, 1);
  spec.trace = &ctx;
  EXPECT_FALSE(engine.Run(spec).ok());
  EXPECT_EQ(obs::CurrentTrace(), nullptr);
  EXPECT_TRUE(ctx.AllClosed());
  ASSERT_FALSE(ctx.spans().empty());
  EXPECT_STREQ(ctx.spans().front().name, "query");
  EXPECT_EQ(ctx.spans().front().parent, -1);
}

// The stat structs the telemetry collector bridges must aggregate every
// field. The sizeof guards fail this file to compile the moment a
// counter is added, forcing the += audits (and the collector) to be
// revisited.
static_assert(sizeof(SearchStats) == 10 * sizeof(uint64_t),
              "SearchStats gained/lost a field: update operator+=, this "
              "test and the engine metrics collector");
static_assert(sizeof(storage::IoStats) == 4 * sizeof(uint64_t),
              "IoStats gained/lost a field: update operator+=/operator-, "
              "this test and the engine metrics collector");
static_assert(sizeof(UpdateStats) == 7 * sizeof(uint64_t),
              "UpdateStats gained/lost a field: update operator+=, this "
              "test and the engine metrics collector");
static_assert(sizeof(EngineStats) ==
                  sizeof(SearchStats) + sizeof(storage::IoStats) +
                      sizeof(UpdateStats) + 3 * sizeof(uint64_t),
              "EngineStats gained/lost a field: update Run/ApplyUpdate's "
              "lifetime accounting and the engine metrics collector");

TEST(EngineStatsTest, AccumulateCoversEveryField) {
  SearchStats search{10, 11, 12, 13, 14, 15, 16, 17, 18, 19};
  search +=
      SearchStats{1000, 1100, 1200, 1300, 1400, 1500, 1600, 1700, 1800, 1900};
  EXPECT_EQ(search.nodes_expanded, 1010u);
  EXPECT_EQ(search.nodes_scanned, 1111u);
  EXPECT_EQ(search.nodes_pruned, 1212u);
  EXPECT_EQ(search.range_nn_calls, 1313u);
  EXPECT_EQ(search.verify_calls, 1414u);
  EXPECT_EQ(search.knn_list_reads, 1515u);
  EXPECT_EQ(search.heap_pushes, 1616u);
  EXPECT_EQ(search.shortcut_accepts, 1717u);
  EXPECT_EQ(search.label_entries, 1818u);
  EXPECT_EQ(search.hub_fallbacks, 1919u);

  storage::IoStats io{20, 21, 22, 23};
  io += storage::IoStats{2000, 2100, 2200, 2300};
  EXPECT_EQ(io.logical_reads, 2020u);
  EXPECT_EQ(io.physical_reads, 2121u);
  EXPECT_EQ(io.physical_writes, 2222u);
  EXPECT_EQ(io.evictions, 2323u);

  UpdateStats update{30, 31, 32, 33, 34, 35, 36};
  update += UpdateStats{3000, 3100, 3200, 3300, 3400, 3500, 3600};
  EXPECT_EQ(update.nodes_touched, 3030u);
  EXPECT_EQ(update.lists_written, 3131u);
  EXPECT_EQ(update.heap_pushes, 3232u);
  EXPECT_EQ(update.border_nodes, 3333u);
  EXPECT_EQ(update.log_records, 3434u);
  EXPECT_EQ(update.log_flushes, 3535u);
  EXPECT_EQ(update.log_bytes, 3636u);
}

TEST(EngineStatsTest, IoStatsDeltaInvertsAccumulate) {
  storage::IoStats base{5, 6, 7, 8};
  storage::IoStats delta{1, 2, 3, 4};
  storage::IoStats total = base;
  total += delta;
  storage::IoStats back = total - base;
  EXPECT_EQ(back.logical_reads, 1u);
  EXPECT_EQ(back.physical_reads, 2u);
  EXPECT_EQ(back.physical_writes, 3u);
  EXPECT_EQ(back.evictions, 4u);
}

}  // namespace
}  // namespace grnn::core
