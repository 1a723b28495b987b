// stored-expand: the paper's disk-resident setting. A BRITE scale-free
// network with its v2 GraphFile, KnnFile and LabelFile on one device,
// all behind one sharded BufferPool that holds only a fraction of their
// pages. Two closed-loop clients call RknnEngine::Run read-only with the
// paper's four algorithms in fixed shares plus a minority of hub-label
// queries over the stored labels. No scheduler and no updates are on
// this path.

#include <cstdio>
#include <memory>
#include <optional>

#include "core/brute_force.h"
#include "gen/brite.h"
#include "gen/points.h"
#include "index/hub_label.h"
#include "index/label_file.h"
#include "storage/graph_file.h"
#include "storage/stored_graph.h"
#include "workload.h"

namespace perfbench {

namespace {

using grnn::NodeId;
using grnn::Rng;
using grnn::core::Algorithm;
using grnn::core::QuerySpec;

constexpr int kClients = 2;
/// The world (graph and data points) is a fixed data set; --seed draws
/// the query traffic.
constexpr uint64_t kWorldSeed = 1;
constexpr uint32_t kMaxK = 2;
constexpr double kWarmupSeconds = 1.0;
/// Each client's algorithm sequence cycles through this pattern, so the
/// shares are exact (E 35%, EM 35%, L 10%, LEP 10%, H 10%) whatever the
/// seed. Lazy and lazy-EP visit most of a scale-free network (the
/// paper's Fig 15) and cost about five eager queries each, hence their
/// smaller shares: every window still collects the samples its p99
/// needs.
constexpr Algorithm kMix[] = {
    Algorithm::kEager,  Algorithm::kEagerM,   Algorithm::kLazy,
    Algorithm::kEager,  Algorithm::kEagerM,   Algorithm::kHubLabel,
    Algorithm::kEager,  Algorithm::kEagerM,   Algorithm::kLazyEp,
    Algorithm::kEager,  Algorithm::kEagerM,   Algorithm::kEager,
    Algorithm::kEagerM, Algorithm::kLazy,     Algorithm::kEager,
    Algorithm::kEagerM, Algorithm::kHubLabel, Algorithm::kEager,
    Algorithm::kEagerM, Algorithm::kLazyEp};

struct Sizes {
  NodeId nodes;
  double point_density;
  /// Buffer-pool frames, a fraction of the pages of the three files.
  size_t pool_frames;
  /// Shuffled cycles of the fixed query set in each client's list.
  size_t cycles;
  int oracle_queries;
};

Sizes PickSizes(bool tiny) {
  if (tiny) {
    return {600, 0.05, 32, 2, 5};
  }
  return {4000, 0.03, 192, 8, 10};
}

struct World {
  grnn::graph::Graph g;
  grnn::core::NodePointSet points{0};
  grnn::storage::MemoryDiskManager disk;
  std::optional<grnn::storage::GraphFile> graph_file;
  std::optional<grnn::storage::KnnFile> knn_file;
  std::optional<grnn::index::LabelFile> label_file;
  std::unique_ptr<grnn::storage::BufferPool> pool;
  std::unique_ptr<grnn::storage::StoredGraph> view;
  std::unique_ptr<grnn::core::FileKnnStore> knn;
  std::unique_ptr<grnn::index::StoredLabelIndex> labels;
  std::optional<grnn::core::RknnEngine> engine;
};

/// The serving engine of this workload, configured in one place.
grnn::Result<grnn::core::RknnEngine> MakeEngine(World& w) {
  grnn::core::EngineSources s;
  s.graph = w.view.get();
  s.points = &w.points;
  s.knn = w.knn.get();
  s.hub_labels = w.labels.get();
  s.pool = w.pool.get();
  return grnn::core::RknnEngine::Create(s);
}

std::unique_ptr<World> BuildWorld(const Sizes& z,
                                  SetupTimer& timer) {
  auto w = std::make_unique<World>();
  {
    grnn::obs::ScopedSpan span(timer.trace(), "gen.generate");
    grnn::gen::BriteConfig bc;
    bc.num_nodes = z.nodes;
    bc.seed = kWorldSeed;
    // Real-valued link delays, as the paper's BRITE figures: unit
    // weights would tie every distance.
    bc.unit_weights = false;
    w->g = Must(grnn::gen::GenerateBrite(bc), "BRITE generation");
    Rng rng(kWorldSeed * 7919 + 2);
    w->points = Must(grnn::gen::PlaceNodePoints(w->g.num_nodes(),
                                                z.point_density, rng),
                     "point placement");
  }
  w->knn_file.emplace(Must(
      MaterializeKnnFile(w->g, w->points, kMaxK, &w->disk, timer.trace()),
      "KNN materialization"));
  grnn::index::HubLabelIndex labels;
  {
    grnn::obs::ScopedSpan span(timer.trace(), "index.label_build");
    grnn::graph::GraphView mem(&w->g);
    labels = Must(grnn::index::HubLabelBuilder::Build(mem), "label build");
  }
  {
    grnn::obs::ScopedSpan span(timer.trace(), "storage.file_build");
    w->graph_file.emplace(
        Must(grnn::storage::GraphFile::Build(w->g, &w->disk), "graph file"));
    w->label_file.emplace(
        Must(grnn::index::LabelFile::Build(labels, &w->disk), "label file"));
  }
  // Shards of grnn::storage::kMinFramesPerShardForLease frames each, so
  // single-page scans stay zero-copy.
  w->pool = std::make_unique<grnn::storage::BufferPool>(
      &w->disk, z.pool_frames, grnn::storage::ReplacementPolicy::kLru,
      z.pool_frames / grnn::storage::kMinFramesPerShardForLease);
  w->view = std::make_unique<grnn::storage::StoredGraph>(&*w->graph_file,
                                                         w->pool.get());
  w->knn = std::make_unique<grnn::core::FileKnnStore>(&*w->knn_file,
                                                      w->pool.get());
  w->labels = std::make_unique<grnn::index::StoredLabelIndex>(
      &*w->label_file, w->pool.get());
  {
    grnn::obs::ScopedSpan span(timer.trace(), "core.engine_create");
    w->engine.emplace(Must(MakeEngine(*w), "engine create"));
  }
  return w;
}

/// A monochromatic query at data point `p`, excluded from its own query
/// as in the paper's workloads.
QuerySpec MakeQuery(const World& w, Algorithm a, grnn::PointId p, int k) {
  return QuerySpec::Monochromatic(a, w.points.NodeOf(p), k, p);
}

/// One client's query list. Every client cycles through the same fixed
/// set of queries: each data point in kRounds rounds, with the algorithm
/// and k taken round-robin, so every algorithm meets every kind of point
/// in its exact share. The seed only shuffles the order within each
/// cycle; a run covers several cycles, so its mix does not depend on
/// the seed.
std::vector<QuerySpec> MakeClientSpecs(const World& w, size_t cycles,
                                       Rng& rng) {
  constexpr size_t kRounds = 5;
  const std::vector<grnn::PointId> points = w.points.LivePoints();
  std::vector<QuerySpec> cycle;
  for (size_t r = 0; r < kRounds; ++r) {
    for (size_t i = 0; i < points.size(); ++i) {
      const Algorithm a = kMix[(i + r * 7) % std::size(kMix)];
      // Hub-label queries open one label.scan span per candidate label;
      // k = 1 keeps their span tree well inside the trace arena.
      const int k = a == Algorithm::kHubLabel
                        ? 1
                        : 1 + static_cast<int>((i + r) % kMaxK);
      cycle.push_back(MakeQuery(w, a, points[i], k));
    }
  }
  std::vector<QuerySpec> specs;
  for (size_t c = 0; c < cycles; ++c) {
    rng.Shuffle(cycle);
    specs.insert(specs.end(), cycle.begin(), cycle.end());
  }
  return specs;
}

void CheckAnswers(const RunConfig& cfg, const Sizes& z, World& w,
                  Report* out) {
  constexpr Algorithm kEvery[] = {Algorithm::kEager, Algorithm::kEagerM,
                                  Algorithm::kLazy, Algorithm::kLazyEp,
                                  Algorithm::kHubLabel};
  Rng rng(cfg.seed * 104729 + 5);
  const std::vector<grnn::PointId> live = w.points.LivePoints();
  grnn::graph::GraphView mem(&w.g);
  int checked = 0;
  for (int i = 0; i < z.oracle_queries; ++i) {
    const QuerySpec spec =
        MakeQuery(w, kEvery[i % std::size(kEvery)],
                  live[rng.UniformInt(live.size())],
                  1 + static_cast<int>(rng.UniformInt(kMaxK)));
    auto got = w.engine->Run(spec);
    auto want = grnn::core::BruteForceRknn(mem, w.points, spec.query_nodes,
                                           spec.options());
    if (!got.ok() || !want.ok() || !SameAnswer(*got, *want)) {
      out->Fail("oracle mismatch: " + Describe(spec));
    }
    checked++;
  }
  std::printf("oracle: %d sampled queries checked against brute force\n",
              checked);
}

}  // namespace

void RunStoredExpand(const RunConfig& cfg, Report* out) {
  const Sizes z = PickSizes(cfg.tiny);
  SetupTimer setup(cfg.tiny);
  auto build = [&] { return BuildWorld(z, setup); };
  std::unique_ptr<World> w = setup.TimeBuilds(build);
  grnn::core::RknnEngine& engine = *w->engine;

  // Every input is generated before timing starts.
  Rng rng(cfg.seed * 31 + 19);
  std::vector<std::vector<QuerySpec>> specs;
  for (int c = 0; c < kClients; ++c) {
    specs.push_back(MakeClientSpecs(*w, z.cycles, rng));
  }

  // Warm-up runs the same loop untimed: the pool reaches its steady mix
  // of resident pages and every workspace has grown.
  std::string first_error;
  RunClosedLoop(engine, specs, WarmupTimeline(kWarmupSeconds),
                &first_error);
  const grnn::core::EngineStats stats_before = engine.lifetime_stats();
  const grnn::storage::IoStats io_before = w->pool->stats();
  Timeline timeline;
  timeline.plan = PlanWindows(cfg);
  timeline.t0 = Clock::now();
  std::vector<QueryWindow> windows =
      RunClosedLoop(engine, specs, timeline, &first_error);
  const grnn::core::EngineStats delta =
      StatsDelta(engine.lifetime_stats(), stats_before);
  const grnn::storage::IoStats io = w->pool->stats() - io_before;
  if (!first_error.empty()) {
    std::printf("first failed query: %s\n", first_error.c_str());
  }

  std::printf(
      "stored-expand: BRITE |V|=%u |E|=%zu, %zu points, %zu file pages, "
      "pool %zu frames in %zu shards, avg label %.1f\n",
      w->g.num_nodes(), w->g.num_edges(), w->points.num_points(),
      w->disk.num_pages(), w->pool->capacity(), w->pool->num_shards(),
      static_cast<double>(w->label_file->num_entries()) /
          static_cast<double>(w->g.num_nodes()));
  ReportQueryWindows(windows, timeline.plan, out);
  ReportSearchCounters(delta, out);
  uint64_t results = 0;
  for (const QueryWindow& win : windows) {
    results += win.results;
  }
  ReportVerifyYield(delta, results, out);
  const double q =
      delta.queries == 0 ? 1.0 : static_cast<double>(delta.queries);
  out->Set("storage.pool.hit_ratio", io.HitRate());
  out->Set("storage.pool.misses_per_q",
           static_cast<double>(io.physical_reads) / q);
  out->Set("storage.pool.evictions_per_q",
           static_cast<double>(io.evictions) / q);
  out->Set("index.avg_label_size",
           static_cast<double>(w->label_file->num_entries()) /
               static_cast<double>(w->g.num_nodes()));
  out->Set("index.label_bytes_per_entry",
           static_cast<double>(w->label_file->num_pages() *
                               w->disk.page_size()) /
               static_cast<double>(w->label_file->num_entries()));
  out->Set("store_mb", static_cast<double>(w->disk.num_pages() *
                                           w->disk.page_size()) /
                           (1024.0 * 1024.0));
  const size_t pinned = w->pool->num_pinned();
  out->Set("storage.pool.pinned_end", static_cast<double>(pinned));
  if (pinned != 0) {
    out->Fail("pages still pinned after the run");
  }

  CheckAnswers(cfg, z, *w, out);
  out->Set("error_frac", out->attempted == 0
                             ? 0.0
                             : static_cast<double>(out->failed) /
                                   static_cast<double>(out->attempted));
  out->Set("peak_rss_mb", PeakRssMb());
  setup.TimeBuilds(build);
  setup.Report(out);
}

}  // namespace perfbench
