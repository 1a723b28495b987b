// durable-mixed: journaled live updates with concurrent readers. A grid
// world whose v2 GraphFile and KnnFile sit behind one sharded
// BufferPool; the lock-mode engine maintains the KNN lists through a
// DurableKnnStore over a Wal (one flushed record per acknowledged
// update, a checkpoint whenever the log outgrows its threshold). One
// closed-loop writer inserts and deletes points while two closed-loop
// readers run eager-M and eager queries. Both devices are RAM-backed,
// so the numbers are the program's, not the disk's. The run ends with
// a timed redo recovery over copies of the surviving devices.

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "core/brute_force.h"
#include "core/durability.h"
#include "gen/grid.h"
#include "gen/points.h"
#include "storage/graph_file.h"
#include "storage/stored_graph.h"
#include "storage/wal.h"
#include "workload.h"

namespace perfbench {

namespace {

using grnn::NodeId;
using grnn::Rng;
using grnn::core::Algorithm;
using grnn::core::QuerySpec;

constexpr int kReaders = 2;
/// The world (graph and initial points) is a fixed data set; --seed
/// draws the traffic.
constexpr uint64_t kWorldSeed = 1;
/// KNN list capacity; readers ask k <= kK.
constexpr uint32_t kK = 4;
constexpr uint32_t kStoreId = 1;
constexpr double kWarmupSeconds = 0.5;
/// Readers pause this long between queries (spun). Without a pause the
/// two readers overlap and hold the points domain's shared lock without
/// a gap, and the writer starves.
constexpr auto kReaderThink = std::chrono::microseconds(500);
/// The writer pauses this long between updates (spun), so it holds the
/// domain's exclusive lock a bounded share of the time instead of
/// almost always.
constexpr auto kWriterThink = std::chrono::microseconds(1000);

struct Sizes {
  uint32_t side;
  double point_density;
  size_t pool_frames;
  /// Log size that triggers a checkpoint on the commit path.
  uint64_t checkpoint_bytes;
  /// Pregenerated writer ops (more than a run can apply).
  size_t write_ops;
  /// Shuffled cycles of the fixed query set in each reader's list.
  size_t cycles;
  int oracle_queries;
  /// Nodes whose recovered lists are compared with a fresh BuildAllNn.
  size_t oracle_lists;
};

Sizes PickSizes(bool tiny) {
  if (tiny) {
    return {16, 0.1, 64, 16 << 10, 40000, 2, 4, 64};
  }
  return {64, 0.1, 256, 1 << 20, 200000, 24, 10, 512};
}

struct World {
  grnn::graph::Graph g;
  /// Mutated by the engine's updates (lock mode writes through).
  grnn::core::NodePointSet points{0};
  CountingDisk data;
  CountingDisk log;
  std::optional<grnn::storage::GraphFile> graph_file;
  std::optional<grnn::storage::KnnFile> knn_file;
  // The log outlives the pool: ~BufferPool flushes through it.
  std::optional<grnn::storage::Wal> wal;
  std::unique_ptr<grnn::storage::BufferPool> pool;
  std::unique_ptr<grnn::storage::StoredGraph> view;
  std::unique_ptr<grnn::core::DurableKnnStore> store;
  std::optional<grnn::core::RknnEngine> engine;
};

/// The serving engine of this workload, configured in one place.
grnn::Result<grnn::core::RknnEngine> MakeEngine(World& w) {
  grnn::core::EngineSources s;
  s.graph = w.view.get();
  s.points = &w.points;
  s.knn = w.store.get();
  s.pool = w.pool.get();
  s.updates.points = &w.points;
  s.updates.knn = w.store.get();
  return grnn::core::RknnEngine::Create(s);
}

std::unique_ptr<World> BuildWorld(const Sizes& z, SetupTimer& timer) {
  auto w = std::make_unique<World>();
  {
    grnn::obs::ScopedSpan span(timer.trace(), "gen.generate");
    grnn::gen::GridConfig gc;
    gc.rows = z.side;
    gc.cols = z.side;
    gc.seed = kWorldSeed;
    w->g = Must(grnn::gen::GenerateGrid(gc), "grid generation");
    Rng rng(kWorldSeed * 7919 + 3);
    w->points = Must(grnn::gen::PlaceNodePoints(w->g.num_nodes(),
                                                z.point_density, rng),
                     "point placement");
  }
  {
    grnn::obs::ScopedSpan span(timer.trace(), "storage.file_build");
    w->graph_file.emplace(
        Must(grnn::storage::GraphFile::Build(w->g, &w->data), "graph file"));
    w->wal.emplace(Must(grnn::storage::Wal::Create(&w->log), "wal create"));
  }
  w->knn_file.emplace(Must(
      MaterializeKnnFile(w->g, w->points, kK, &w->data, timer.trace()),
      "KNN materialization"));
  w->pool = std::make_unique<grnn::storage::BufferPool>(
      &w->data, z.pool_frames, grnn::storage::ReplacementPolicy::kLru,
      grnn::storage::kDefaultConcurrentShards);
  w->pool->AttachWal(&*w->wal);
  w->view = std::make_unique<grnn::storage::StoredGraph>(&*w->graph_file,
                                                         w->pool.get());
  w->store = std::make_unique<grnn::core::DurableKnnStore>(
      &*w->knn_file, w->pool.get(), &*w->wal, kStoreId, z.checkpoint_bytes);
  {
    grnn::obs::ScopedSpan span(timer.trace(), "core.engine_create");
    w->engine.emplace(Must(MakeEngine(*w), "engine create"));
  }
  return w;
}

/// One reader's query list. Every reader cycles through the same fixed
/// set of kCycle queries at nodes spread evenly over the grid: eager-M
/// and eager in turn, with k = 1..kK round-robin. The seed only shuffles
/// the order within each cycle; a run covers several cycles, so its mix
/// does not depend on the seed.
std::vector<QuerySpec> MakeReaderSpecs(const World& w, size_t cycles,
                                       Rng& rng) {
  constexpr size_t kCycle = 500;
  std::vector<QuerySpec> cycle;
  for (size_t i = 0; i < kCycle; ++i) {
    const NodeId node = static_cast<NodeId>(i * w.g.num_nodes() / kCycle);
    cycle.push_back(QuerySpec::Monochromatic(
        i % 2 == 0 ? Algorithm::kEagerM : Algorithm::kEager, node,
        1 + static_cast<int>((i / 2) % kK)));
  }
  std::vector<QuerySpec> specs;
  for (size_t c = 0; c < cycles; ++c) {
    rng.Shuffle(cycle);
    specs.insert(specs.end(), cycle.begin(), cycle.end());
  }
  return specs;
}

/// The single closed-loop writer: applies the pregenerated ops in order
/// until the timeline ends, timing each ApplyUpdate.
struct Writer {
  std::vector<Samples> latency_us;  // per window
  size_t next = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;

  void Run(grnn::core::RknnEngine& engine, const std::vector<WriteOp>& ops,
           const Timeline& timeline) {
    latency_us.assign(timeline.plan.count, Samples());
    while (next < ops.size()) {
      const Clock::time_point start = Clock::now();
      if (start >= timeline.end()) {
        return;
      }
      auto r = engine.ApplyUpdate(ops[next].spec);
      const Clock::time_point end = Clock::now();
      const std::string problem = CheckWrite(ops[next], r);
      next++;
      attempted++;
      if (!problem.empty()) {
        failed++;
        first_error = problem;
        return;  // the mirror no longer predicts the engine
      }
      const int w = timeline.WindowAt(start);
      if (w >= 0) {
        latency_us[w].Add(MicrosBetween(start, end));
      }
      while (Clock::now() < end + kWriterThink) {
      }
    }
  }
};

/// Readers and the writer over one timeline; returns the readers'
/// windows.
std::vector<QueryWindow> RunMixed(grnn::core::RknnEngine& engine,
                                  std::vector<std::vector<QuerySpec>>& specs,
                                  const std::vector<WriteOp>& ops,
                                  const Timeline& timeline, Writer* writer,
                                  std::string* first_error) {
  std::thread wt([&] { writer->Run(engine, ops, timeline); });
  std::vector<QueryWindow> windows =
      RunClosedLoop(engine, specs, timeline, first_error, kReaderThink);
  wt.join();
  return windows;
}

/// The data device after redo recovery, with the reopened KNN file.
struct Recovered {
  std::unique_ptr<grnn::storage::MemoryDiskManager> disk;
  std::optional<grnn::storage::KnnFile> file;
};

/// Redo recovery over copies of both devices, exactly as they would
/// survive a crash now (the pool is not flushed first). Fills the
/// recovery metrics.
Recovered CrashAndRecover(World& w, Report* out) {
  Recovered r;
  r.disk = w.data.CrashImage();
  std::unique_ptr<grnn::storage::MemoryDiskManager> log = w.log.CrashImage();
  const Clock::time_point start = Clock::now();
  grnn::storage::Wal wal = Must(grnn::storage::Wal::Open(log.get()),
                                "wal reopen");
  r.file.emplace(Must(
      grnn::storage::KnnFile::Open(r.disk.get(), w.knn_file->first_page()),
      "knn file reopen"));
  const grnn::core::RecoveryResult rec = Must(
      grnn::core::RecoverStores(wal, {{kStoreId, {&*r.file, r.disk.get()}}}),
      "recovery");
  const double seconds = SecondsSince(start);
  out->Set("recovery_s", seconds);
  out->Set("storage.recovery.records",
           static_cast<double>(rec.records_replayed));
  out->Set("storage.recovery.pages_written",
           static_cast<double>(rec.pages_written));
  out->Set("storage.recovery.records_per_s",
           seconds > 0 ? static_cast<double>(rec.records_replayed) / seconds
                       : 0.0);
  std::printf("recovery: %zu records, %zu pages rewritten in %.4f s\n",
              rec.records_replayed, rec.pages_written, seconds);
  return r;
}

/// Recovered lists on sampled nodes must equal a from-scratch BuildAllNn
/// over the final point set; sampled queries on the quiesced engine must
/// equal brute force.
void CheckAnswers(const RunConfig& cfg, const Sizes& z, World& w,
                  Recovered& recovered, Report* out) {
  grnn::graph::GraphView mem(&w.g);
  grnn::core::MemoryKnnStore fresh(w.g.num_nodes(), kK);
  Must(grnn::core::BuildAllNn(mem, w.points, &fresh), "fresh BuildAllNn");
  grnn::storage::BufferPool pool(recovered.disk.get(), 64);
  Rng rng(cfg.seed * 104729 + 7);
  std::vector<grnn::storage::NnEntry> got, want;
  size_t list_mismatches = 0;
  for (size_t i = 0; i < z.oracle_lists; ++i) {
    const NodeId n = static_cast<NodeId>(rng.UniformInt(w.g.num_nodes()));
    Must(recovered.file->Read(&pool, n, &got), "recovered list read");
    Must(fresh.Read(n, &want), "fresh list read");
    bool same = got.size() == want.size();
    for (size_t j = 0; same && j < got.size(); ++j) {
      same = got[j].point == want[j].point &&
             std::abs(got[j].dist - want[j].dist) <= 1e-9;
    }
    list_mismatches += same ? 0 : 1;
  }
  if (list_mismatches != 0) {
    out->Fail(std::to_string(list_mismatches) +
              " recovered KNN lists differ from a fresh BuildAllNn");
  }
  int checked = 0;
  for (int i = 0; i < z.oracle_queries; ++i) {
    const QuerySpec spec = QuerySpec::Monochromatic(
        i % 2 == 0 ? Algorithm::kEagerM : Algorithm::kEager,
        static_cast<NodeId>(rng.UniformInt(w.g.num_nodes())),
        1 + static_cast<int>(rng.UniformInt(kK)));
    auto r = w.engine->Run(spec);
    auto oracle = grnn::core::BruteForceRknn(mem, w.points, spec.query_nodes,
                                             spec.options());
    if (!r.ok() || !oracle.ok() || !SameAnswer(*r, *oracle)) {
      out->Fail("oracle mismatch: " + Describe(spec));
    }
    checked++;
  }
  std::printf("oracle: %zu recovered lists and %d sampled queries checked\n",
              z.oracle_lists, checked);
}

}  // namespace

void RunDurableMixed(const RunConfig& cfg, Report* out) {
  const Sizes z = PickSizes(cfg.tiny);
  SetupTimer setup(cfg.tiny);
  auto build = [&] { return BuildWorld(z, setup); };
  std::unique_ptr<World> w = setup.TimeBuilds(build);
  grnn::core::RknnEngine& engine = *w->engine;

  // Every input is generated before timing starts.
  Rng rng(cfg.seed * 31 + 23);
  const std::vector<WriteOp> ops =
      MakeWriteOps(w->points, nullptr, 0.0, rng, z.write_ops);
  std::vector<std::vector<QuerySpec>> specs;
  for (int r = 0; r < kReaders; ++r) {
    specs.push_back(MakeReaderSpecs(*w, z.cycles, rng));
  }

  std::string first_error;
  Writer writer;
  RunMixed(engine, specs, ops, WarmupTimeline(kWarmupSeconds), &writer,
           &first_error);
  const grnn::core::EngineStats stats_before = engine.lifetime_stats();
  const grnn::storage::WalStats wal_before = w->wal->stats();
  const uint64_t device_pages_before =
      w->data.pages_written() + w->log.pages_written();
  const grnn::storage::IoStats io_before = w->pool->stats();
  const uint64_t warmup_updates = writer.attempted;

  Timeline timeline;
  timeline.plan = PlanWindows(cfg);
  timeline.t0 = Clock::now();
  std::vector<QueryWindow> windows =
      RunMixed(engine, specs, ops, timeline, &writer, &first_error);
  const grnn::core::EngineStats delta =
      StatsDelta(engine.lifetime_stats(), stats_before);
  const grnn::storage::WalStats wal_after = w->wal->stats();
  const uint64_t device_pages =
      w->data.pages_written() + w->log.pages_written() - device_pages_before;

  if (!first_error.empty()) {
    std::printf("first failed query: %s\n", first_error.c_str());
  }
  if (!writer.first_error.empty()) {
    out->Fail("writer stopped: " + writer.first_error);
  }
  if (writer.next == ops.size()) {
    out->Fail("writer ran out of pregenerated ops");
  }
  std::printf("durable-mixed: grid |V|=%u, %zu points at the end, pool %zu "
              "frames, checkpoint every %llu log bytes\n",
              w->g.num_nodes(), w->points.num_points(), w->pool->capacity(),
              static_cast<unsigned long long>(z.checkpoint_bytes));
  ReportQueryWindows(windows, timeline.plan, out);
  ReportSearchCounters(delta, out);
  uint64_t results = 0;
  for (const QueryWindow& win : windows) {
    results += win.results;
  }
  ReportVerifyYield(delta, results, out);

  // Updates: every window counts (updates carry no trace).
  Samples update_us;
  for (const Samples& s : writer.latency_us) {
    update_us.Merge(s);
  }
  out->attempted += writer.attempted - warmup_updates;
  out->failed += writer.failed;
  std::printf("samples: %zu updates; p99 needs %zu\n", update_us.count(),
              SamplesNeeded(99, 10));
  if (update_us.count() < timeline.plan.min_samples) {
    out->Fail("too few update samples for p99");
  }
  out->Set("update_p50_us", update_us.Percentile(50));
  out->Set("update_p99_us", update_us.Percentile(99));
  out->Set("update_ops_s",
           static_cast<double>(update_us.count()) / cfg.seconds);
  out->Set("core.update_apply_p50_us", update_us.Percentile(50));
  out->Set("client.update_samples", static_cast<double>(update_us.count()));

  const double updates =
      delta.updates == 0 ? 1.0 : static_cast<double>(delta.updates);
  out->Set("storage.wal.flushes_per_upd",
           static_cast<double>(wal_after.flushes - wal_before.flushes) /
               updates);
  out->Set("storage.wal.bytes_per_upd",
           static_cast<double>(wal_after.bytes_appended -
                               wal_before.bytes_appended) /
               updates);
  out->Set("storage.wal.checkpoints",
           static_cast<double>(wal_after.checkpoints -
                               wal_before.checkpoints));
  const double list_bytes =
      static_cast<double>(delta.update.lists_written) *
      static_cast<double>(kK * grnn::storage::kNnEntryBytes);
  out->Set("storage.write_amp",
           list_bytes > 0 ? static_cast<double>(device_pages *
                                                w->data.page_size()) /
                                list_bytes
                          : 0.0);
  out->Set("store_mb",
           static_cast<double>((w->data.num_pages() + w->log.num_pages()) *
                               w->data.page_size()) /
               (1024.0 * 1024.0));
  const size_t pinned = w->pool->num_pinned();
  out->Set("storage.pool.pinned_end", static_cast<double>(pinned));
  if (pinned != 0) {
    out->Fail("pages still pinned after the run");
  }
  const grnn::storage::IoStats io = w->pool->stats() - io_before;
  const double q =
      delta.queries == 0 ? 1.0 : static_cast<double>(delta.queries);
  out->Set("storage.pool.hit_ratio", io.HitRate());
  out->Set("storage.pool.misses_per_q",
           static_cast<double>(io.physical_reads) / q);
  out->Set("storage.pool.evictions_per_q",
           static_cast<double>(io.evictions) / q);

  Recovered recovered = CrashAndRecover(*w, out);
  CheckAnswers(cfg, z, *w, recovered, out);
  out->Set("error_frac", out->attempted == 0
                             ? 0.0
                             : static_cast<double>(out->failed) /
                                   static_cast<double>(out->attempted));
  out->Set("peak_rss_mb", PeakRssMb());
  setup.TimeBuilds(build);
  setup.Report(out);
}

}  // namespace perfbench
