// Mixed reader/writer serving: queries and live updates on ONE engine
// over ONE sharded buffer pool (the ROADMAP's "heavy mixed traffic"
// workload; cf. ReHub's concurrent index maintenance).
//
// Sweeps query:update ratios x thread counts. Every thread runs an
// independent op stream against the shared engine: queries take shared
// access on the points domain, each update takes exclusive access while
// it mutates the point set and incrementally maintains the materialized
// KNN file (Figs 9-11). The pool uses kDefaultConcurrentShards so pin
// bookkeeping stops serializing the fan-out.
//
// Each writer thread deletes only points it inserted itself (the point
// sets give no race-free cross-thread victim enumeration). An insert
// landing on an occupied node returns AlreadyExists and is counted in
// the `occ` column — mostly hits on the base placement (nonzero even
// single-threaded), occasionally a lost race against a concurrent
// writer; either way it is benign, not an error.
//
// Throughput on multi-core hardware should rise with threads for
// read-heavy mixes and degrade gracefully as the write share grows
// (writers serialize on the domain's exclusive lock).

// With --wal, the bench instead runs the durability A/B (perf-smoke's
// BENCH_PR7.json): the same write-heavy mix against two identical
// stored worlds — one through plain file stores, one through
// DurableKnnStore over a shared Wal (one journaled+flushed record per
// acknowledged update, log-before-page on eviction) — then times a
// redo recovery of the journaled world from its surviving devices.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/durability.h"
#include "gen/grid.h"
#include "gen/points.h"
#include "index/hub_label.h"
#include "obs/metrics.h"
#include "storage/wal.h"

using namespace grnn;
using namespace grnn::bench;

namespace {

struct MixResult {
  size_t queries = 0;
  size_t updates = 0;
  size_t occupied = 0;  // inserts rejected: node already hosts a point
  double wall_s = 0;
  core::UpdateStats maint;
  /// Hub-label queries answered through the eager fallback because the
  /// point indices were stale (zero when the engine has no hub labels).
  uint64_t hub_fallbacks = 0;
  /// Epoch-reclamation deltas over the mix (zero in lock mode):
  /// versions retired by updates, versions actually freed, and the
  /// limbo depth left when the mix ended.
  uint64_t epoch_retired = 0;
  uint64_t epoch_reclaimed = 0;
  uint64_t epoch_limbo = 0;
};

// One measured mix: `threads` OS threads, each issuing `ops_per_thread`
// operations, update with probability 1/ratio (ratio = queries per
// update + 1 denominator form below). With `use_hub` set, half the
// queries go through Algorithm::kHubLabel, exercising the staleness
// fallback under live updates.
Result<MixResult> RunMix(core::RknnEngine& engine, NodeId num_nodes,
                         int threads, size_t ops_per_thread,
                         int update_percent, uint64_t seed,
                         bool use_hub = false) {
  const core::EngineStats before = engine.lifetime_stats();
  const serve::EpochStats epochs_before = engine.epoch_stats();
  std::atomic<size_t> occupied{0};
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  Status first_error = Status::OK();
  auto record_failure = [&](const Status& s) {
    std::lock_guard<std::mutex> lock(err_mu);
    if (first_error.ok()) {
      first_error = s;
    }
    failed.store(true);
  };
  std::vector<std::thread> team;
  team.reserve(static_cast<size_t>(threads));
  WallTimer wall;
  for (int t = 0; t < threads; ++t) {
    team.emplace_back([&, t] {
      Rng rng(seed * 1299709 + static_cast<uint64_t>(t) * 7919 + 17);
      std::vector<PointId> mine;  // points this thread inserted
      for (size_t i = 0; i < ops_per_thread && !failed.load(); ++i) {
        if (static_cast<int>(rng.UniformInt(100)) < update_percent) {
          // Update: balance inserts (on random nodes) against deletes
          // of this thread's own points, so density stays ~stable.
          if (mine.empty() || rng.UniformInt(2) == 0) {
            NodeId node =
                static_cast<NodeId>(rng.UniformInt(num_nodes));
            auto r =
                engine.ApplyUpdate(core::UpdateSpec::InsertPoint(node));
            if (r.ok()) {
              mine.push_back(r->point);
            } else if (r.status().code() ==
                       StatusCode::kAlreadyExists) {
              occupied.fetch_add(1);  // node already hosts a point
            } else {
              record_failure(r.status());
            }
          } else {
            PointId victim = mine.back();
            mine.pop_back();
            auto r =
                engine.ApplyUpdate(core::UpdateSpec::DeletePoint(victim));
            if (!r.ok()) {
              record_failure(r.status());  // own points cannot conflict
            }
          }
        } else {
          const core::Algorithm algo =
              rng.UniformInt(2) == 0
                  ? (use_hub ? core::Algorithm::kHubLabel
                             : core::Algorithm::kEagerM)
                  : core::Algorithm::kEager;
          const int k = 1 + static_cast<int>(rng.UniformInt(3));
          auto r = engine.Run(core::QuerySpec::Monochromatic(
              algo, static_cast<NodeId>(rng.UniformInt(num_nodes)), k));
          if (!r.ok()) {
            record_failure(r.status());
          }
        }
      }
    });
  }
  for (auto& th : team) {
    th.join();
  }
  MixResult out;
  out.wall_s = wall.ElapsedSeconds();
  if (failed.load()) {
    return first_error;
  }
  const core::EngineStats after = engine.lifetime_stats();
  out.queries = after.queries - before.queries;
  out.updates = after.updates - before.updates;
  out.occupied = occupied.load();
  out.maint = after.update - before.update;
  out.hub_fallbacks =
      after.search.hub_fallbacks - before.search.hub_fallbacks;
  // Drain whatever this mix left in limbo before reading the counters:
  // the delta then reports this mix's reclamation, not the next one's.
  engine.ReclaimVersions();
  const serve::EpochStats epochs_after = engine.epoch_stats();
  out.epoch_retired = epochs_after.retired - epochs_before.retired;
  out.epoch_reclaimed =
      epochs_after.reclaimed - epochs_before.reclaimed;
  out.epoch_limbo = epochs_after.limbo;
  return out;
}

// The durability A/B (--wal). Both worlds share the graph and initial
// placement; each gets its own stored environment and point set (the
// mixes mutate them). The journaled world acknowledges an update only
// after its WAL record is flushed, so the throughput gap IS the price
// of the durability guarantee; the recovery row then reopens that
// world's devices and times the redo pass over everything the mixes
// logged.
int RunWalBench(const graph::Graph& g, const core::NodePointSet& points,
                uint32_t knn_k, const BenchArgs& args) {
  const size_t ops_per_thread = args.queries * 4;
  PrintBanner(
      StrPrintf("mixed read/write durability A/B (grid |V|=%u, K=%u)",
                g.num_nodes(), knn_k),
      args,
      StrPrintf("%zu ops/thread; WAL-off vs WAL-on (journal + flush per "
                "acked update), then timed redo recovery",
                ops_per_thread));
  JsonReport json("mixed_rw_wal", args);
  Table table({"mode", "upd%", "thr", "queries", "updates", "wall(s)",
               "ops/s"});

  auto run_mixes = [&](const char* mode, core::RknnEngine& engine)
      -> Status {
    for (int update_percent : {10, 50}) {
      for (int threads : {1, 2, 4}) {
        GRNN_ASSIGN_OR_RETURN(
            MixResult mix,
            RunMix(engine, g.num_nodes(), threads, ops_per_thread,
                   update_percent,
                   args.seed * 101 + static_cast<uint64_t>(
                                         update_percent * 13 + threads)));
        const double total_ops =
            static_cast<double>(mix.queries + mix.updates);
        table.AddRow({mode, std::to_string(update_percent),
                      std::to_string(threads),
                      std::to_string(mix.queries),
                      std::to_string(mix.updates),
                      Table::Num(mix.wall_s, 3),
                      Table::Num(mix.wall_s == 0
                                     ? 0
                                     : total_ops / mix.wall_s,
                                 0)});
        json.AddConfig(
            StrPrintf("mode=%s,upd=%d,threads=%d", mode, update_percent,
                      threads),
            {{"queries", static_cast<double>(mix.queries)},
             {"updates", static_cast<double>(mix.updates)},
             {"wall_s", mix.wall_s},
             {"ops_per_s",
              mix.wall_s == 0 ? 0 : total_ops / mix.wall_s}});
      }
    }
    return Status::OK();
  };

  // WAL off: the engine maintains the stored lists directly.
  {
    core::NodePointSet pts = points;
    auto env = BuildStoredRestricted(g, pts, knn_k, kDefaultPoolPages,
                                     storage::kDefaultConcurrentShards,
                                     storage::PageLayout::kV2Aligned)
                   .ValueOrDie();
    auto engine = MakeRestrictedUpdatableEngine(env, pts).ValueOrDie();
    if (Status s = run_mixes("wal_off", engine); !s.ok()) {
      std::fprintf(stderr, "wal_off mix failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }

  // WAL on: the same environment behind a journaled store, plus the
  // timed recovery of whatever the mixes logged.
  {
    core::NodePointSet pts = points;
    // The log and its device are declared BEFORE env so they are
    // destroyed AFTER it: ~BufferPool flushes its dirty pages through
    // the attached wal, which must still be alive at that point.
    auto wal_disk = std::make_unique<storage::MemoryDiskManager>();
    std::optional<storage::Wal> wal;
    auto env = BuildStoredRestricted(g, pts, knn_k, kDefaultPoolPages,
                                     storage::kDefaultConcurrentShards,
                                     storage::PageLayout::kV2Aligned)
                   .ValueOrDie();
    wal = storage::Wal::Create(wal_disk.get()).ValueOrDie();
    env.pool->AttachWal(&*wal);
    constexpr uint32_t kStoreId = 1;
    core::DurableKnnStore store(env.knn_file.get(), env.pool.get(),
                                &*wal, kStoreId);

    // The wal_on engine carries the registry: its snapshot is the
    // report's "metrics" object, including the wal.* counters the A/B
    // exists to measure.
    obs::MetricsRegistry registry;
    core::EngineSources sources;
    sources.graph = env.view.get();
    sources.points = &pts;
    sources.knn = &store;
    sources.pool = env.pool.get();
    sources.updates.points = &pts;
    sources.updates.knn = &store;
    sources.metrics = &registry;
    auto engine = core::RknnEngine::Create(sources).ValueOrDie();
    if (Status s = run_mixes("wal_on", engine); !s.ok()) {
      std::fprintf(stderr, "wal_on mix failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    json.SetMetrics(registry.Snapshot());

    // Redo recovery from the surviving devices: reopen the log and the
    // file, replay every record the mixes journaled. The pool is NOT
    // flushed first — lists it still holds dirty are exactly the pages
    // recovery must rewrite, as after a real crash.
    WallTimer timer;
    auto wal2 = storage::Wal::Open(wal_disk.get()).ValueOrDie();
    auto file2 =
        storage::KnnFile::Open(env.disk.get(), env.knn_file->first_page())
            .ValueOrDie();
    auto recovery =
        core::RecoverStores(wal2, {{kStoreId, {&file2, env.disk.get()}}})
            .ValueOrDie();
    const double recovery_s = timer.ElapsedSeconds();
    std::printf("\nredo recovery: %zu records, %zu pages rewritten in "
                "%.3f s (%.0f records/s)\n",
                recovery.records_replayed, recovery.pages_written,
                recovery_s,
                recovery_s == 0
                    ? 0
                    : static_cast<double>(recovery.records_replayed) /
                          recovery_s);
    json.AddConfig(
        "recovery",
        {{"recovery_s", recovery_s},
         {"records_replayed",
          static_cast<double>(recovery.records_replayed)},
         {"pages_written", static_cast<double>(recovery.pages_written)},
         {"wal_pages",
          static_cast<double>(wal_disk->num_pages())}});
  }

  table.Print();
  std::printf(
      "\nexpected shape: wal_on trades update throughput for the\n"
      "durability guarantee (one record append + fsync per acked\n"
      "update; group flush absorbs part of it at higher thread\n"
      "counts), read-heavy mixes converge toward wal_off, and the\n"
      "recovery row replays the full journaled history in well under\n"
      "a second at bench scale.\n");
  return json.WriteIfRequested().ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  bool wal_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--wal") == 0) {
      wal_mode = true;
    }
  }
  gen::GridConfig cfg;
  cfg.rows = args.pick<NodeId>(24, 48, 96);
  cfg.cols = cfg.rows;
  cfg.seed = args.seed;
  auto g = gen::GenerateGrid(cfg).ValueOrDie();
  Rng rng(args.seed * 31 + 5);
  auto points =
      gen::PlaceNodePoints(g.num_nodes(), 0.1, rng).ValueOrDie();
  constexpr uint32_t kK = 4;
  if (wal_mode) {
    return RunWalBench(g, points, kK, args);
  }

  // Serving configuration: sharded pin table + the v2 aligned layout
  // (decode-free scans), unlike the paper-exact defaults of the figure
  // benches.
  auto env = BuildStoredRestricted(g, points, kK, kDefaultPoolPages,
                                   storage::kDefaultConcurrentShards,
                                   storage::PageLayout::kV2Aligned)
                 .ValueOrDie();
  // The stored engine carries the registry (engine.* + per-shard
  // pool.*); the epoch_hub memory engine below stays unregistered —
  // two live engines would collide on the "engine.*" names.
  obs::MetricsRegistry registry;
  auto engine =
      MakeRestrictedUpdatableEngine(env, points, &registry).ValueOrDie();
  const size_t ops_per_thread = args.queries * 4;

  PrintBanner(
      StrPrintf("mixed read/write serving (grid |V|=%u, K=%u, %zu-shard "
                "pool)",
                g.num_nodes(), kK, env.pool->num_shards()),
      args,
      StrPrintf("%zu ops/thread; update%% swept x threads; occ = "
                "inserts rejected on occupied nodes (benign)",
                ops_per_thread));

  JsonReport json("mixed_rw", args);
  auto add_json = [&json](const char* mode, int update_percent,
                          int threads, const MixResult& mix) {
    const double total_ops =
        static_cast<double>(mix.queries + mix.updates);
    json.AddConfig(
        StrPrintf("mode=%s,upd=%d,threads=%d", mode, update_percent,
                  threads),
        {{"queries", static_cast<double>(mix.queries)},
         {"updates", static_cast<double>(mix.updates)},
         {"wall_s", mix.wall_s},
         {"ops_per_s", mix.wall_s == 0 ? 0 : total_ops / mix.wall_s},
         {"hub_fallbacks", static_cast<double>(mix.hub_fallbacks)},
         {"epoch_retired", static_cast<double>(mix.epoch_retired)},
         {"epoch_reclaimed", static_cast<double>(mix.epoch_reclaimed)},
         {"epoch_limbo", static_cast<double>(mix.epoch_limbo)}});
  };

  Table table({"upd%", "thr", "queries", "updates", "occ", "wall(s)",
               "ops/s", "maint wr/op"});
  for (int update_percent : {1, 10, 50}) {
    for (int threads : {1, 2, 4, 8}) {
      auto mix = RunMix(engine, g.num_nodes(), threads,
                        ops_per_thread, update_percent,
                        args.seed * 101 + static_cast<uint64_t>(
                                              update_percent * 13 +
                                              threads))
                     .ValueOrDie();
      const double total_ops =
          static_cast<double>(mix.queries + mix.updates);
      table.AddRow(
          {std::to_string(update_percent), std::to_string(threads),
           std::to_string(mix.queries), std::to_string(mix.updates),
           std::to_string(mix.occupied), Table::Num(mix.wall_s, 3),
           Table::Num(mix.wall_s == 0 ? 0 : total_ops / mix.wall_s, 0),
           Table::Num(mix.updates == 0
                          ? 0
                          : static_cast<double>(mix.maint.lists_written) /
                                static_cast<double>(mix.updates),
                      1)});
      add_json("lock", update_percent, threads, mix);
    }
  }
  table.Print();

  // Epoch-snapshot + hub-label sweep: an in-memory engine serving
  // through published versions, half the queries on the hub-label path
  // so live updates surface as staleness fallbacks. A modest grid keeps
  // the one-off hub-label build cheap; the interesting numbers are the
  // fallback share and the retire/reclaim balance in the JSON report.
  {
    gen::GridConfig mcfg;
    mcfg.rows = args.pick<NodeId>(16, 24, 48);
    mcfg.cols = mcfg.rows;
    mcfg.seed = args.seed + 1;
    auto mg = gen::GenerateGrid(mcfg).ValueOrDie();
    graph::GraphView mview(&mg);
    Rng mrng(args.seed * 37 + 11);
    auto mpoints =
        gen::PlaceNodePoints(mg.num_nodes(), 0.1, mrng).ValueOrDie();
    core::MemoryKnnStore mknn(mg.num_nodes(), kK);
    if (!core::BuildAllNn(mview, mpoints, &mknn).ok()) {
      std::fprintf(stderr, "KNN materialization failed\n");
      return 1;
    }
    auto labels = index::HubLabelBuilder::Build(mview).ValueOrDie();

    core::EngineSources msources;
    msources.graph = &mview;
    msources.points = &mpoints;
    msources.knn = &mknn;
    msources.hub_labels = &labels;
    msources.updates.points = &mpoints;
    msources.updates.knn = &mknn;
    msources.snapshot_reads = true;
    auto mengine = core::RknnEngine::Create(msources).ValueOrDie();

    std::printf("\nepoch-snapshot + hub-label mixed serving (memory "
                "engine, grid |V|=%u):\n",
                mg.num_nodes());
    Table etable({"upd%", "thr", "queries", "updates", "wall(s)",
                  "ops/s", "hub_fb", "retired", "reclaimed", "limbo"});
    for (int update_percent : {1, 10, 50}) {
      for (int threads : {1, 2, 4}) {
        auto mix =
            RunMix(mengine, mg.num_nodes(), threads, ops_per_thread,
                   update_percent,
                   args.seed * 211 +
                       static_cast<uint64_t>(update_percent * 17 +
                                             threads),
                   /*use_hub=*/true)
                .ValueOrDie();
        const double total_ops =
            static_cast<double>(mix.queries + mix.updates);
        etable.AddRow(
            {std::to_string(update_percent), std::to_string(threads),
             std::to_string(mix.queries), std::to_string(mix.updates),
             Table::Num(mix.wall_s, 3),
             Table::Num(mix.wall_s == 0 ? 0 : total_ops / mix.wall_s,
                        0),
             std::to_string(mix.hub_fallbacks),
             std::to_string(mix.epoch_retired),
             std::to_string(mix.epoch_reclaimed),
             std::to_string(mix.epoch_limbo)});
        add_json("epoch_hub", update_percent, threads, mix);
      }
    }
    etable.Print();
  }

  std::printf(
      "\nexpected shape: read-heavy mixes scale with threads (shared\n"
      "domain locks + sharded pin table); write-heavy mixes flatten as\n"
      "updates serialize on the exclusive domain lock. The density\n"
      "drifts with the insert/delete balance; occupied-node rejections\n"
      "track the density, not the thread count. In the epoch sweep,\n"
      "retired == updates (every update publishes a version) and\n"
      "reclaimed converges on retired once readers drain; hub_fb\n"
      "counts hub-label queries answered through the eager fallback\n"
      "while the point indices were stale.\n");
  json.SetMetrics(registry.Snapshot());
  return json.WriteIfRequested().ok() ? 0 : 1;
}
