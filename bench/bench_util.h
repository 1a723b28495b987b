// Copyright (c) GRNN authors.
// Shared benchmark harness: storage environments, the paper's cost model
// (CPU seconds + 10 ms per page fault, Section 6), workload running and
// table printing. Every bench binary accepts:
//   --scale=small|medium|full|large   experiment sizes (default medium;
//                               large = production-scale generators on
//                               benches with a dedicated preset,
//                               otherwise an alias for full)
//   --queries=N                 workload size (default 50, as the paper)
//   --seed=S                    RNG seed (default 1)
//   --json=PATH                 machine-readable output: per-config
//                               metrics (qps, page accesses, wall time)
//                               written as JSON next to the tables, so
//                               CI can archive a perf trajectory

#ifndef GRNN_BENCH_BENCH_UTIL_H_
#define GRNN_BENCH_BENCH_UTIL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <span>

#include "common/result.h"
#include "common/string_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/engine.h"
#include "core/materialize.h"
#include "core/point_set.h"
#include "core/query.h"
#include "core/unrestricted.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/graph_file.h"
#include "storage/knn_file.h"
#include "storage/point_file.h"
#include "storage/stored_graph.h"

namespace grnn::bench {

/// Default evaluation parameters from Section 6.
inline constexpr size_t kDefaultPoolPages = 256;  // 1 MB of 4 KB pages
inline constexpr double kIoCostSeconds = 0.010;   // 10 ms per page fault

enum class ScaleLevel { kSmall, kMedium, kFull, kLarge };

struct BenchArgs {
  ScaleLevel scale = ScaleLevel::kMedium;
  size_t queries = 50;
  uint64_t seed = 1;
  /// When non-empty, benches write their per-config metrics here as JSON
  /// (see JsonReport).
  std::string json_path;
  /// Paper algorithms to run, figure order. `--algos=E,LP` (any form
  /// ParseAlgorithm accepts) narrows the sweep; the four-way benches
  /// skip `BF` and `hub`/`H`, which have no figure column.
  std::vector<core::Algorithm> algos{std::begin(core::kAllAlgorithms),
                                     std::end(core::kAllAlgorithms)};

  static BenchArgs Parse(int argc, char** argv);
  const char* scale_name() const;
  /// Picks the per-scale value. Benches without a dedicated large
  /// preset treat --scale=large as full.
  template <typename T>
  T pick(T small, T medium, T full) const {
    return pick(small, medium, full, full);
  }
  /// Four-level variant for benches with a production-scale preset
  /// (--scale=large; >= 100k-node generator configs).
  template <typename T>
  T pick(T small, T medium, T full, T large) const {
    switch (scale) {
      case ScaleLevel::kSmall:
        return small;
      case ScaleLevel::kMedium:
        return medium;
      case ScaleLevel::kFull:
        return full;
      case ScaleLevel::kLarge:
        return large;
    }
    return medium;
  }
};

/// \brief Disk-resident restricted network: paged graph + optional
/// materialized KNN file, all behind one LRU buffer pool.
struct StoredRestricted {
  // Files are heap-allocated so their addresses survive moves of this
  // struct (views hold raw pointers into them).
  std::unique_ptr<storage::MemoryDiskManager> disk;
  std::unique_ptr<storage::GraphFile> file;
  std::unique_ptr<storage::KnnFile> knn_file;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<storage::StoredGraph> view;
  std::unique_ptr<core::FileKnnStore> knn_store;

  /// Replaces the buffer pool (e.g. for the Fig 21 buffer sweep) and
  /// re-binds the views. `pool_shards` = 1 keeps the paper's global
  /// LRU order; concurrent serving benches/tests pass
  /// storage::kDefaultConcurrentShards.
  void ResetPool(size_t pages,
                 storage::ReplacementPolicy policy =
                     storage::ReplacementPolicy::kLru,
                 size_t pool_shards = 1);
};

/// Builds the paged environment; if K > 0, also materializes per-node
/// K-NN lists (construction through a separate uncounted pool).
Result<StoredRestricted> BuildStoredRestricted(
    const graph::Graph& g, const core::NodePointSet& points, uint32_t K,
    size_t pool_pages = kDefaultPoolPages, size_t pool_shards = 1);

/// \brief Disk-resident unrestricted network: paged graph + edge-point
/// file + optional KNN file behind one pool.
struct StoredUnrestricted {
  std::unique_ptr<storage::MemoryDiskManager> disk;
  std::unique_ptr<storage::GraphFile> file;
  std::unique_ptr<storage::PointFile> point_file;
  std::unique_ptr<storage::KnnFile> knn_file;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<storage::StoredGraph> view;
  std::unique_ptr<core::StoredEdgePointReader> reader;
  std::unique_ptr<core::FileKnnStore> knn_store;

  void ResetPool(size_t pages,
                 storage::ReplacementPolicy policy =
                     storage::ReplacementPolicy::kLru,
                 size_t pool_shards = 1);
};

Result<StoredUnrestricted> BuildStoredUnrestricted(
    const graph::Graph& g, const core::EdgePointSet& points, uint32_t K,
    size_t pool_pages = kDefaultPoolPages, size_t pool_shards = 1);

/// \brief One measured workload: CPU time + buffer-pool fault delta.
struct Measurement {
  double cpu_s = 0;
  uint64_t faults = 0;
  uint64_t logical = 0;
  size_t queries = 0;
  size_t results = 0;

  double AvgCpuMs() const {
    return queries == 0 ? 0 : cpu_s * 1e3 / static_cast<double>(queries);
  }
  double AvgFaults() const {
    return queries == 0
               ? 0
               : static_cast<double>(faults) / static_cast<double>(queries);
  }
  /// The paper's total cost: CPU + 10 ms per fault (per query).
  double AvgTotalS() const {
    return queries == 0 ? 0
                        : (cpu_s + kIoCostSeconds *
                                       static_cast<double>(faults)) /
                              static_cast<double>(queries);
  }
};

/// Runs `count` queries through `per_query(i)` (returning the result
/// cardinality), measuring CPU and pool faults.
template <typename Fn>
Result<Measurement> RunWorkload(storage::BufferPool* pool, size_t count,
                                Fn per_query, bool cold_per_query = true) {
  Measurement m;
  m.queries = count;
  const storage::IoStats before = pool->stats();
  CpuTimer cpu;
  for (size_t i = 0; i < count; ++i) {
    if (cold_per_query) {
      // The paper reports per-query page accesses: within-query reuse is
      // buffered, cross-query reuse is not.
      GRNN_RETURN_NOT_OK(pool->Invalidate());
    }
    GRNN_ASSIGN_OR_RETURN(size_t results, per_query(i));
    m.results += results;
  }
  m.cpu_s = cpu.ElapsedSeconds();
  const storage::IoStats delta = pool->stats() - before;
  m.faults = delta.physical_reads + delta.physical_writes;
  m.logical = delta.logical_reads;
  return m;
}

/// Results of the four paper algorithms, in figure order (the slot of
/// algorithm `a` is FourWayIndex(a), i.e. its position in
/// core::kAllAlgorithms). Algorithms not part of a run stay
/// zero-measured.
struct FourWay {
  Measurement m[4];
};

/// Position of `a` in core::kAllAlgorithms; -1 for the brute force.
int FourWayIndex(core::Algorithm a);

/// Engine session over a stored restricted environment (current view,
/// KNN store when materialized, and the counted pool). Rebuild the
/// engine after ResetPool: the views it holds are replaced.
Result<core::RknnEngine> MakeRestrictedEngine(
    const StoredRestricted& env, const core::NodePointSet& points);

/// Unrestricted counterpart (edge points + stored reader).
Result<core::RknnEngine> MakeUnrestrictedEngine(
    const StoredUnrestricted& env, const core::EdgePointSet& points);

/// Engine with live-update sinks over a stored restricted environment:
/// queries and core::UpdateSpec inserts/deletes (maintaining
/// env.knn_store incrementally) may run concurrently. `points` must be
/// the set the environment's KNN file was materialized from.
Result<core::RknnEngine> MakeRestrictedUpdatableEngine(
    const StoredRestricted& env, core::NodePointSet& points);

/// Updatable unrestricted engine (the Fig 22 maintenance workload). The
/// engine reads edge points through its in-memory reader — a stored
/// PointFile reader would not see inserted points — while KNN
/// maintenance still flows through env.knn_store and the counted pool.
Result<core::RknnEngine> MakeUnrestrictedUpdatableEngine(
    const StoredUnrestricted& env, core::EdgePointSet& points,
    const graph::Graph& g);

/// Table headers for FourWay rows: `first` columns, then one total-cost
/// column and one io/cpu breakdown column per paper algorithm, labelled
/// through core::AlgorithmShortName.
std::vector<std::string> FourWayHeaders(std::vector<std::string> first);

/// Runs the selected paper algorithms over a workload of query points
/// (each excluded from its own query) through an RknnEngine session,
/// cold cache per algorithm. Requires env.knn_store (K >= k) when
/// eager-M is selected.
Result<FourWay> RunFourWayRestricted(
    StoredRestricted& env, const core::NodePointSet& points,
    const std::vector<PointId>& queries, int k,
    std::span<const core::Algorithm> algos = core::kAllAlgorithms);

/// Unrestricted counterpart: queries are edge-resident data points.
Result<FourWay> RunFourWayUnrestricted(
    StoredUnrestricted& env, const core::EdgePointSet& points,
    const std::vector<PointId>& queries, int k,
    std::span<const core::Algorithm> algos = core::kAllAlgorithms);

/// Appends the four algorithms' total-cost cells (paper cost model) plus
/// a breakdown suffix to `cells`.
void AppendFourWayCells(const FourWay& fw, std::vector<std::string>* cells);

/// \brief printf-style row/column table writer for paper-shaped output.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

  static std::string Num(double v, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints the standard bench banner.
void PrintBanner(const std::string& title, const BenchArgs& args,
                 const std::string& setup);

/// \brief Machine-readable bench report (--json=PATH): one JSON object
/// per bench run carrying the run parameters and a row of numeric
/// metrics per measured configuration, e.g.
///   {"bench": "fig21_buffer", "scale": "small", ..., "configs": [
///     {"name": "buffer=64,algo=E", "qps_cpu": 304.1, "cpu_s": 0.16,
///      ...}, ...]}
/// Collect rows unconditionally (the cost is trivial) and call
/// WriteIfRequested at the end; without --json= it does nothing.
class JsonReport {
 public:
  using Metrics = std::vector<std::pair<std::string, double>>;

  JsonReport(std::string bench, const BenchArgs& args);

  void AddConfig(std::string name, Metrics metrics);

  /// Standard metric row for a Measurement: qps (pure CPU), wall time,
  /// page accesses and the paper's total cost.
  static Metrics MeasurementMetrics(const Measurement& m);

  /// One config row per selected paper algorithm of a FourWay sweep,
  /// named "<prefix>,algo=<short name>" — the shared shape of every
  /// figure bench's JSON output.
  void AddFourWayConfigs(const std::string& prefix, const FourWay& fw,
                         std::span<const core::Algorithm> algos);

  /// Embeds a metrics snapshot (src/obs/) as the report's "metrics"
  /// object, so one CI artifact carries bench rows and the full system
  /// counter state they were measured under. Last call wins.
  void SetMetrics(const obs::MetricsSnapshot& snapshot);

  /// Writes the report to args.json_path; no-op when the flag is unset.
  /// Every report carries a "meta" object (git sha, compiler, build
  /// type, hardware concurrency, page size) so archived JSON is
  /// attributable to the build that produced it.
  Status WriteIfRequested() const;

 private:
  std::string bench_;
  std::string path_;
  std::string scale_;
  uint64_t seed_;
  size_t queries_;
  std::vector<std::pair<std::string, Metrics>> configs_;
  std::string metrics_json_;
};

}  // namespace grnn::bench

#endif  // GRNN_BENCH_BENCH_UTIL_H_
