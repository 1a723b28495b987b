// Pieces shared by the three workloads: run configuration, the window
// plan of the timed phase, set-up timing through benchmark-owned spans,
// engine-counter reporting and the oracle comparison.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "obs/trace.h"
#include "report.h"
#include "stats.h"
#include "storage/disk_manager.h"
#include "storage/knn_file.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  /// Length of the timed phase (all windows together).
  double seconds = 10;
  /// Traced run: odd windows carry a caller-owned TraceContext on every
  /// query and feed the per-layer report.
  bool trace = false;
  /// Self-test size: tiny worlds, same code paths.
  bool tiny = false;
};

/// The timed phase is cut into equal windows. The untraced windows give
/// the end-to-end numbers; in a traced run every second window is
/// traced, and the two halves give the tracing overhead.
struct WindowPlan {
  int count = 6;
  double seconds_each = 0;
  bool trace = false;
  /// Samples a p99 needs (10 beyond it); 0 in tiny self-test runs.
  size_t min_samples = 0;
  bool Traced(int w) const { return trace && w % 2 == 1; }
};
WindowPlan PlanWindows(const RunConfig& cfg);

/// Timed world builds come in two halves, one before the timed phase and
/// one after it, each at least kSetupMinReps builds that together take
/// kSetupSeconds. One build takes 10-600 ms, and the host's speed drifts
/// over seconds, so builds spread over the whole run give a steadier
/// median than one burst of them.
inline constexpr int kSetupMinReps = 3;
inline constexpr double kSetupSeconds = 2.0;

/// Set-up timing through benchmark-owned spans. Each build opens a root
/// "setup" span on an unarmed TraceContext (no engine instrumentation
/// attaches to it) and one child span per public set-up call, named
/// after the per-layer metric it feeds ("gen.generate",
/// "core.materialize", "index.label_build", "storage.file_build",
/// "core.engine_create"). The first build is an untimed warm-up
/// (first-touch page faults, cold caches); setup_s is the median of the
/// timed builds of both halves.
class SetupTimer {
 public:
  /// Tiny self-test runs stop after kSetupMinReps timed builds a half.
  explicit SetupTimer(bool tiny) : budget_s_(tiny ? 0.0 : kSetupSeconds) {}

  /// One half: builds worlds with `build` (which passes trace() to its
  /// set-up calls) until the half is timed; returns the last world.
  template <typename Build>
  auto TimeBuilds(Build build) -> decltype(build()) {
    decltype(build()) world;
    reps_ = 0;
    half_s_ = 0;
    do {
      world.reset();
      BeginRep();
      world = build();
      EndRep();
    } while (reps_ < kSetupMinReps || half_s_ < budget_s_);
    return world;
  }

  grnn::obs::TraceContext* trace() { return &trace_; }
  /// setup_s and the per-phase medians (seconds).
  void Report(perfbench::Report* out) const;

 private:
  void BeginRep();
  /// Closes the build and records its span durations (all but the
  /// warm-up build's).
  void EndRep();

  double budget_s_;
  bool warm_ = false;
  /// Timed builds of the current half and their total seconds.
  int reps_ = 0;
  double half_s_ = 0;
  grnn::obs::TraceContext trace_;
  int32_t root_ = -1;
  std::map<std::string, std::vector<double>> seconds_;
};

/// Where each window of the timed phase sits in time. Samples taken
/// before t0 (warm-up) or after the last window are not measured.
struct Timeline {
  Clock::time_point t0;
  WindowPlan plan;
  /// Window containing `t`, or -1 outside the timed phase.
  int WindowAt(Clock::time_point t) const;
  Clock::time_point end() const;
};

/// One untraced window of `seconds` starting now (warm-up phases).
Timeline WarmupTimeline(double seconds);

/// What one window measured about queries.
struct QueryWindow {
  Samples latency_us;  // successful queries only
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Result points over the successful queries (verify-yield numerator).
  uint64_t results = 0;
  /// Client-thread CPU time inside Run over the successful queries.
  double cpu_s = 0;
  // Traced windows only.
  SpanTable spans;
  std::map<std::string, Samples> root_us_by_algo;
  uint64_t traced = 0;
  uint64_t dropped_spans = 0;
  /// Most spans one traced query recorded (the arena holds
  /// TraceContext::kMaxSpans).
  size_t max_spans = 0;

  void Merge(const QueryWindow& other);
};

/// Closed loop: one thread per spec list, each sending its next query
/// `think` after the previous one returned (spun, not slept), cycling
/// through its list until the timeline ends. Traced windows set
/// QuerySpec::trace to the thread's own TraceContext. Returns one
/// QueryWindow per window.
std::vector<QueryWindow> RunClosedLoop(
    grnn::core::RknnEngine& engine,
    std::vector<std::vector<grnn::core::QuerySpec>>& specs,
    const Timeline& timeline, std::string* first_error,
    Clock::duration think = Clock::duration::zero());

/// query_p50_us, query_p99_us and query_qps from the latencies pooled
/// over the `windows` untraced windows. Fails the run when they hold
/// fewer than plan.min_samples.
void ReportQueryLatency(const Samples& latency_us, int windows,
                        const WindowPlan& plan, Report* out);

/// End-to-end query metrics (ReportQueryLatency over the untraced
/// windows, CPU per query pooled), the per-layer query metrics of the
/// traced windows, and attempted/failed.
void ReportQueryWindows(const std::vector<QueryWindow>& windows,
                        const WindowPlan& plan, Report* out);

/// obs.span_overflow (a nonzero count fails the run) and
/// obs.trace_overhead_pct (traced over untraced query p50).
void ReportTraceHealth(double untraced_p50, double traced_p50,
                       uint64_t dropped_spans, Report* out);

/// core.verify_yield: result points over verification calls.
void ReportVerifyYield(const grnn::core::EngineStats& delta,
                       uint64_t results, Report* out);

/// Field-wise `after - before` of two lifetime_stats() snapshots.
grnn::core::EngineStats StatsDelta(const grnn::core::EngineStats& after,
                                   const grnn::core::EngineStats& before);

/// Per-query engine counters over a timed phase (lifetime_stats delta).
void ReportSearchCounters(const grnn::core::EngineStats& delta,
                          Report* out);

/// Self time per span name of the traced queries, as mean microseconds
/// per traced query.
void ReportSelfTimes(const SpanTable& spans, uint64_t traced_queries,
                     Report* out);

/// Folds one finished query trace: spans into `table`, the root span's
/// duration (microseconds) into `root_us`; returns dropped spans.
uint64_t FoldTrace(const grnn::obs::TraceContext& ctx, SpanTable* table,
                   double* root_us);

/// "kind/algo k=K at n" for failure messages.
std::string Describe(const grnn::core::QuerySpec& spec);

/// Oracle comparison: same result points on the same hosts (distances
/// are not compared: eager-M reports the bound its shortcut certified).
bool SameAnswer(const grnn::core::RknnResult& got,
                const grnn::core::RknnResult& want);

/// Short algorithm label of the per-algorithm metrics (E, EM, L, LEP, H).
const char* AlgoLabel(grnn::core::Algorithm a);

/// Creates a KnnFile on `disk` (slots in BFS order, so nearby nodes
/// share pages) and fills it with BuildAllNn through a private build
/// pool, inside a "core.materialize" span of `setup`.
grnn::Result<grnn::storage::KnnFile> MaterializeKnnFile(
    const grnn::graph::Graph& g, const grnn::core::NodePointSet& points,
    uint32_t k, grnn::storage::DiskManager* disk,
    grnn::obs::TraceContext* setup);

/// Aborts the run (no result line) when set-up fails.
template <typename T>
T Must(grnn::Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).ValueUnsafe();
}
void Must(const grnn::Status& s, const char* what);

/// RAM-backed device that counts the pages written to it, so device
/// write amplification is measured at the device. Copyable into a crash
/// image: a MemoryDiskManager makes every completed WritePage durable,
/// so a copy taken while no write is in flight is exactly what survives.
class CountingDisk final : public grnn::storage::DiskManager {
 public:
  size_t page_size() const override { return inner_.page_size(); }
  size_t num_pages() const override { return inner_.num_pages(); }
  grnn::Result<grnn::PageId> AllocatePage() override {
    return inner_.AllocatePage();
  }
  grnn::Status ReadPage(grnn::PageId id, uint8_t* out) override {
    return inner_.ReadPage(id, out);
  }
  grnn::Status WritePage(grnn::PageId id, const uint8_t* data) override {
    pages_written_.fetch_add(1, std::memory_order_relaxed);
    return inner_.WritePage(id, data);
  }
  grnn::Status Sync() override { return inner_.Sync(); }

  uint64_t pages_written() const {
    return pages_written_.load(std::memory_order_relaxed);
  }
  /// Copy of the device contents (call only while quiesced).
  std::unique_ptr<grnn::storage::MemoryDiskManager> CrashImage() const {
    return std::make_unique<grnn::storage::MemoryDiskManager>(inner_);
  }

 private:
  grnn::storage::MemoryDiskManager inner_;
  std::atomic<uint64_t> pages_written_{0};
};

/// One writer op. An insert carries the id the engine must assign: ids
/// are dense and never reused, so a single writer replaying a mirror of
/// the sets predicts them exactly.
struct WriteOp {
  grnn::core::UpdateSpec spec;
  grnn::PointId expect = grnn::kInvalidPoint;
};

/// Pregenerates `count` writer ops against mirrors of `points` and (when
/// non-null) `sites`, which get `site_share` of the ops: inserts target
/// free nodes, deletes live points, and each population hovers around
/// its initial size, so no op can fail.
std::vector<WriteOp> MakeWriteOps(const grnn::core::NodePointSet& points,
                                  const grnn::core::NodePointSet* sites,
                                  double site_share, grnn::Rng& rng,
                                  size_t count);

/// Checks one ApplyUpdate outcome against its op; empty when it matches.
std::string CheckWrite(
    const WriteOp& op,
    const grnn::Result<grnn::core::RknnEngine::UpdateResult>& r);

void RunHubServe(const RunConfig& cfg, Report* out);
void RunStoredExpand(const RunConfig& cfg, Report* out);
void RunDurableMixed(const RunConfig& cfg, Report* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
