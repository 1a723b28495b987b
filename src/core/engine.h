// Copyright (c) GRNN authors.
// RknnEngine: the session API unifying every RkNN query variant of the
// paper behind one entry point.
//
// The paper defines a single query contract — RkNN over network
// distance — served by four algorithms across four settings:
// monochromatic node queries (Section 3), bichromatic queries
// (Section 5.1), continuous route queries (Section 5.1) and unrestricted
// edge-position queries (Section 5.2). The engine owns the graph view,
// the point sources, the materialization and the buffer pool once, and
// answers any QuerySpec through Run() and applies any UpdateSpec through
// ApplyUpdate(). Each Run leases a pooled SearchWorkspace, so successive
// queries stop paying per-call allocation (see DESIGN.md, "The engine"
// and "Concurrency model"). The engine owns no threads: parallelism
// comes only from callers invoking it from several threads.
//
// Concurrency contract (PR 2 audit, extended by the PR 3 live-update
// path; full protocol in DESIGN.md, "Concurrency model"):
//   * One engine may serve Run / ApplyUpdate calls from many
//     threads concurrently. Mutable per-query state lives in pooled
//     SearchWorkspaces (one per in-flight call); lifetime counters are
//     mutex-guarded.
//   * Queries and updates synchronize on per-domain reader-writer locks
//     (domains: node points + their KNN store, sites + site store, edge
//     points + their store). A query takes shared access on the domains
//     its kind reads; an update takes exclusive access on the single
//     domain it rewrites. Queries therefore never block on domains an
//     update does not touch, and every query observes either the
//     pre-update or the post-update world — never a torn one.
//   * Everything else in EngineSources is shared read-only:
//     NetworkView::Scan and EdgePointReader::Read must be safe for
//     concurrent callers (each caller brings its own NeighborCursor —
//     workspaces are single-owner). The in-memory implementations are
//     pure reads; the disk-backed ones (StoredGraph, FileKnnStore,
//     StoredEdgePointReader) serialize on their BufferPool shard and
//     unpin every page before returning, so no pin outlives a call.
//   * Updating a point set or KNN store BEHIND the engine's back (not
//     through ApplyUpdate) while queries run remains unsupported —
//     quiesce first.
//   * The hub-label point indices (EngineSources::hub_labels, PR 5) are
//     engine-owned DERIVED state covering all three point domains
//     (points, sites, edge points). Patching its domain's index is a
//     step of every update, inside the exclusive section it already
//     holds, in both read modes: the update splices the one changed
//     point into a clone (per-hub runs are shared copy-on-write) and
//     installs the clone together with the set change, so the indices
//     always equal the sets and every query kind keeps its label path.
//     An update whose patch fails fails and changes no set, list or
//     index. A query only reads the index of a domain whose shared
//     lock (or pinned version) it holds.
//   * EPOCH-SNAPSHOT SERVING (EngineSources::snapshot_reads, PR 6):
//     when enabled, queries stop taking domain locks entirely. Dispatch
//     pins an epoch (serve/epoch.h) and runs against the currently
//     published immutable serve::WorldVersion; every update copies the
//     single domain it rewrites, maintains the copy, and publishes a
//     successor version under the SAME per-domain exclusive locks —
//     the lock protocol becomes a writer-side-only mechanism, readers
//     never block on writers, and every query observes exactly one
//     published version. Displaced versions are reclaimed when their
//     epoch drains. See DESIGN.md, "Serving layer".
//   * Moving an engine while calls are in flight is undefined.

#ifndef GRNN_CORE_ENGINE_H_
#define GRNN_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "core/bichromatic.h"
#include "core/materialize.h"
#include "core/point_set.h"
#include "core/query.h"
#include "core/types.h"
#include "core/unrestricted.h"
#include "core/workspace.h"
#include "graph/network_view.h"
#include "index/hub_label.h"
#include "index/hub_point_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/epoch.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"

namespace grnn::serve {
struct WorldVersion;
}  // namespace grnn::serve

namespace grnn::core {

/// The four query settings of the paper.
enum class QueryKind {
  kMonochromatic,  // RkNN(q) at a node, P = competitors (Section 3)
  kBichromatic,    // bRkNN(q) over sites Q, results from P (Section 5.1)
  kContinuous,     // cRkNN(route) along node routes (Section 5.1)
  kUnrestricted,   // RkNN(q) at an edge position (Section 5.2)
};

const char* QueryKindName(QueryKind kind);

inline constexpr QueryKind kAllQueryKinds[] = {
    QueryKind::kMonochromatic, QueryKind::kBichromatic,
    QueryKind::kContinuous, QueryKind::kUnrestricted};

/// \brief One query, fully described: the single tagged descriptor that
/// replaces the historical RknnOptions / UnrestrictedQuery split.
///
/// Target fields by kind:
///   * kMonochromatic — query_nodes holds exactly one node;
///   * kBichromatic   — query_nodes holds the (usually one) query node(s);
///   * kContinuous    — query_nodes is the route. Engines built over node
///     points answer it with the restricted machinery; engines built over
///     edge points answer it as an unrestricted route query;
///   * kUnrestricted  — position locates the query on an edge;
///     query_nodes is ignored.
///
/// `k` and `exclude_point` follow the RknnOptions semantics of
/// core/types.h (ties favour the candidate) for every kind.
struct QuerySpec {
  QueryKind kind = QueryKind::kMonochromatic;
  Algorithm algorithm = Algorithm::kEager;
  int k = 1;
  PointId exclude_point = kInvalidPoint;
  std::vector<NodeId> query_nodes;
  EdgePosition position;
  /// When set, Dispatch traces this query into the caller's context
  /// regardless of the engine's sampling policy (the caller owns the
  /// context and reads the span tree after Run returns). Null = let
  /// EngineSources::trace sampling decide.
  obs::TraceContext* trace = nullptr;

  RknnOptions options() const { return RknnOptions{k, exclude_point}; }

  static QuerySpec Monochromatic(Algorithm a, NodeId node, int k = 1,
                                 PointId exclude = kInvalidPoint);
  static QuerySpec Bichromatic(Algorithm a, NodeId node, int k = 1,
                               PointId exclude = kInvalidPoint);
  static QuerySpec Continuous(Algorithm a, std::vector<NodeId> route,
                              int k = 1, PointId exclude = kInvalidPoint);
  static QuerySpec Unrestricted(Algorithm a, EdgePosition pos, int k = 1,
                                PointId exclude = kInvalidPoint);
};

/// Which point population an update targets. Each set is its own
/// concurrency domain: updates lock only their set (and its KNN store),
/// queries lock the sets their kind reads.
enum class UpdateSet {
  kPoints,      // data points P on nodes (mono/continuous)
  kSites,       // sites Q (bichromatic)
  kEdgePoints,  // edge-resident data points (unrestricted)
};

const char* UpdateSetName(UpdateSet set);

/// \brief One live update, fully described: insert or delete of a data
/// point in one of the engine's point populations. Applying it through
/// RknnEngine::ApplyUpdate mutates the point set AND incrementally
/// maintains the matching materialized KNN store (Figs 9-11) and hub
/// point index under the domain's exclusive lock, so concurrent queries
/// see either the whole update or none of it.
struct UpdateSpec {
  enum class Op { kInsert, kDelete };

  Op op = Op::kInsert;
  UpdateSet set = UpdateSet::kPoints;
  /// Insert target for node populations (must not already host a point
  /// of that population).
  NodeId node = kInvalidNode;
  /// Insert target for kEdgePoints.
  EdgePosition position;
  /// Delete target (a live point id of the population).
  PointId point = kInvalidPoint;

  static UpdateSpec InsertPoint(NodeId node);
  static UpdateSpec InsertSite(NodeId node);
  static UpdateSpec InsertEdgePoint(EdgePosition position);
  static UpdateSpec DeletePoint(PointId point);
  static UpdateSpec DeleteSite(PointId point);
  static UpdateSpec DeleteEdgePoint(PointId point);
};

/// \brief Mutable access used by the engine's update path. Every pointer
/// that is set must alias the matching read-only pointer in
/// EngineSources (the engine validates this at Create): updates go to
/// the same objects queries read, just through the write interface.
/// Leaving a pointer null disables updates for that population.
struct UpdateSinks {
  NodePointSet* points = nullptr;
  NodePointSet* sites = nullptr;
  EdgePointSet* edge_points = nullptr;
  /// Maintained on kPoints updates (node engines) or kEdgePoints updates
  /// (edge engines); must alias EngineSources::knn.
  KnnStore* knn = nullptr;
  /// Maintained on kSites updates; must alias EngineSources::site_knn.
  KnnStore* site_knn = nullptr;
  /// Edge-point inserts validate positions against the base graph
  /// (edge existence, pos within the edge weight); required when
  /// edge_points is set.
  const graph::Graph* base_graph = nullptr;
};

/// \brief Everything an engine serves queries from. The graph is
/// mandatory; each point source unlocks the query kinds that need it.
/// All pointees must outlive the engine.
struct EngineSources {
  const graph::NetworkView* graph = nullptr;       // required
  const NodePointSet* points = nullptr;            // P (mono/continuous)
  const NodePointSet* sites = nullptr;             // Q (bichromatic)
  const EdgePointSet* edge_points = nullptr;       // unrestricted P
  /// Access path for edge-point records; defaults to an in-memory reader
  /// over `edge_points` when omitted.
  const EdgePointReader* edge_reader = nullptr;
  const KnnStore* knn = nullptr;       // eager-M over points / edge_points
  const KnnStore* site_knn = nullptr;  // eager-M over sites (bichromatic)
  /// Hub-label distance index over the SAME graph (in-memory
  /// HubLabelIndex or stored index::StoredLabelIndex); unlocks
  /// Algorithm::kHubLabel for ALL four query kinds — monochromatic,
  /// bichromatic, continuous (min-over-route sweep) and unrestricted
  /// (edge-resident points via offset endpoint labels). The engine
  /// derives inverted point indices from it at Create and patches them
  /// as a step of every live update (see ApplyUpdate below).
  const index::LabelStore* hub_labels = nullptr;
  /// When set, Run and ApplyUpdate charge this pool's I/O delta to the
  /// lifetime stats, and the metrics collector exports its counters.
  storage::BufferPool* pool = nullptr;
  /// Mutable aliases of the sources above; unlocks ApplyUpdate for the
  /// populations that are set.
  UpdateSinks updates;
  /// \brief Opt into the epoch-snapshot read path (the serving layer,
  /// src/serve/): queries pin an epoch and run against immutable
  /// published world versions instead of taking domain shared locks,
  /// so reads never block on writers.
  ///
  /// Contract changes relative to lock mode:
  ///   * Updatable point sets / stores are snapshotted at Create and
  ///     each update derives a new copy from the latest version — the
  ///     CALLER'S objects become initialization-time input and are NOT
  ///     mutated by ApplyUpdate afterwards (read results and ids off
  ///     the engine, not the sinks).
  ///   * A maintained KNN store must be memory-resident
  ///     (MemoryKnnStore): stored KnnFiles mutate shared pages in
  ///     place and cannot be captured by an immutable version.
  ///     Read-only stored sources (graph, labels, KNN files without
  ///     update sinks) are shared across versions unchanged.
  ///   * Update failures are fully atomic: a failed update publishes
  ///     nothing, so even the mid-maintenance error cases of
  ///     ApplyUpdate leave the served world untouched.
  bool snapshot_reads = false;
  /// \brief Optional process-wide metrics registry (src/obs/). When
  /// set, Create registers a collector that bridges every engine-side
  /// counter — lifetime EngineStats, buffer-pool per-shard IoStats,
  /// WAL stats, epoch stats, trace sampling — into registry.Snapshot()
  /// under the "engine."/"pool."/"wal." namespaces. Must outlive the
  /// engine.
  obs::MetricsRegistry* metrics = nullptr;
  /// Trace sampling + slow-query policy (zero-initialized = tracing
  /// armed only for queries carrying QuerySpec::trace, no slow-query
  /// ring).
  obs::TraceOptions trace;
};

/// Execution counters, cumulative over the engine lifetime.
struct EngineStats {
  uint64_t queries = 0;
  SearchStats search;
  storage::IoStats io;
  /// Queries during which a pooled workspace buffer had to (re)allocate.
  /// After a warm-up query on a given graph this stays flat: repeated
  /// Run calls perform no per-query workspace allocation.
  uint64_t workspace_grows = 0;
  /// Updates applied through ApplyUpdate.
  uint64_t updates = 0;
  /// Maintenance-cost totals over those updates (Fig 22's metric), so
  /// benches read update cost off the engine instead of side tallies.
  UpdateStats update;
};

/// \brief Session object answering RkNN queries of every kind through a
/// single entry point, with workspace reuse across calls.
///
/// Thread-safe: Run and ApplyUpdate may be called concurrently from many
/// threads (see the concurrency contract in the file header). Each Run
/// leases a SearchWorkspace from the engine's pool and returns it when
/// done, so workspaces — and their warmed-up buffers — are reused both
/// across calls and across serving threads.
class RknnEngine {
 public:
  static Result<RknnEngine> Create(const EngineSources& sources);

  // Out-of-line: State is incomplete here.
  RknnEngine(RknnEngine&&) noexcept;
  RknnEngine& operator=(RknnEngine&&) noexcept;
  ~RknnEngine();

  /// Answers one query. Reuses a pooled workspace, so even single
  /// queries amortize allocation across calls.
  Result<RknnResult> Run(const QuerySpec& spec);

  /// \brief Outcome of one applied update.
  struct UpdateResult {
    /// The point the update created (insert: its freshly assigned id) or
    /// removed (delete: the id from the spec).
    PointId point = kInvalidPoint;
    /// Maintenance cost of this operation (zeroed when the engine has no
    /// store to maintain for the domain).
    UpdateStats stats;
  };

  /// Applies one insert/delete, incrementally maintaining the domain's
  /// materialized KNN store, under the domain's exclusive lock. Safe
  /// concurrent with queries and with updates of other domains.
  /// Requires the matching UpdateSinks pointers.
  ///
  /// Failure atomicity: validation errors (bad spec, unknown point,
  /// occupied node) are raised before the set or the store changes and
  /// leave the domain untouched. A hub-index patch error (a label scan
  /// failing) changes no set, list or index either: a delete patches
  /// before it touches anything, an insert patches inside the store's
  /// BeginUpdate/AbortUpdate bracket. A failed insert rolls the point
  /// back out of the set, which burns its id, and always aborts the
  /// bracket, so a DurableKnnStore learns of every burned id. The
  /// domain's hub point index always equals its set: an insert installs
  /// its patched index only once the whole update stands, a delete as
  /// soon as the point leaves the set. A
  /// store maintenance error is NOT undone — for deletes the point is
  /// already out of the set and its list entries may survive, for
  /// inserts mid-maintenance the store may hold a partial write — so
  /// treat any maintenance error as the store being corrupt: quiesce
  /// and rebuild with BuildAllNn. (A store write that finds its pool
  /// shard fully pinned waits for a frame instead of failing, so
  /// maintenance errors mean real I/O trouble, not concurrency noise.)
  Result<UpdateResult> ApplyUpdate(const UpdateSpec& spec);

  /// Snapshot of the cumulative counters across every successful Run
  /// and ApplyUpdate on this engine.
  EngineStats lifetime_stats() const;

  const EngineSources& sources() const { return src_; }

  /// Number of idle pooled workspaces (diagnostics: after N concurrent
  /// calls have returned this is at least N).
  size_t num_pooled_workspaces() const;

  /// Epoch-reclamation counters of the serving layer (all zero when
  /// snapshot_reads is off).
  serve::EpochStats epoch_stats() const;

  /// Forces a reclamation pass over retired world versions and returns
  /// how many drained (no-op in lock mode). Updates already reclaim
  /// opportunistically; benches call this to flush the tail.
  size_t ReclaimVersions();

  /// Publication sequence of the currently served world version; 0 in
  /// lock mode. Increments on every successful update; a failed update
  /// publishes nothing.
  uint64_t world_seq() const;

  /// Removes and returns every retained slow query (oldest first).
  /// Queries land here when tracing was armed for them AND their total
  /// latency exceeded EngineSources::trace.slow_query_micros (see
  /// obs/trace.h for the ring-bound contract).
  std::vector<obs::SlowQuery> DrainSlowQueries();

 private:
  struct State;
  /// Immutable per-query view of everything a Run* body reads: either
  /// the engine sources under the domain shared locks (lock mode) or
  /// one pinned serve::WorldVersion (snapshot mode).
  struct QueryWorld;

  /// One domain's hub point index slot (null without hub_labels).
  using HubIndexPtr = std::shared_ptr<const index::HubPointIndex>;

  explicit RknnEngine(const EngineSources& sources);

  const EdgePointReader* edge_reader() const {
    return src_.edge_reader != nullptr ? src_.edge_reader
                                       : owned_reader_.get();
  }

  std::unique_ptr<SearchWorkspace> AcquireWorkspace();
  void ReleaseWorkspace(std::unique_ptr<SearchWorkspace> ws);

  // --- Serving-layer internals (snapshot mode only) ---
  /// Builds and publishes world version 0 from the sources (copying the
  /// updatable domains) at Create.
  Status InitSnapshotWorld();
  /// Shared_ptr to the currently published version (briefly takes the
  /// publish mutex; writer-side only — queries use the epoch pin).
  std::shared_ptr<const serve::WorldVersion> CurrentVersion() const;
  /// Derives a successor from the LATEST published version, applies
  /// `mutate` to it, publishes it and retires the predecessor.
  void PublishVersion(
      const std::function<void(serve::WorldVersion&)>& mutate);
  Result<UpdateResult> SnapshotNodeUpdate(const UpdateSpec& spec);
  Result<UpdateResult> SnapshotEdgeUpdate(const UpdateSpec& spec);

  Result<RknnResult> Dispatch(const QuerySpec& spec, SearchWorkspace& ws);
  /// Dispatch's locking + execution body; `trace` is the armed trace
  /// context (null = disarmed, the fast path).
  Result<RknnResult> DispatchBody(const QuerySpec& spec, SearchWorkspace& ws,
                                  obs::TraceContext* trace);
  Result<RknnResult> RunSpec(const QuerySpec& spec, const QueryWorld& world,
                             SearchWorkspace& ws);
  Result<UpdateResult> DispatchUpdate(const UpdateSpec& spec);
  /// Applies one update of a node (edge) domain to `set`, maintaining
  /// `store` (nullable) and replacing `hub` with its patched clone (see
  /// the ApplyUpdate failure contract). The caller holds the domain's
  /// exclusive lock; in snapshot mode all three are private copies.
  Result<UpdateResult> ApplyNodeUpdate(const UpdateSpec& spec,
                                       NodePointSet& set, KnnStore* store,
                                       HubIndexPtr& hub);
  Result<UpdateResult> ApplyEdgeUpdate(const UpdateSpec& spec,
                                       EdgePointSet& set, KnnStore* store,
                                       HubIndexPtr& hub);
  Result<RknnResult> RunMonochromatic(const QuerySpec& spec,
                                      const QueryWorld& world,
                                      SearchWorkspace& ws);
  Result<RknnResult> RunBichromatic(const QuerySpec& spec,
                                    const QueryWorld& world,
                                    SearchWorkspace& ws);
  Result<RknnResult> RunContinuous(const QuerySpec& spec,
                                   const QueryWorld& world,
                                   SearchWorkspace& ws);
  Result<RknnResult> RunUnrestricted(const QuerySpec& spec,
                                     const UnrestrictedQuery& query,
                                     const QueryWorld& world,
                                     SearchWorkspace& ws);

  EngineSources src_;
  std::unique_ptr<MemoryEdgePointReader> owned_reader_;
  // All mutable serving state (workspace pool, lifetime counters and
  // their mutexes) lives behind one pointer so the engine stays cheaply
  // movable.
  std::unique_ptr<State> state_;
};

}  // namespace grnn::core

#endif  // GRNN_CORE_ENGINE_H_
