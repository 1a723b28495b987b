#include "core/engine.h"

#include <atomic>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "common/string_util.h"
#include "storage/wal.h"
#include "core/brute_force.h"
#include "core/eager.h"
#include "core/lazy.h"
#include "core/lazy_ep.h"
#include "index/hub_rknn.h"
#include "serve/world_version.h"

namespace grnn::core {

namespace {

/// The engine's concurrency domains: each point population and its
/// materialized store form one reader-writer unit. Queries take shared
/// locks on the domains their kind reads (in this fixed index order, so
/// multi-domain readers cannot deadlock); an update takes the exclusive
/// lock of the single domain it rewrites.
enum Domain {
  kDomainPoints = 0,  // points + knn (node engines)
  kDomainSites = 1,   // sites + site_knn
  kDomainEdge = 2,    // edge_points + knn (edge engines)
  kNumDomains = 3,
};

/// Derives the hub point index of `set` (null without labels or set),
/// for lock mode's slots and snapshot version 0 alike.
template <typename Set>
Result<std::shared_ptr<const index::HubPointIndex>> BuildHubIndex(
    const index::LabelStore* labels, const Set* set) {
  if (labels == nullptr || set == nullptr) {
    return std::shared_ptr<const index::HubPointIndex>();
  }
  GRNN_ASSIGN_OR_RETURN(index::HubPointIndex idx,
                        index::HubPointIndex::Build(*labels, *set));
  return std::make_shared<const index::HubPointIndex>(std::move(idx));
}

/// Clones `hub` and splices one point into or out of the clone with
/// `patch`. The per-hub runs are shared copy-on-write, so the clone
/// copies only the runs the patch touches. No index, nothing to patch.
template <typename PatchFn>
Result<std::shared_ptr<const index::HubPointIndex>> PatchedClone(
    const std::shared_ptr<const index::HubPointIndex>& hub,
    PatchFn&& patch) {
  if (hub == nullptr) {
    return hub;
  }
  auto next = std::make_shared<index::HubPointIndex>(*hub);
  GRNN_RETURN_NOT_OK(patch(*next));
  return std::shared_ptr<const index::HubPointIndex>(std::move(next));
}

/// Runs `body` inside `store`'s journal bracket: a durable store
/// buffers the list writes `body` makes, makes record + images durable
/// in CommitUpdate (the acknowledgement gate) and only then touches the
/// file; AbortUpdate drops the buffered writes whole when `body` or the
/// commit fails. Plain stores treat the bracket as no-ops. Without a
/// store `body` runs alone.
template <typename Body>
Status Journaled(KnnStore* store, const UpdateDescriptor& desc,
                 UpdateStats* stats, Body&& body) {
  if (store == nullptr) {
    return body();
  }
  GRNN_RETURN_NOT_OK(store->BeginUpdate(desc));
  Status done = body();
  if (done.ok()) {
    done = store->CommitUpdate(stats);
  }
  if (!done.ok()) {
    store->AbortUpdate();
  }
  return done;
}

}  // namespace

/// Mutable serving state shared by every thread using the engine.
struct RknnEngine::State {
  /// Reader-writer locks of the three concurrency domains. Declared
  /// first: conceptually they guard the *sources*, everything below
  /// guards engine-internal bookkeeping.
  std::shared_mutex domain_mu[kNumDomains];
  /// Lock mode's derived hub-label point indices (Algorithm::kHubLabel),
  /// one per point population (snapshot mode versions them in
  /// serve::WorldVersion instead). Every update replaces its domain's
  /// slot with a patched clone inside its exclusive section; queries
  /// read them under their shared domain locks.
  HubIndexPtr hub_points;
  HubIndexPtr hub_sites;
  HubIndexPtr hub_edge;
  /// Guards the idle-workspace pool. The pool is FIFO: successive
  /// acquisitions rotate through every pooled workspace, so repeated
  /// calls warm all of them toward the workload's high-water mark
  /// instead of hammering one lucky workspace.
  std::mutex ws_mu;
  std::deque<std::unique_ptr<SearchWorkspace>> idle_ws;
  /// Guards the lifetime counters.
  mutable std::mutex stats_mu;
  EngineStats lifetime;

  // --- Serving layer (EngineSources::snapshot_reads only) ---
  /// Reclaims retired world versions once their epoch drains.
  serve::EpochManager epochs;
  /// Guards publication: `current_holder` and the `current` swap. Brief
  /// and writer-side only — the read path never touches it.
  mutable std::mutex publish_mu;
  /// Owning reference to the published version (retired predecessors
  /// live in the epoch manager's limbo until their readers drain).
  std::shared_ptr<const serve::WorldVersion> current_holder;
  /// The published pointer the read path loads after pinning an epoch.
  std::atomic<const serve::WorldVersion*> current{nullptr};

  // --- Telemetry (src/obs/, EngineSources::metrics / ::trace) ---
  /// Dispatch sequence for the 1-in-N trace sampling policy.
  std::atomic<uint64_t> dispatch_seq{0};
  /// Queries that ran with tracing armed (sampled or caller-provided).
  std::atomic<uint64_t> traces_sampled{0};
  /// Traced queries that crossed the slow-query threshold.
  std::atomic<uint64_t> slow_queries{0};
  /// Bounded ring behind RknnEngine::DrainSlowQueries.
  obs::SlowQueryLog slow_log;
  /// Unowned registry + the collector registered on it at Create; the
  /// State destructor unregisters, so the collector (which captures
  /// this State) can never outlive it.
  obs::MetricsRegistry* metrics = nullptr;
  uint64_t collector_token = 0;

  ~State() {
    if (metrics != nullptr && collector_token != 0) {
      metrics->UnregisterCollector(collector_token);
    }
  }
};

/// See engine.h: the per-query view both read paths compile down to.
struct RknnEngine::QueryWorld {
  const NodePointSet* points = nullptr;
  const KnnStore* knn = nullptr;
  const NodePointSet* sites = nullptr;
  const KnnStore* site_knn = nullptr;
  const EdgePointSet* edge_points = nullptr;
  const EdgePointReader* edge_reader = nullptr;
  const index::HubPointIndex* hub_points = nullptr;
  const index::HubPointIndex* hub_sites = nullptr;
  const index::HubPointIndex* hub_edge = nullptr;
};

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kMonochromatic:
      return "monochromatic";
    case QueryKind::kBichromatic:
      return "bichromatic";
    case QueryKind::kContinuous:
      return "continuous";
    case QueryKind::kUnrestricted:
      return "unrestricted";
  }
  return "unknown";
}

const char* UpdateSetName(UpdateSet set) {
  switch (set) {
    case UpdateSet::kPoints:
      return "points";
    case UpdateSet::kSites:
      return "sites";
    case UpdateSet::kEdgePoints:
      return "edge_points";
  }
  return "unknown";
}

UpdateSpec UpdateSpec::InsertPoint(NodeId node) {
  UpdateSpec spec;
  spec.op = Op::kInsert;
  spec.set = UpdateSet::kPoints;
  spec.node = node;
  return spec;
}

UpdateSpec UpdateSpec::InsertSite(NodeId node) {
  UpdateSpec spec;
  spec.op = Op::kInsert;
  spec.set = UpdateSet::kSites;
  spec.node = node;
  return spec;
}

UpdateSpec UpdateSpec::InsertEdgePoint(EdgePosition position) {
  UpdateSpec spec;
  spec.op = Op::kInsert;
  spec.set = UpdateSet::kEdgePoints;
  spec.position = position;
  return spec;
}

UpdateSpec UpdateSpec::DeletePoint(PointId point) {
  UpdateSpec spec;
  spec.op = Op::kDelete;
  spec.set = UpdateSet::kPoints;
  spec.point = point;
  return spec;
}

UpdateSpec UpdateSpec::DeleteSite(PointId point) {
  UpdateSpec spec;
  spec.op = Op::kDelete;
  spec.set = UpdateSet::kSites;
  spec.point = point;
  return spec;
}

UpdateSpec UpdateSpec::DeleteEdgePoint(PointId point) {
  UpdateSpec spec;
  spec.op = Op::kDelete;
  spec.set = UpdateSet::kEdgePoints;
  spec.point = point;
  return spec;
}

QuerySpec QuerySpec::Monochromatic(Algorithm a, NodeId node, int k,
                                   PointId exclude) {
  QuerySpec spec;
  spec.kind = QueryKind::kMonochromatic;
  spec.algorithm = a;
  spec.k = k;
  spec.exclude_point = exclude;
  spec.query_nodes = {node};
  return spec;
}

QuerySpec QuerySpec::Bichromatic(Algorithm a, NodeId node, int k,
                                 PointId exclude) {
  QuerySpec spec;
  spec.kind = QueryKind::kBichromatic;
  spec.algorithm = a;
  spec.k = k;
  spec.exclude_point = exclude;
  spec.query_nodes = {node};
  return spec;
}

QuerySpec QuerySpec::Continuous(Algorithm a, std::vector<NodeId> route,
                                int k, PointId exclude) {
  QuerySpec spec;
  spec.kind = QueryKind::kContinuous;
  spec.algorithm = a;
  spec.k = k;
  spec.exclude_point = exclude;
  spec.query_nodes = std::move(route);
  return spec;
}

QuerySpec QuerySpec::Unrestricted(Algorithm a, EdgePosition pos, int k,
                                  PointId exclude) {
  QuerySpec spec;
  spec.kind = QueryKind::kUnrestricted;
  spec.algorithm = a;
  spec.k = k;
  spec.exclude_point = exclude;
  spec.position = pos;
  return spec;
}

RknnEngine::RknnEngine(RknnEngine&&) noexcept = default;
RknnEngine& RknnEngine::operator=(RknnEngine&&) noexcept = default;
RknnEngine::~RknnEngine() = default;

RknnEngine::RknnEngine(const EngineSources& sources)
    : src_(sources), state_(std::make_unique<State>()) {
  if (src_.edge_points != nullptr && src_.edge_reader == nullptr) {
    owned_reader_ =
        std::make_unique<MemoryEdgePointReader>(src_.edge_points);
  }
}

std::unique_ptr<SearchWorkspace> RknnEngine::AcquireWorkspace() {
  {
    std::lock_guard<std::mutex> lock(state_->ws_mu);
    if (!state_->idle_ws.empty()) {
      auto ws = std::move(state_->idle_ws.front());
      state_->idle_ws.pop_front();
      return ws;
    }
  }
  return std::make_unique<SearchWorkspace>();
}

void RknnEngine::ReleaseWorkspace(std::unique_ptr<SearchWorkspace> ws) {
  std::lock_guard<std::mutex> lock(state_->ws_mu);
  state_->idle_ws.push_back(std::move(ws));
}

size_t RknnEngine::num_pooled_workspaces() const {
  std::lock_guard<std::mutex> lock(state_->ws_mu);
  return state_->idle_ws.size();
}

EngineStats RknnEngine::lifetime_stats() const {
  std::lock_guard<std::mutex> lock(state_->stats_mu);
  return state_->lifetime;
}

Result<RknnEngine> RknnEngine::Create(const EngineSources& sources) {
  if (sources.graph == nullptr) {
    return Status::InvalidArgument("engine requires a graph");
  }
  if (sources.points == nullptr && sources.edge_points == nullptr) {
    return Status::InvalidArgument(
        "engine requires at least one data-point source");
  }
  if (sources.edge_reader != nullptr && sources.edge_points == nullptr) {
    return Status::InvalidArgument(
        "an edge reader without edge points is meaningless");
  }
  // Update sinks must alias the read-only sources: queries and updates
  // have to observe the same objects for the domain locks to mean
  // anything.
  const UpdateSinks& up = sources.updates;
  if (up.points != nullptr && up.points != sources.points) {
    return Status::InvalidArgument(
        "updates.points must alias sources.points");
  }
  if (up.sites != nullptr && up.sites != sources.sites) {
    return Status::InvalidArgument(
        "updates.sites must alias sources.sites");
  }
  if (up.edge_points != nullptr &&
      up.edge_points != sources.edge_points) {
    return Status::InvalidArgument(
        "updates.edge_points must alias sources.edge_points");
  }
  if (up.knn != nullptr && up.knn != sources.knn) {
    return Status::InvalidArgument("updates.knn must alias sources.knn");
  }
  if (up.site_knn != nullptr && up.site_knn != sources.site_knn) {
    return Status::InvalidArgument(
        "updates.site_knn must alias sources.site_knn");
  }
  // A maintained `knn` is rewritten under the updating population's
  // domain lock, so every reader of `knn` must live in that same
  // domain: an engine serving BOTH node and edge points cannot have an
  // updatable knn (monochromatic eager-M reads it under the points
  // lock, unrestricted eager-M under the edge lock — split the engine).
  if (up.knn != nullptr && sources.points != nullptr &&
      sources.edge_points != nullptr) {
    return Status::InvalidArgument(
        "updates.knn is unsafe when the engine serves both node and "
        "edge points (its readers span two lock domains); split the "
        "engine");
  }
  // Conversely, an updatable population whose store the engine serves
  // queries from MUST maintain that store — otherwise every update
  // silently leaves eager-M reading stale lists. (On a dual-population
  // engine this combines with the check above to reject updatable
  // points outright when a store is present: split the engine.)
  if (up.points != nullptr && sources.knn != nullptr &&
      up.knn == nullptr) {
    return Status::InvalidArgument(
        "updates.points without updates.knn would leave the engine's "
        "materialized store stale");
  }
  if (up.edge_points != nullptr && sources.knn != nullptr &&
      up.knn == nullptr) {
    return Status::InvalidArgument(
        "updates.edge_points without updates.knn would leave the "
        "engine's materialized store stale");
  }
  if (up.sites != nullptr && sources.site_knn != nullptr &&
      up.site_knn == nullptr) {
    return Status::InvalidArgument(
        "updates.sites without updates.site_knn would leave the "
        "engine's site store stale");
  }
  if (up.edge_points != nullptr && up.base_graph == nullptr) {
    return Status::InvalidArgument(
        "edge-point updates need updates.base_graph to validate "
        "positions");
  }
  if (up.edge_points != nullptr && sources.edge_reader != nullptr) {
    return Status::InvalidArgument(
        "edge-point updates require the engine's in-memory edge reader; "
        "a stored PointFile reader would not see inserted points");
  }
  if (sources.hub_labels != nullptr &&
      sources.hub_labels->num_nodes() != sources.graph->num_nodes()) {
    return Status::InvalidArgument(
        "hub-label index and graph cover different node counts");
  }
  if (sources.snapshot_reads) {
    // Snapshot serving copies the maintained store into every new
    // version; a stored KnnFile mutates shared pages in place and
    // cannot be captured that way (see EngineSources::snapshot_reads).
    if (up.knn != nullptr &&
        dynamic_cast<const MemoryKnnStore*>(sources.knn) == nullptr) {
      return Status::InvalidArgument(
          "snapshot reads require the maintained KNN store to be a "
          "MemoryKnnStore; stored KnnFiles cannot be versioned");
    }
    if (up.site_knn != nullptr &&
        dynamic_cast<const MemoryKnnStore*>(sources.site_knn) ==
            nullptr) {
      return Status::InvalidArgument(
          "snapshot reads require the maintained site KNN store to be "
          "a MemoryKnnStore; stored KnnFiles cannot be versioned");
    }
  }
  RknnEngine engine(sources);
  // The hub point indices (version 0's in snapshot mode) are derived
  // while the engine is still single-owner, so no domain locks are
  // needed.
  if (sources.snapshot_reads) {
    GRNN_RETURN_NOT_OK(engine.InitSnapshotWorld());
  } else {
    State& st = *engine.state_;
    GRNN_ASSIGN_OR_RETURN(st.hub_points,
                          BuildHubIndex(sources.hub_labels, sources.points));
    GRNN_ASSIGN_OR_RETURN(st.hub_sites,
                          BuildHubIndex(sources.hub_labels, sources.sites));
    GRNN_ASSIGN_OR_RETURN(
        st.hub_edge, BuildHubIndex(sources.hub_labels, sources.edge_points));
  }
  if (sources.metrics != nullptr) {
    // Bridge every engine-side stat struct into the registry via one
    // poll-at-snapshot collector (obs/metrics.h). The collector
    // captures State — which outlives it: ~State unregisters — plus a
    // copy of the sources (stable pointers by the EngineSources
    // lifetime contract), so it stays valid across engine moves.
    State* st = engine.state_.get();
    st->metrics = sources.metrics;
    const EngineSources src = sources;
    st->collector_token = sources.metrics->RegisterCollector(
        [st, src](obs::MetricsSnapshot& snap) {
          EngineStats life;
          {
            std::lock_guard<std::mutex> lock(st->stats_mu);
            life = st->lifetime;
          }
          snap.SetCounter("engine.queries", life.queries);
          snap.SetCounter("engine.updates", life.updates);
          snap.SetCounter("engine.workspace_grows", life.workspace_grows);
          const SearchStats& s = life.search;
          snap.SetCounter("engine.search.nodes_expanded", s.nodes_expanded);
          snap.SetCounter("engine.search.nodes_scanned", s.nodes_scanned);
          snap.SetCounter("engine.search.nodes_pruned", s.nodes_pruned);
          snap.SetCounter("engine.search.range_nn_calls", s.range_nn_calls);
          snap.SetCounter("engine.search.verify_calls", s.verify_calls);
          snap.SetCounter("engine.search.knn_list_reads", s.knn_list_reads);
          snap.SetCounter("engine.search.heap_pushes", s.heap_pushes);
          snap.SetCounter("engine.search.shortcut_accepts",
                          s.shortcut_accepts);
          snap.SetCounter("engine.search.label_entries", s.label_entries);
          snap.SetCounter("engine.io.logical_reads", life.io.logical_reads);
          snap.SetCounter("engine.io.physical_reads",
                          life.io.physical_reads);
          snap.SetCounter("engine.io.physical_writes",
                          life.io.physical_writes);
          snap.SetCounter("engine.io.evictions", life.io.evictions);
          const UpdateStats& u = life.update;
          snap.SetCounter("engine.update.nodes_touched", u.nodes_touched);
          snap.SetCounter("engine.update.lists_written", u.lists_written);
          snap.SetCounter("engine.update.heap_pushes", u.heap_pushes);
          snap.SetCounter("engine.update.border_nodes", u.border_nodes);
          snap.SetCounter("engine.update.log_records", u.log_records);
          snap.SetCounter("engine.update.log_flushes", u.log_flushes);
          snap.SetCounter("engine.update.log_bytes", u.log_bytes);
          const serve::EpochStats es = st->epochs.stats();
          snap.SetCounter("engine.epoch.pins", es.pins);
          snap.SetCounter("engine.epoch.pin_retries", es.pin_retries);
          snap.SetCounter("engine.epoch.retired", es.retired);
          snap.SetCounter("engine.epoch.reclaimed", es.reclaimed);
          snap.SetGauge("engine.epoch.limbo",
                        static_cast<int64_t>(es.limbo));
          snap.SetGauge("engine.epoch.epoch",
                        static_cast<int64_t>(es.epoch));
          snap.SetCounter(
              "engine.trace.sampled",
              st->traces_sampled.load(std::memory_order_relaxed));
          snap.SetCounter(
              "engine.trace.slow_queries",
              st->slow_queries.load(std::memory_order_relaxed));
          snap.SetCounter("engine.trace.slow_dropped",
                          st->slow_log.dropped());
          if (src.pool != nullptr) {
            const storage::IoStats total = src.pool->stats();
            snap.SetCounter("pool.logical_reads", total.logical_reads);
            snap.SetCounter("pool.physical_reads", total.physical_reads);
            snap.SetCounter("pool.physical_writes", total.physical_writes);
            snap.SetCounter("pool.evictions", total.evictions);
            snap.SetGauge("pool.pinned_pages",
                          static_cast<int64_t>(src.pool->num_pinned()));
            for (size_t i = 0; i < src.pool->num_shards(); ++i) {
              const storage::IoStats sh = src.pool->shard_stats(i);
              snap.SetCounter(StrPrintf("pool.shard%zu.logical_reads", i),
                              sh.logical_reads);
              snap.SetCounter(StrPrintf("pool.shard%zu.physical_reads", i),
                              sh.physical_reads);
              snap.SetCounter(
                  StrPrintf("pool.shard%zu.physical_writes", i),
                  sh.physical_writes);
              snap.SetCounter(StrPrintf("pool.shard%zu.evictions", i),
                              sh.evictions);
            }
            if (src.pool->wal() != nullptr) {
              const storage::WalStats w = src.pool->wal()->stats();
              snap.SetCounter("wal.records_appended", w.records_appended);
              snap.SetCounter("wal.bytes_appended", w.bytes_appended);
              snap.SetCounter("wal.flushes", w.flushes);
              snap.SetCounter("wal.pages_written", w.pages_written);
              snap.SetCounter("wal.syncs", w.syncs);
              snap.SetCounter("wal.checkpoints", w.checkpoints);
            }
          }
        });
  }
  return engine;
}

Status RknnEngine::InitSnapshotWorld() {
  auto v = std::make_shared<serve::WorldVersion>();
  v->seq = 0;
  const UpdateSinks& up = src_.updates;
  // Updatable domains get private copies (successor versions chain off
  // them); everything read-only aliases the caller's objects unowned.
  if (src_.points != nullptr) {
    v->points = up.points != nullptr
                    ? std::shared_ptr<const NodePointSet>(
                          std::make_shared<NodePointSet>(*src_.points))
                    : serve::UnownedShared(src_.points);
  }
  if (src_.knn != nullptr) {
    v->knn = up.knn != nullptr
                 ? std::shared_ptr<const KnnStore>(
                       std::make_shared<MemoryKnnStore>(
                           *static_cast<const MemoryKnnStore*>(src_.knn)))
                 : serve::UnownedShared(src_.knn);
  }
  if (src_.sites != nullptr) {
    v->sites = up.sites != nullptr
                   ? std::shared_ptr<const NodePointSet>(
                         std::make_shared<NodePointSet>(*src_.sites))
                   : serve::UnownedShared(src_.sites);
  }
  if (src_.site_knn != nullptr) {
    v->site_knn =
        up.site_knn != nullptr
            ? std::shared_ptr<const KnnStore>(
                  std::make_shared<MemoryKnnStore>(
                      *static_cast<const MemoryKnnStore*>(src_.site_knn)))
            : serve::UnownedShared(src_.site_knn);
  }
  if (src_.edge_points != nullptr) {
    if (up.edge_points != nullptr) {
      auto set_copy = std::make_shared<EdgePointSet>(*src_.edge_points);
      v->edge_reader =
          std::make_shared<MemoryEdgePointReader>(set_copy.get());
      v->edge_points = std::move(set_copy);
    } else {
      v->edge_points = serve::UnownedShared(src_.edge_points);
      v->edge_reader = serve::UnownedShared(edge_reader());
    }
  }
  GRNN_ASSIGN_OR_RETURN(v->hub_points,
                        BuildHubIndex(src_.hub_labels, v->points.get()));
  GRNN_ASSIGN_OR_RETURN(v->hub_sites,
                        BuildHubIndex(src_.hub_labels, v->sites.get()));
  GRNN_ASSIGN_OR_RETURN(
      v->hub_edge_points,
      BuildHubIndex(src_.hub_labels, v->edge_points.get()));
  std::lock_guard<std::mutex> lock(state_->publish_mu);
  state_->current_holder = v;
  state_->current.store(v.get(), std::memory_order_seq_cst);
  return Status::OK();
}

std::shared_ptr<const serve::WorldVersion> RknnEngine::CurrentVersion()
    const {
  std::lock_guard<std::mutex> lock(state_->publish_mu);
  return state_->current_holder;
}

void RknnEngine::PublishVersion(
    const std::function<void(serve::WorldVersion&)>& mutate) {
  std::shared_ptr<const serve::WorldVersion> old;
  {
    std::lock_guard<std::mutex> lock(state_->publish_mu);
    // Chain off the LATEST version: the caller's domain cannot have
    // moved (it holds that domain's exclusive lock), and this picks up
    // whatever other-domain publications happened since it sampled.
    auto next =
        std::make_shared<serve::WorldVersion>(*state_->current_holder);
    next->seq++;
    mutate(*next);
    old = std::move(state_->current_holder);
    state_->current_holder = next;
    state_->current.store(next.get(), std::memory_order_seq_cst);
  }
  // Unpublished first, retired second: no new reader can acquire `old`,
  // so its epoch tag bounds every reader still using it.
  // (Traced only when an armed trace is live on this thread; null
  // otherwise.)
  obs::ScopedSpan span(obs::CurrentTrace(), "epoch.retire");
  state_->epochs.Retire(std::move(old));
}

serve::EpochStats RknnEngine::epoch_stats() const {
  return state_->epochs.stats();
}

size_t RknnEngine::ReclaimVersions() {
  if (!src_.snapshot_reads) {
    return 0;
  }
  return state_->epochs.Reclaim();
}

uint64_t RknnEngine::world_seq() const {
  if (!src_.snapshot_reads) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(state_->publish_mu);
  return state_->current_holder->seq;
}

std::vector<obs::SlowQuery> RknnEngine::DrainSlowQueries() {
  return state_->slow_log.Drain();
}

Result<RknnResult> RknnEngine::RunMonochromatic(const QuerySpec& spec,
                                                const QueryWorld& world,
                                                SearchWorkspace& ws) {
  if (world.points == nullptr) {
    return Status::FailedPrecondition(
        "engine has no node point set; monochromatic/continuous queries "
        "are unavailable");
  }
  if (spec.kind == QueryKind::kMonochromatic &&
      spec.query_nodes.size() != 1) {
    return Status::InvalidArgument(StrPrintf(
        "monochromatic query takes exactly one node, got %zu",
        spec.query_nodes.size()));
  }
  const RknnOptions options = spec.options();
  const std::span<const NodeId> nodes(spec.query_nodes);
  switch (spec.algorithm) {
    case Algorithm::kEager:
      return EagerRknn(*src_.graph, *world.points, nodes, options, ws);
    case Algorithm::kLazy:
      return LazyRknn(*src_.graph, *world.points, nodes, options, ws);
    case Algorithm::kLazyEp:
      return LazyEpRknn(*src_.graph, *world.points, nodes, options, ws);
    case Algorithm::kEagerM:
      if (world.knn == nullptr) {
        return Status::FailedPrecondition(
            "eager-M requires the engine to own a materialized KNN store");
      }
      return EagerMRknn(*src_.graph, *world.points, world.knn, nodes,
                        options, ws);
    case Algorithm::kBruteForce:
      return BruteForceRknn(*src_.graph, *world.points, nodes, options);
    case Algorithm::kHubLabel: {
      // Continuous routes ride the same primitive: RknnViaLabels takes
      // the query distance as the min over `nodes`, which for a route
      // IS the Section 5.1 continuous semantics.
      if (src_.hub_labels == nullptr) {
        return Status::FailedPrecondition(
            "hub-label queries need EngineSources::hub_labels");
      }
      return index::RknnViaLabels(*src_.hub_labels, *world.hub_points,
                                  *world.hub_points, nodes, options,
                                  ws.labels);
    }
  }
  return Status::InvalidArgument("unknown algorithm");
}

Result<RknnResult> RknnEngine::RunBichromatic(const QuerySpec& spec,
                                              const QueryWorld& world,
                                              SearchWorkspace& ws) {
  if (world.points == nullptr || world.sites == nullptr) {
    return Status::FailedPrecondition(
        "bichromatic queries need both a data point set (P) and a site "
        "set (Q)");
  }
  const RknnOptions options = spec.options();
  const std::span<const NodeId> nodes(spec.query_nodes);
  switch (spec.algorithm) {
    case Algorithm::kEager:
      return BichromaticRknn(*src_.graph, *world.points, *world.sites,
                             nodes, options, ws);
    case Algorithm::kLazy:
    case Algorithm::kLazyEp:
      // Lazy and lazy-EP coincide in the bichromatic reduction (see
      // bichromatic.h).
      return BichromaticLazyRknn(*src_.graph, *world.points,
                                 *world.sites, nodes, options, ws);
    case Algorithm::kEagerM:
      if (world.site_knn == nullptr) {
        return Status::FailedPrecondition(
            "bichromatic eager-M requires a KNN store materialized over "
            "the sites");
      }
      return BichromaticRknnMaterialized(*src_.graph, *world.points,
                                         *world.sites, world.site_knn,
                                         nodes, options, ws);
    case Algorithm::kBruteForce:
      return BruteForceBichromaticRknn(*src_.graph, *world.points,
                                       *world.sites, nodes, options);
    case Algorithm::kHubLabel: {
      if (src_.hub_labels == nullptr) {
        return Status::FailedPrecondition(
            "hub-label queries need EngineSources::hub_labels");
      }
      return index::RknnViaLabels(*src_.hub_labels, *world.hub_points,
                                  *world.hub_sites, nodes, options,
                                  ws.labels);
    }
  }
  return Status::InvalidArgument("unknown algorithm");
}

Result<RknnResult> RknnEngine::RunContinuous(const QuerySpec& spec,
                                             const QueryWorld& world,
                                             SearchWorkspace& ws) {
  // Engines over node points answer routes with the restricted
  // machinery; engines over edge points answer them as unrestricted
  // route queries (both are Section 5.1 + 5.2 semantics).
  if (world.points != nullptr) {
    return RunMonochromatic(spec, world, ws);
  }
  UnrestrictedQuery query;
  query.is_position = false;
  query.route = spec.query_nodes;
  return RunUnrestricted(spec, query, world, ws);
}

Result<RknnResult> RknnEngine::RunUnrestricted(
    const QuerySpec& spec, const UnrestrictedQuery& query,
    const QueryWorld& world, SearchWorkspace& ws) {
  if (world.edge_points == nullptr) {
    return Status::FailedPrecondition(
        "engine has no edge point set; unrestricted queries are "
        "unavailable");
  }
  const RknnOptions options = spec.options();
  const EdgePointReader& reader = *world.edge_reader;
  switch (spec.algorithm) {
    case Algorithm::kEager:
      return UnrestrictedEagerRknn(*src_.graph, *world.edge_points,
                                   reader, query, options, ws);
    case Algorithm::kLazy:
      return UnrestrictedLazyRknn(*src_.graph, *world.edge_points,
                                  reader, query, options, ws);
    case Algorithm::kLazyEp:
      return UnrestrictedLazyEpRknn(*src_.graph, *world.edge_points,
                                    reader, query, options, ws);
    case Algorithm::kEagerM:
      if (world.knn == nullptr) {
        return Status::FailedPrecondition(
            "unrestricted eager-M requires a KNN store materialized over "
            "the edge points");
      }
      return UnrestrictedEagerMRknn(*src_.graph, *world.edge_points,
                                    reader, world.knn, query, options,
                                    ws);
    case Algorithm::kBruteForce:
      return UnrestrictedBruteForceRknn(*src_.graph, *world.edge_points,
                                        query, options);
    case Algorithm::kHubLabel: {
      if (src_.hub_labels == nullptr) {
        return Status::FailedPrecondition(
            "hub-label queries need EngineSources::hub_labels");
      }
      return index::UnrestrictedRknnViaLabels(
          *src_.hub_labels, *src_.graph, *world.edge_points,
          *world.hub_edge, query, options, ws.labels, ws.nbr_cursor);
    }
  }
  return Status::InvalidArgument("unknown algorithm");
}

Result<RknnResult> RknnEngine::RunSpec(const QuerySpec& spec,
                                       const QueryWorld& world,
                                       SearchWorkspace& ws) {
  switch (spec.kind) {
    case QueryKind::kMonochromatic:
      return RunMonochromatic(spec, world, ws);
    case QueryKind::kBichromatic:
      return RunBichromatic(spec, world, ws);
    case QueryKind::kContinuous:
      return RunContinuous(spec, world, ws);
    case QueryKind::kUnrestricted: {
      UnrestrictedQuery query;
      query.is_position = true;
      query.position = spec.position;
      return RunUnrestricted(spec, query, world, ws);
    }
  }
  return Status::InvalidArgument("unknown query kind");
}

Result<RknnResult> RknnEngine::Dispatch(const QuerySpec& spec,
                                        SearchWorkspace& ws) {
  if (spec.k <= 0) {
    return Status::InvalidArgument("k must be positive");
  }
  // Arm tracing: an explicit caller context always traces; otherwise
  // the 1-in-N sampling policy may pick the pooled workspace arena.
  // The disarmed path adds exactly this null check + (with sampling
  // configured) one relaxed fetch_add — the <2% overhead contract of
  // telemetry_engine_test.
  obs::TraceContext* trace = spec.trace;
  if (trace == nullptr && src_.trace.sample_every > 0 &&
      state_->dispatch_seq.fetch_add(1, std::memory_order_relaxed) %
              src_.trace.sample_every ==
          0) {
    trace = &ws.trace;
  }
  if (trace == nullptr) {
    return DispatchBody(spec, ws, nullptr);
  }
  trace->Begin();
  state_->traces_sampled.fetch_add(1, std::memory_order_relaxed);
  Result<RknnResult> result = Status::Internal("query did not run");
  {
    // Publish the context thread-locally so deep subsystems (hub-label
    // sweep/verify, label scans, buffer-pool pins, Dijkstra) attach
    // child spans without signature changes; the root span closes on
    // every exit path of this block, error returns included.
    obs::TraceArm arm(trace);
    obs::ScopedSpan root(trace, "query");
    root.Note("k", static_cast<uint64_t>(spec.k));
    result = DispatchBody(spec, ws, trace);
    if (result.ok()) {
      root.Note("results", result->results.size());
      root.Note("nodes_expanded", result->stats.nodes_expanded);
      root.Note("label_entries", result->stats.label_entries);
      root.Note("verify_calls", result->stats.verify_calls);
    }
  }
  const uint64_t total_micros = trace->ElapsedNanos() / 1000;
  if (src_.trace.slow_query_micros > 0 &&
      total_micros >= src_.trace.slow_query_micros) {
    state_->slow_queries.fetch_add(1, std::memory_order_relaxed);
    obs::SlowQuery slow;
    slow.label = StrPrintf("%s/%s k=%d", QueryKindName(spec.kind),
                           AlgorithmName(spec.algorithm), spec.k);
    slow.total_micros = total_micros;
    slow.ok = result.ok();
    if (!result.ok()) {
      slow.error = result.status().ToString();
    }
    slow.spans = trace->spans();
    slow.dropped_spans = trace->dropped_spans();
    state_->slow_log.Push(std::move(slow), src_.trace.slow_ring_capacity);
  }
  return result;
}

Result<RknnResult> RknnEngine::DispatchBody(const QuerySpec& spec,
                                            SearchWorkspace& ws,
                                            obs::TraceContext* trace) {
  if (src_.snapshot_reads) {
    // Serving-layer read path: pin an epoch, load the published
    // version, run lock-free against it. The pin keeps the version
    // alive (its retire epoch cannot drain) until the query returns;
    // no domain lock is taken, so this never blocks on a writer.
    const int32_t pin_span =
        trace != nullptr ? trace->Open("epoch.pin") : -1;
    serve::EpochManager::Guard guard = state_->epochs.Pin();
    if (trace != nullptr) {
      trace->Close(pin_span);
    }
    const serve::WorldVersion* v =
        state_->current.load(std::memory_order_seq_cst);
    QueryWorld world;
    world.points = v->points.get();
    world.knn = v->knn.get();
    world.sites = v->sites.get();
    world.site_knn = v->site_knn.get();
    world.edge_points = v->edge_points.get();
    world.edge_reader = v->edge_reader.get();
    world.hub_points = v->hub_points.get();
    world.hub_sites = v->hub_sites.get();
    world.hub_edge = v->hub_edge_points.get();
    return RunSpec(spec, world, ws);
  }
  // Lock-mode read path: shared access on every domain this kind reads,
  // acquired in domain index order (multi-domain readers use the same
  // order, updates take a single lock: no deadlock cycle is possible).
  // Readers of one domain proceed concurrently with each other and with
  // updates of the others.
  std::shared_lock<std::shared_mutex> points_lock;
  std::shared_lock<std::shared_mutex> sites_lock;
  std::shared_lock<std::shared_mutex> edge_lock;
  switch (spec.kind) {
    case QueryKind::kMonochromatic:
      points_lock =
          std::shared_lock(state_->domain_mu[kDomainPoints]);
      break;
    case QueryKind::kBichromatic:
      points_lock =
          std::shared_lock(state_->domain_mu[kDomainPoints]);
      sites_lock = std::shared_lock(state_->domain_mu[kDomainSites]);
      break;
    case QueryKind::kContinuous:
      // Routes dispatch on the engine's sources (see RunContinuous).
      if (src_.points != nullptr) {
        points_lock =
            std::shared_lock(state_->domain_mu[kDomainPoints]);
      } else {
        edge_lock = std::shared_lock(state_->domain_mu[kDomainEdge]);
      }
      break;
    case QueryKind::kUnrestricted:
      edge_lock = std::shared_lock(state_->domain_mu[kDomainEdge]);
      break;
  }
  QueryWorld world;
  world.points = src_.points;
  world.knn = src_.knn;
  world.sites = src_.sites;
  world.site_knn = src_.site_knn;
  world.edge_points = src_.edge_points;
  world.edge_reader = edge_reader();
  // Updates replace a domain's hub index slot under its exclusive
  // lock, so a query may only read the index of a domain whose shared
  // lock it holds (the unheld ones stay null — no Run* body reads an
  // index outside its kind's domains anyway).
  if (points_lock.owns_lock()) {
    world.hub_points = state_->hub_points.get();
  }
  if (sites_lock.owns_lock()) {
    world.hub_sites = state_->hub_sites.get();
  }
  if (edge_lock.owns_lock()) {
    world.hub_edge = state_->hub_edge.get();
  }
  return RunSpec(spec, world, ws);
}

Result<RknnResult> RknnEngine::Run(const QuerySpec& spec) {
  std::unique_ptr<SearchWorkspace> ws = AcquireWorkspace();
  const size_t footprint = ws->CapacityFootprint();
  const storage::IoStats io_before =
      src_.pool != nullptr ? src_.pool->stats() : storage::IoStats{};
  Result<RknnResult> result = Dispatch(spec, *ws);
  const bool grew = ws->CapacityFootprint() > footprint;
  ReleaseWorkspace(std::move(ws));
  if (!result.ok()) {
    return result;
  }
  std::lock_guard<std::mutex> lock(state_->stats_mu);
  state_->lifetime.queries++;
  state_->lifetime.search += result->stats;
  if (src_.pool != nullptr) {
    // Pool-wide delta: with concurrent callers this attribution is
    // approximate (it may include their faults).
    state_->lifetime.io += src_.pool->stats() - io_before;
  }
  state_->lifetime.workspace_grows += grew ? 1 : 0;
  return result;
}

Result<RknnEngine::UpdateResult> RknnEngine::ApplyNodeUpdate(
    const UpdateSpec& spec, NodePointSet& set, KnnStore* store,
    HubIndexPtr& hub) {
  UpdateResult out;
  UpdateDescriptor desc;
  desc.domain = static_cast<uint32_t>(spec.set);
  if (spec.op == UpdateSpec::Op::kInsert) {
    GRNN_ASSIGN_OR_RETURN(out.point, set.AddPoint(spec.node));
    desc.op = UpdateDescriptor::Op::kInsertPoint;
    desc.node = spec.node;
    desc.point = out.point;
    // The patch runs inside the journal bracket: the rollback below
    // burns the point id, so a failed patch must abort the store's
    // update like failed maintenance does.
    HubIndexPtr patched;
    Status done = Journaled(store, desc, &out.stats, [&]() -> Status {
      GRNN_ASSIGN_OR_RETURN(
          patched, PatchedClone(hub, [&](index::HubPointIndex& idx) {
            return idx.InsertPoint(*src_.hub_labels, out.point, spec.node);
          }));
      return store == nullptr ? Status::OK()
                              : MaterializedInsert(*src_.graph, set,
                                                   spec.node, store,
                                                   &out.stats);
    });
    if (!done.ok()) {
      // The point leaves the set again and the patched clone is
      // dropped; a plain store may keep a partial write (see the
      // ApplyUpdate failure-atomicity contract).
      (void)set.RemovePoint(out.point);
      return done;
    }
    hub = std::move(patched);
    return out;
  }
  // A delete tombstones the point, which forgets its host node: capture
  // it for the patch and the journal first.
  const NodeId host = set.NodeOf(spec.point);
  if (host == kInvalidNode) {
    return Status::NotFound(StrPrintf(
        "point %u is not live in the %s set", spec.point,
        UpdateSetName(spec.set)));
  }
  GRNN_ASSIGN_OR_RETURN(HubIndexPtr patched,
                        PatchedClone(hub, [&](index::HubPointIndex& idx) {
                          return idx.ErasePoint(*src_.hub_labels,
                                                spec.point, host);
                        }));
  desc.op = UpdateDescriptor::Op::kDeletePoint;
  desc.node = host;
  desc.point = spec.point;
  auto remove = [&]() -> Status {
    GRNN_RETURN_NOT_OK(set.RemovePoint(spec.point));
    // The index follows the set at once, so a failing maintenance or
    // commit below cannot leave the deleted point in it.
    hub = std::move(patched);
    return store == nullptr ? Status::OK()
                            : MaterializedDelete(*src_.graph, set,
                                                 spec.point, host, store,
                                                 &out.stats);
  };
  GRNN_RETURN_NOT_OK(Journaled(store, desc, &out.stats, remove));
  out.point = spec.point;
  return out;
}

Result<RknnEngine::UpdateResult> RknnEngine::ApplyEdgeUpdate(
    const UpdateSpec& spec, EdgePointSet& set, KnnStore* store,
    HubIndexPtr& hub) {
  UpdateResult out;
  UpdateDescriptor desc;
  desc.domain = static_cast<uint32_t>(spec.set);
  if (spec.op == UpdateSpec::Op::kInsert) {
    GRNN_ASSIGN_OR_RETURN(
        out.point, set.AddPoint(*src_.updates.base_graph, spec.position));
    desc.op = UpdateDescriptor::Op::kInsertEdgePoint;
    desc.point = out.point;
    desc.edge_u = spec.position.u;
    desc.edge_v = spec.position.v;
    desc.edge_offset = spec.position.pos;
    // The canonicalized position read back from the set makes the
    // spliced occurrences match a from-scratch Build bit for bit.
    HubIndexPtr patched;
    Status done = Journaled(store, desc, &out.stats, [&]() -> Status {
      GRNN_ASSIGN_OR_RETURN(
          patched, PatchedClone(hub, [&](index::HubPointIndex& idx) {
            return idx.InsertEdgePoint(*src_.hub_labels, out.point,
                                       set.PositionOf(out.point),
                                       set.EdgeWeightOfPoint(out.point));
          }));
      return store == nullptr
                 ? Status::OK()
                 : UnrestrictedMaterializedInsert(*src_.graph, set,
                                                  out.point, store,
                                                  &out.stats);
    });
    if (!done.ok()) {
      (void)set.RemovePoint(out.point);  // inside the bracket, as above
      return done;
    }
    hub = std::move(patched);
    return out;
  }
  if (!set.IsLive(spec.point)) {
    return Status::NotFound(StrPrintf(
        "point %u is not live in the edge point set", spec.point));
  }
  // A delete tombstones the point, which forgets its position: capture
  // it for the patch, the journal and the maintenance first.
  const EdgePosition old_pos = set.PositionOf(spec.point);
  const Weight old_weight = set.EdgeWeightOfPoint(spec.point);
  GRNN_ASSIGN_OR_RETURN(
      HubIndexPtr patched,
      PatchedClone(hub, [&](index::HubPointIndex& idx) {
        return idx.EraseEdgePoint(*src_.hub_labels, spec.point, old_pos,
                                  old_weight);
      }));
  desc.op = UpdateDescriptor::Op::kDeleteEdgePoint;
  desc.point = spec.point;
  desc.edge_u = old_pos.u;
  desc.edge_v = old_pos.v;
  desc.edge_offset = old_pos.pos;
  auto remove = [&]() -> Status {
    GRNN_RETURN_NOT_OK(set.RemovePoint(spec.point));
    hub = std::move(patched);  // the index follows the set at once
    return store == nullptr
               ? Status::OK()
               : UnrestrictedMaterializedDelete(*src_.graph, set,
                                                spec.point, old_pos,
                                                old_weight, store,
                                                &out.stats);
  };
  GRNN_RETURN_NOT_OK(Journaled(store, desc, &out.stats, remove));
  out.point = spec.point;
  return out;
}

Result<RknnEngine::UpdateResult> RknnEngine::SnapshotNodeUpdate(
    const UpdateSpec& spec) {
  const bool is_points = spec.set == UpdateSet::kPoints;
  // Exclusive writer lock of the domain: same-domain updates serialize
  // here, so the copies below always derive from the latest state of
  // this domain, and nothing else writes its slots in the successor.
  // Readers never take this lock in snapshot mode.
  std::unique_lock<std::shared_mutex> lock(
      state_->domain_mu[is_points ? kDomainPoints : kDomainSites]);
  std::shared_ptr<const serve::WorldVersion> base = CurrentVersion();
  auto set_copy = std::make_shared<NodePointSet>(
      is_points ? *base->points : *base->sites);
  // A present store in this domain is always a maintained MemoryKnnStore
  // here: Create rejects snapshot engines whose updatable store is
  // anything else, and an updatable set with an unmaintained store.
  std::shared_ptr<MemoryKnnStore> store_copy;
  const KnnStore* base_store =
      is_points ? base->knn.get() : base->site_knn.get();
  if (base_store != nullptr) {
    store_copy = std::make_shared<MemoryKnnStore>(
        *static_cast<const MemoryKnnStore*>(base_store));
  }
  HubIndexPtr hub = is_points ? base->hub_points : base->hub_sites;
  Result<UpdateResult> result =
      ApplyNodeUpdate(spec, *set_copy, store_copy.get(), hub);
  if (!result.ok()) {
    // Nothing published: the served world is untouched even by the
    // mid-maintenance failure cases of the lock-mode contract.
    return result;
  }
  PublishVersion([&](serve::WorldVersion& v) {
    if (is_points) {
      v.points = std::move(set_copy);
      v.knn = std::move(store_copy);
      v.hub_points = std::move(hub);
    } else {
      v.sites = std::move(set_copy);
      v.site_knn = std::move(store_copy);
      v.hub_sites = std::move(hub);
    }
  });
  return result;
}

Result<RknnEngine::UpdateResult> RknnEngine::SnapshotEdgeUpdate(
    const UpdateSpec& spec) {
  std::unique_lock<std::shared_mutex> lock(
      state_->domain_mu[kDomainEdge]);
  std::shared_ptr<const serve::WorldVersion> base = CurrentVersion();
  auto set_copy = std::make_shared<EdgePointSet>(*base->edge_points);
  std::shared_ptr<MemoryKnnStore> store_copy;
  if (base->knn != nullptr) {
    // On an edge engine with a store, updates maintain it (Create
    // enforces the coupling), so in snapshot mode it is memory-resident.
    store_copy = std::make_shared<MemoryKnnStore>(
        *static_cast<const MemoryKnnStore*>(base->knn.get()));
  }
  HubIndexPtr hub = base->hub_edge_points;
  Result<UpdateResult> result =
      ApplyEdgeUpdate(spec, *set_copy, store_copy.get(), hub);
  if (!result.ok()) {
    return result;
  }
  auto reader_copy =
      std::make_shared<MemoryEdgePointReader>(set_copy.get());
  PublishVersion([&](serve::WorldVersion& v) {
    // Reader and set travel together: the reader aliases the set it was
    // built over, and WorldVersion destroys the reader first.
    v.edge_points = std::move(set_copy);
    v.edge_reader = std::move(reader_copy);
    v.knn = std::move(store_copy);
    v.hub_edge_points = std::move(hub);
  });
  return result;
}

Result<RknnEngine::UpdateResult> RknnEngine::DispatchUpdate(
    const UpdateSpec& spec) {
  switch (spec.set) {
    case UpdateSet::kPoints: {
      if (src_.updates.points == nullptr) {
        return Status::FailedPrecondition(
            "engine has no mutable node point set "
            "(EngineSources::updates.points)");
      }
      if (src_.snapshot_reads) {
        return SnapshotNodeUpdate(spec);
      }
      std::unique_lock<std::shared_mutex> lock(
          state_->domain_mu[kDomainPoints]);
      return ApplyNodeUpdate(spec, *src_.updates.points, src_.updates.knn,
                             state_->hub_points);
    }
    case UpdateSet::kSites: {
      if (src_.updates.sites == nullptr) {
        return Status::FailedPrecondition(
            "engine has no mutable site set "
            "(EngineSources::updates.sites)");
      }
      if (src_.snapshot_reads) {
        return SnapshotNodeUpdate(spec);
      }
      std::unique_lock<std::shared_mutex> lock(
          state_->domain_mu[kDomainSites]);
      return ApplyNodeUpdate(spec, *src_.updates.sites,
                             src_.updates.site_knn, state_->hub_sites);
    }
    case UpdateSet::kEdgePoints: {
      if (src_.updates.edge_points == nullptr) {
        return Status::FailedPrecondition(
            "engine has no mutable edge point set "
            "(EngineSources::updates.edge_points)");
      }
      if (src_.snapshot_reads) {
        return SnapshotEdgeUpdate(spec);
      }
      std::unique_lock<std::shared_mutex> lock(
          state_->domain_mu[kDomainEdge]);
      // knn (when present) is the edge-point store: Create rejects an
      // updatable knn on an engine that also serves node points.
      return ApplyEdgeUpdate(spec, *src_.updates.edge_points,
                             src_.updates.knn, state_->hub_edge);
    }
  }
  return Status::InvalidArgument("unknown update set");
}

Result<RknnEngine::UpdateResult> RknnEngine::ApplyUpdate(
    const UpdateSpec& spec) {
  const storage::IoStats io_before =
      src_.pool != nullptr ? src_.pool->stats() : storage::IoStats{};
  Result<UpdateResult> result = DispatchUpdate(spec);
  if (!result.ok()) {
    return result;
  }
  std::lock_guard<std::mutex> lock(state_->stats_mu);
  state_->lifetime.updates++;
  state_->lifetime.update += result->stats;
  if (src_.pool != nullptr) {
    // Pool-wide delta: approximate under concurrent callers, as for Run.
    state_->lifetime.io += src_.pool->stats() - io_before;
  }
  return result;
}

}  // namespace grnn::core
