#include "core/engine.h"

#include <atomic>
#include <deque>
#include <mutex>
#include <optional>
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

}  // namespace

/// Mutable serving state shared by every thread using the engine.
struct RknnEngine::State {
  /// Reader-writer locks of the three concurrency domains. Declared
  /// first: conceptually they guard the *sources*, everything below
  /// guards engine-internal bookkeeping.
  std::shared_mutex domain_mu[kNumDomains];
  /// Derived hub-label point indices (Algorithm::kHubLabel), one per
  /// point population. Patched INCREMENTALLY by every update inside its
  /// exclusive domain section, rebuilt wholesale only by RebuildIndex
  /// (under exclusive locks of every indexed domain); read under the
  /// query's shared domain locks, so a patch or rebuild never races a
  /// reader of its index.
  std::unique_ptr<index::HubPointIndex> hub_points;
  std::unique_ptr<index::HubPointIndex> hub_sites;
  std::unique_ptr<index::HubPointIndex> hub_edge;
  /// Set only when an update could not patch its domain's index
  /// incrementally (structural failure, e.g. label-universe mismatch);
  /// while true, hub-label queries fall back to the eager expansion
  /// until RebuildIndex() re-derives the indices.
  std::atomic<bool> hub_stale{false};
  /// Guards the idle-workspace pool. The pool is FIFO: successive
  /// acquisitions rotate through every pooled workspace, so repeated
  /// batches warm all of them toward the workload's high-water mark
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
  /// Node-domain update generation. Lock-mode RebuildIndex uses it to
  /// detect updates racing its off-to-the-side index derivation.
  std::atomic<uint64_t> node_gen{0};

  // --- Telemetry (src/obs/, EngineSources::metrics / ::trace) ---
  /// Dispatch sequence for the 1-in-N trace sampling policy.
  std::atomic<uint64_t> dispatch_seq{0};
  /// Queries that ran with tracing armed (sampled or caller-provided).
  std::atomic<uint64_t> traces_sampled{0};
  /// Traced queries that crossed the slow-query threshold.
  std::atomic<uint64_t> slow_queries{0};
  /// Completed RebuildIndex() calls.
  std::atomic<uint64_t> hub_rebuilds{0};
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
  bool hub_stale = false;
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
  if (sources.snapshot_reads) {
    // Version 0 (including the hub point indices) is built while the
    // engine is still single-owner.
    GRNN_RETURN_NOT_OK(engine.InitSnapshotWorld());
  } else if (sources.hub_labels != nullptr) {
    // Initial derivation of the inverted point indices; the engine is
    // still single-owner here, so no domain locks are needed.
    GRNN_RETURN_NOT_OK(engine.RebuildHubIndexesLocked());
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
          snap.SetCounter("engine.search.hub_fallbacks", s.hub_fallbacks);
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
          snap.SetCounter("engine.hub.rebuilds",
                          st->hub_rebuilds.load(std::memory_order_relaxed));
          bool stale = st->hub_stale.load(std::memory_order_acquire);
          if (src.snapshot_reads) {
            std::lock_guard<std::mutex> lock(st->publish_mu);
            stale = st->current_holder->hub_stale;
          }
          snap.SetGauge("engine.hub.stale", stale ? 1 : 0);
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
  if (src_.hub_labels != nullptr) {
    if (v->points != nullptr) {
      GRNN_ASSIGN_OR_RETURN(
          index::HubPointIndex idx,
          index::HubPointIndex::Build(*src_.hub_labels, *v->points));
      v->hub_points =
          std::make_shared<index::HubPointIndex>(std::move(idx));
    }
    if (v->sites != nullptr) {
      GRNN_ASSIGN_OR_RETURN(
          index::HubPointIndex idx,
          index::HubPointIndex::Build(*src_.hub_labels, *v->sites));
      v->hub_sites =
          std::make_shared<index::HubPointIndex>(std::move(idx));
    }
    if (v->edge_points != nullptr) {
      GRNN_ASSIGN_OR_RETURN(
          index::HubPointIndex idx,
          index::HubPointIndex::Build(*src_.hub_labels, *v->edge_points));
      v->hub_edge_points =
          std::make_shared<index::HubPointIndex>(std::move(idx));
    }
  }
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

Status RknnEngine::RebuildHubIndexesLocked() {
  if (src_.points != nullptr) {
    GRNN_ASSIGN_OR_RETURN(
        index::HubPointIndex idx,
        index::HubPointIndex::Build(*src_.hub_labels, *src_.points));
    state_->hub_points =
        std::make_unique<index::HubPointIndex>(std::move(idx));
  }
  if (src_.sites != nullptr) {
    GRNN_ASSIGN_OR_RETURN(
        index::HubPointIndex idx,
        index::HubPointIndex::Build(*src_.hub_labels, *src_.sites));
    state_->hub_sites =
        std::make_unique<index::HubPointIndex>(std::move(idx));
  }
  if (src_.edge_points != nullptr) {
    GRNN_ASSIGN_OR_RETURN(
        index::HubPointIndex idx,
        index::HubPointIndex::Build(*src_.hub_labels, *src_.edge_points));
    state_->hub_edge =
        std::make_unique<index::HubPointIndex>(std::move(idx));
  }
  state_->hub_stale.store(false, std::memory_order_release);
  return Status::OK();
}

Status RknnEngine::RebuildIndex() {
  if (src_.hub_labels == nullptr) {
    return Status::FailedPrecondition(
        "engine has no hub-label index (EngineSources::hub_labels)");
  }
  if (src_.snapshot_reads) {
    // Exclusive on every indexed domain (domain index order) blocks
    // only WRITERS of those domains while the indices derive; readers
    // keep serving the current version lock-free and flip to the fresh
    // indices at the publish instant.
    std::unique_lock<std::shared_mutex> points_lock(
        state_->domain_mu[kDomainPoints]);
    std::unique_lock<std::shared_mutex> sites_lock(
        state_->domain_mu[kDomainSites]);
    std::unique_lock<std::shared_mutex> edge_lock(
        state_->domain_mu[kDomainEdge]);
    std::shared_ptr<const serve::WorldVersion> base = CurrentVersion();
    std::shared_ptr<const index::HubPointIndex> hub_points;
    std::shared_ptr<const index::HubPointIndex> hub_sites;
    std::shared_ptr<const index::HubPointIndex> hub_edge;
    if (base->points != nullptr) {
      GRNN_ASSIGN_OR_RETURN(
          index::HubPointIndex idx,
          index::HubPointIndex::Build(*src_.hub_labels, *base->points));
      hub_points = std::make_shared<index::HubPointIndex>(std::move(idx));
    }
    if (base->sites != nullptr) {
      GRNN_ASSIGN_OR_RETURN(
          index::HubPointIndex idx,
          index::HubPointIndex::Build(*src_.hub_labels, *base->sites));
      hub_sites = std::make_shared<index::HubPointIndex>(std::move(idx));
    }
    if (base->edge_points != nullptr) {
      GRNN_ASSIGN_OR_RETURN(
          index::HubPointIndex idx,
          index::HubPointIndex::Build(*src_.hub_labels, *base->edge_points));
      hub_edge = std::make_shared<index::HubPointIndex>(std::move(idx));
    }
    PublishVersion([&](serve::WorldVersion& v) {
      v.hub_points = std::move(hub_points);
      v.hub_sites = std::move(hub_sites);
      v.hub_edge_points = std::move(hub_edge);
      v.hub_stale = false;
    });
    state_->hub_rebuilds.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  // Lock mode: derive the new indices OFF TO THE SIDE from set copies
  // taken under shared locks, then install under brief exclusive locks
  // — queries keep serving for the whole derivation. An update racing
  // the build invalidates the attempt (detected via the update
  // generation counter); after a few optimistic rounds fall back to
  // building under the exclusive locks so the call always finishes.
  constexpr int kOptimisticAttempts = 3;
  for (int attempt = 0; attempt < kOptimisticAttempts; ++attempt) {
    uint64_t gen = 0;
    std::optional<NodePointSet> points_copy;
    std::optional<NodePointSet> sites_copy;
    std::optional<EdgePointSet> edge_copy;
    {
      std::shared_lock<std::shared_mutex> points_lock(
          state_->domain_mu[kDomainPoints]);
      std::shared_lock<std::shared_mutex> sites_lock(
          state_->domain_mu[kDomainSites]);
      std::shared_lock<std::shared_mutex> edge_lock(
          state_->domain_mu[kDomainEdge]);
      gen = state_->node_gen.load(std::memory_order_seq_cst);
      if (src_.points != nullptr) {
        points_copy = *src_.points;
      }
      if (src_.sites != nullptr) {
        sites_copy = *src_.sites;
      }
      if (src_.edge_points != nullptr) {
        edge_copy = *src_.edge_points;
      }
    }
    std::unique_ptr<index::HubPointIndex> new_points;
    std::unique_ptr<index::HubPointIndex> new_sites;
    std::unique_ptr<index::HubPointIndex> new_edge;
    if (points_copy.has_value()) {
      GRNN_ASSIGN_OR_RETURN(
          index::HubPointIndex idx,
          index::HubPointIndex::Build(*src_.hub_labels, *points_copy));
      new_points = std::make_unique<index::HubPointIndex>(std::move(idx));
    }
    if (sites_copy.has_value()) {
      GRNN_ASSIGN_OR_RETURN(
          index::HubPointIndex idx,
          index::HubPointIndex::Build(*src_.hub_labels, *sites_copy));
      new_sites = std::make_unique<index::HubPointIndex>(std::move(idx));
    }
    if (edge_copy.has_value()) {
      GRNN_ASSIGN_OR_RETURN(
          index::HubPointIndex idx,
          index::HubPointIndex::Build(*src_.hub_labels, *edge_copy));
      new_edge = std::make_unique<index::HubPointIndex>(std::move(idx));
    }
    std::unique_lock<std::shared_mutex> points_lock(
        state_->domain_mu[kDomainPoints]);
    std::unique_lock<std::shared_mutex> sites_lock(
        state_->domain_mu[kDomainSites]);
    std::unique_lock<std::shared_mutex> edge_lock(
        state_->domain_mu[kDomainEdge]);
    if (state_->node_gen.load(std::memory_order_seq_cst) != gen) {
      continue;  // an update landed mid-derivation; copies are stale
    }
    state_->hub_points = std::move(new_points);
    state_->hub_sites = std::move(new_sites);
    state_->hub_edge = std::move(new_edge);
    state_->hub_stale.store(false, std::memory_order_release);
    state_->hub_rebuilds.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  std::unique_lock<std::shared_mutex> points_lock(
      state_->domain_mu[kDomainPoints]);
  std::unique_lock<std::shared_mutex> sites_lock(
      state_->domain_mu[kDomainSites]);
  std::unique_lock<std::shared_mutex> edge_lock(
      state_->domain_mu[kDomainEdge]);
  Status rebuilt = RebuildHubIndexesLocked();
  if (rebuilt.ok()) {
    state_->hub_rebuilds.fetch_add(1, std::memory_order_relaxed);
  }
  return rebuilt;
}

bool RknnEngine::hub_index_stale() const {
  if (src_.hub_labels == nullptr) {
    return false;
  }
  if (src_.snapshot_reads) {
    serve::EpochManager::Guard guard = state_->epochs.Pin();
    return state_->current.load(std::memory_order_seq_cst)->hub_stale;
  }
  return state_->hub_stale.load(std::memory_order_acquire);
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
      if (world.hub_stale || world.hub_points == nullptr) {
        // Staleness fallback (rare): an update could not patch the
        // derived point index incrementally; answer exactly via eager
        // expansion until RebuildIndex() runs (contract in engine.h).
        Result<RknnResult> fallback =
            EagerRknn(*src_.graph, *world.points, nodes, options, ws);
        if (fallback.ok()) {
          fallback->stats.hub_fallbacks += 1;
        }
        return fallback;
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
      if (world.hub_stale || world.hub_points == nullptr ||
          world.hub_sites == nullptr) {
        Result<RknnResult> fallback =
            BichromaticRknn(*src_.graph, *world.points, *world.sites,
                            nodes, options, ws);
        if (fallback.ok()) {
          fallback->stats.hub_fallbacks += 1;
        }
        return fallback;
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
      if (world.hub_stale || world.hub_edge == nullptr) {
        Result<RknnResult> fallback = UnrestrictedEagerRknn(
            *src_.graph, *world.edge_points, reader, query, options, ws);
        if (fallback.ok()) {
          fallback->stats.hub_fallbacks += 1;
        }
        return fallback;
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
      root.Note("hub_fallbacks", result->stats.hub_fallbacks);
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
    world.hub_stale = v->hub_stale;
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
  // The hub indexes are patched IN PLACE by updates under their
  // domain's exclusive lock, so a query may only read the index of a
  // domain whose shared lock it holds (the unheld ones stay null —
  // no Run* body reads an index outside its kind's domains anyway).
  if (points_lock.owns_lock()) {
    world.hub_points = state_->hub_points.get();
  }
  if (sites_lock.owns_lock()) {
    world.hub_sites = state_->hub_sites.get();
  }
  if (edge_lock.owns_lock()) {
    world.hub_edge = state_->hub_edge.get();
  }
  world.hub_stale = state_->hub_stale.load(std::memory_order_acquire);
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
    const UpdateSpec& spec, NodePointSet& set, KnnStore* store) {
  UpdateResult out;
  if (spec.op == UpdateSpec::Op::kInsert) {
    GRNN_ASSIGN_OR_RETURN(out.point, set.AddPoint(spec.node));
    if (store != nullptr) {
      // Journal bracket (PR 7): a durable store buffers the list writes
      // below, makes record + images durable in CommitUpdate (the
      // acknowledgement gate), and only then touches the file. Plain
      // stores treat the bracket as no-ops.
      UpdateDescriptor desc;
      desc.op = UpdateDescriptor::Op::kInsertPoint;
      desc.domain = static_cast<uint32_t>(spec.set);
      desc.node = spec.node;
      desc.point = out.point;
      Status maintained = store->BeginUpdate(desc);
      if (maintained.ok()) {
        maintained = MaterializedInsert(*src_.graph, set, spec.node,
                                        store, &out.stats);
      }
      if (maintained.ok()) {
        maintained = store->CommitUpdate(&out.stats);
      }
      if (!maintained.ok()) {
        // Pre-write failures (validation) are fully undone here; a
        // mid-maintenance I/O failure leaves a plain store partially
        // written (see the ApplyUpdate failure-atomicity contract),
        // while a journaled store drops its buffered writes whole.
        store->AbortUpdate();
        (void)set.RemovePoint(out.point);
        return maintained;
      }
    }
    return out;
  }
  const NodeId host = set.NodeOf(spec.point);
  if (host == kInvalidNode) {
    return Status::NotFound(StrPrintf(
        "point %u is not live in the %s set", spec.point,
        UpdateSetName(spec.set)));
  }
  if (store != nullptr) {
    UpdateDescriptor desc;
    desc.op = UpdateDescriptor::Op::kDeletePoint;
    desc.domain = static_cast<uint32_t>(spec.set);
    desc.node = host;
    desc.point = spec.point;
    GRNN_RETURN_NOT_OK(store->BeginUpdate(desc));
  }
  Status removed = set.RemovePoint(spec.point);
  if (!removed.ok()) {
    if (store != nullptr) {
      store->AbortUpdate();
    }
    return removed;
  }
  if (store != nullptr) {
    Status maintained = MaterializedDelete(*src_.graph, set, spec.point,
                                           host, store, &out.stats);
    if (maintained.ok()) {
      maintained = store->CommitUpdate(&out.stats);
    }
    if (!maintained.ok()) {
      store->AbortUpdate();
      return maintained;
    }
  }
  out.point = spec.point;
  return out;
}

Result<RknnEngine::UpdateResult> RknnEngine::ApplyEdgeUpdate(
    const UpdateSpec& spec, EdgePointSet& set, KnnStore* store) {
  UpdateResult out;
  if (spec.op == UpdateSpec::Op::kInsert) {
    GRNN_ASSIGN_OR_RETURN(
        out.point, set.AddPoint(*src_.updates.base_graph, spec.position));
    if (store != nullptr) {
      UpdateDescriptor desc;
      desc.op = UpdateDescriptor::Op::kInsertEdgePoint;
      desc.domain = static_cast<uint32_t>(spec.set);
      desc.point = out.point;
      desc.edge_u = spec.position.u;
      desc.edge_v = spec.position.v;
      desc.edge_offset = spec.position.pos;
      Status maintained = store->BeginUpdate(desc);
      if (maintained.ok()) {
        maintained = UnrestrictedMaterializedInsert(
            *src_.graph, set, out.point, store, &out.stats);
      }
      if (maintained.ok()) {
        maintained = store->CommitUpdate(&out.stats);
      }
      if (!maintained.ok()) {
        store->AbortUpdate();
        (void)set.RemovePoint(out.point);
        return maintained;
      }
    }
    return out;
  }
  if (!set.IsLive(spec.point)) {
    return Status::NotFound(StrPrintf(
        "point %u is not live in the edge point set", spec.point));
  }
  const EdgePosition old_pos = set.PositionOf(spec.point);
  const Weight old_weight = set.EdgeWeightOfPoint(spec.point);
  if (store != nullptr) {
    UpdateDescriptor desc;
    desc.op = UpdateDescriptor::Op::kDeleteEdgePoint;
    desc.domain = static_cast<uint32_t>(spec.set);
    desc.point = spec.point;
    desc.edge_u = old_pos.u;
    desc.edge_v = old_pos.v;
    desc.edge_offset = old_pos.pos;
    GRNN_RETURN_NOT_OK(store->BeginUpdate(desc));
  }
  Status removed = set.RemovePoint(spec.point);
  if (!removed.ok()) {
    if (store != nullptr) {
      store->AbortUpdate();
    }
    return removed;
  }
  if (store != nullptr) {
    Status maintained = UnrestrictedMaterializedDelete(
        *src_.graph, set, spec.point, old_pos, old_weight, store,
        &out.stats);
    if (maintained.ok()) {
      maintained = store->CommitUpdate(&out.stats);
    }
    if (!maintained.ok()) {
      store->AbortUpdate();
      return maintained;
    }
  }
  out.point = spec.point;
  return out;
}

namespace {

/// Lock mode: splice one point's occurrences into the live hub index
/// slot. Caller holds the domain's exclusive lock. Failure (or an
/// already-stale or absent index) trips `stale`, routing hub queries
/// to the exact eager fallback until RebuildIndex().
template <typename PatchFn>
void PatchHubIndexLocked(std::atomic<bool>& stale,
                         std::unique_ptr<index::HubPointIndex>& slot,
                         PatchFn&& patch) {
  if (stale.load(std::memory_order_acquire) || slot == nullptr) {
    stale.store(true, std::memory_order_release);
    return;
  }
  if (!patch(*slot).ok()) {
    // A failed erase can leave a partial patch behind; staleness makes
    // that harmless (the index is bypassed until rebuilt).
    stale.store(true, std::memory_order_release);
  }
}

/// Snapshot mode: clone-and-splice into the version being published.
/// The clone is cheap — per-hub runs are shared copy-on-write and the
/// patch copies only the runs it touches. On any structural failure
/// every hub index of the version drops and hub_stale is set, so hub
/// queries against it fall back to exact eager expansion.
template <typename PatchFn>
void PatchVersionHubIndex(serve::WorldVersion& v,
                          std::shared_ptr<const index::HubPointIndex>* slot,
                          PatchFn&& patch) {
  if (v.hub_stale || *slot == nullptr) {
    v.hub_points.reset();
    v.hub_sites.reset();
    v.hub_edge_points.reset();
    v.hub_stale = true;
    return;
  }
  auto next = std::make_shared<index::HubPointIndex>(**slot);
  if (!patch(*next).ok()) {
    v.hub_points.reset();
    v.hub_sites.reset();
    v.hub_edge_points.reset();
    v.hub_stale = true;
    return;
  }
  *slot = std::move(next);
}

}  // namespace

Result<RknnEngine::UpdateResult> RknnEngine::SnapshotNodeUpdate(
    const UpdateSpec& spec) {
  const bool is_points = spec.set == UpdateSet::kPoints;
  // Exclusive writer lock of the domain: same-domain updates serialize
  // here, so the copy below always derives from the latest state of
  // this domain. Readers never take this lock in snapshot mode.
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
  // A delete tombstones the point, which forgets its host node — the
  // hub-index patch below needs it, so capture it first.
  const NodeId host = spec.op == UpdateSpec::Op::kDelete
                          ? set_copy->NodeOf(spec.point)
                          : spec.node;
  Result<UpdateResult> result =
      ApplyNodeUpdate(spec, *set_copy, store_copy.get());
  if (!result.ok()) {
    // Nothing published: the served world is untouched even by the
    // mid-maintenance failure cases of the lock-mode contract.
    return result;
  }
  PublishVersion([&](serve::WorldVersion& v) {
    if (is_points) {
      v.points = std::move(set_copy);
      if (store_copy != nullptr) {
        v.knn = std::move(store_copy);
      }
    } else {
      v.sites = std::move(set_copy);
      if (store_copy != nullptr) {
        v.site_knn = std::move(store_copy);
      }
    }
    if (src_.hub_labels != nullptr) {
      // Keep the derived hub index exact: clone-and-splice the one
      // changed point (COW — untouched per-hub runs are shared with
      // the predecessor version).
      auto* slot = is_points ? &v.hub_points : &v.hub_sites;
      PatchVersionHubIndex(v, slot, [&](index::HubPointIndex& idx) {
        return spec.op == UpdateSpec::Op::kInsert
                   ? idx.InsertPoint(*src_.hub_labels, result->point,
                                     host)
                   : idx.ErasePoint(*src_.hub_labels, spec.point, host);
      });
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
  // A delete tombstones the point, which forgets its position — the
  // hub-index patch below needs it, so capture it first.
  const bool is_delete = spec.op == UpdateSpec::Op::kDelete;
  EdgePosition old_pos{};
  Weight old_weight = 0;
  if (is_delete && set_copy->IsLive(spec.point)) {
    old_pos = set_copy->PositionOf(spec.point);
    old_weight = set_copy->EdgeWeightOfPoint(spec.point);
  }
  Result<UpdateResult> result =
      ApplyEdgeUpdate(spec, *set_copy, store_copy.get());
  if (!result.ok()) {
    return result;
  }
  // Inserts read the canonicalized position back from the set so the
  // spliced occurrences match a from-scratch Build bit for bit.
  EdgePosition new_pos{};
  Weight new_weight = 0;
  if (!is_delete) {
    new_pos = set_copy->PositionOf(result->point);
    new_weight = set_copy->EdgeWeightOfPoint(result->point);
  }
  auto reader_copy =
      std::make_shared<MemoryEdgePointReader>(set_copy.get());
  PublishVersion([&](serve::WorldVersion& v) {
    // Reader and set travel together: the reader aliases the set it was
    // built over, and WorldVersion destroys the reader first.
    v.edge_points = std::move(set_copy);
    v.edge_reader = std::move(reader_copy);
    if (store_copy != nullptr) {
      v.knn = std::move(store_copy);
    }
    if (src_.hub_labels != nullptr) {
      PatchVersionHubIndex(
          v, &v.hub_edge_points, [&](index::HubPointIndex& idx) {
            return is_delete
                       ? idx.EraseEdgePoint(*src_.hub_labels, spec.point,
                                            old_pos, old_weight)
                       : idx.InsertEdgePoint(*src_.hub_labels,
                                             result->point, new_pos,
                                             new_weight);
          });
    }
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
      // Deletes tombstone the point before the patch runs, so capture
      // the host node while the set still remembers it.
      const NodeId host = spec.op == UpdateSpec::Op::kDelete
                              ? src_.updates.points->NodeOf(spec.point)
                              : spec.node;
      Result<UpdateResult> result =
          ApplyNodeUpdate(spec, *src_.updates.points, src_.updates.knn);
      if (result.ok()) {
        state_->node_gen.fetch_add(1, std::memory_order_seq_cst);
        if (src_.hub_labels != nullptr) {
          // Keep the derived hub index exact: splice the one changed
          // point under the exclusive lock already held.
          PatchHubIndexLocked(
              state_->hub_stale, state_->hub_points,
              [&](index::HubPointIndex& idx) {
                return spec.op == UpdateSpec::Op::kInsert
                           ? idx.InsertPoint(*src_.hub_labels,
                                             result->point, host)
                           : idx.ErasePoint(*src_.hub_labels, spec.point,
                                            host);
              });
        }
      }
      return result;
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
      const NodeId host = spec.op == UpdateSpec::Op::kDelete
                              ? src_.updates.sites->NodeOf(spec.point)
                              : spec.node;
      Result<UpdateResult> result = ApplyNodeUpdate(
          spec, *src_.updates.sites, src_.updates.site_knn);
      if (result.ok()) {
        state_->node_gen.fetch_add(1, std::memory_order_seq_cst);
        if (src_.hub_labels != nullptr) {
          PatchHubIndexLocked(
              state_->hub_stale, state_->hub_sites,
              [&](index::HubPointIndex& idx) {
                return spec.op == UpdateSpec::Op::kInsert
                           ? idx.InsertPoint(*src_.hub_labels,
                                             result->point, host)
                           : idx.ErasePoint(*src_.hub_labels, spec.point,
                                            host);
              });
        }
      }
      return result;
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
      EdgePointSet& set = *src_.updates.edge_points;
      // Deletes tombstone the point before the patch runs, so capture
      // its position while the set still remembers it.
      const bool is_delete = spec.op == UpdateSpec::Op::kDelete;
      EdgePosition old_pos{};
      Weight old_weight = 0;
      if (is_delete && set.IsLive(spec.point)) {
        old_pos = set.PositionOf(spec.point);
        old_weight = set.EdgeWeightOfPoint(spec.point);
      }
      // knn (when present) is the edge-point store: Create rejects an
      // updatable knn on an engine that also serves node points.
      Result<UpdateResult> result =
          ApplyEdgeUpdate(spec, set, src_.updates.knn);
      if (result.ok()) {
        state_->node_gen.fetch_add(1, std::memory_order_seq_cst);
        if (src_.hub_labels != nullptr) {
          PatchHubIndexLocked(
              state_->hub_stale, state_->hub_edge,
              [&](index::HubPointIndex& idx) {
                // Inserts read the canonicalized position back from
                // the set so the spliced occurrences match a
                // from-scratch Build bit for bit.
                return is_delete
                           ? idx.EraseEdgePoint(*src_.hub_labels,
                                                spec.point, old_pos,
                                                old_weight)
                           : idx.InsertEdgePoint(
                                 *src_.hub_labels, result->point,
                                 set.PositionOf(result->point),
                                 set.EdgeWeightOfPoint(result->point));
              });
        }
      }
      return result;
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

Result<RknnEngine::BatchResult> RknnEngine::RunBatch(
    std::span<const QuerySpec> specs) {
  std::unique_ptr<SearchWorkspace> ws = AcquireWorkspace();
  BatchResult batch;
  batch.results.reserve(specs.size());
  const storage::IoStats io_before =
      src_.pool != nullptr ? src_.pool->stats() : storage::IoStats{};
  for (const QuerySpec& spec : specs) {
    const size_t footprint = ws->CapacityFootprint();
    Result<RknnResult> result = Dispatch(spec, *ws);
    if (!result.ok()) {
      ReleaseWorkspace(std::move(ws));
      return result.status();
    }
    batch.stats.queries++;
    batch.stats.search += result->stats;
    if (ws->CapacityFootprint() > footprint) {
      batch.stats.workspace_grows++;
    }
    batch.results.push_back(std::move(*result));
  }
  ReleaseWorkspace(std::move(ws));
  if (src_.pool != nullptr) {
    batch.stats.io = src_.pool->stats() - io_before;
  }
  std::lock_guard<std::mutex> lock(state_->stats_mu);
  state_->lifetime += batch.stats;
  return batch;
}

}  // namespace grnn::core
