// Copyright (c) GRNN authors.
// WorldVersion: one immutable, published snapshot of everything a query
// reads — the unit of the serving layer's epoch-snapshot read path
// (DESIGN.md, "Serving layer").
//
// In snapshot mode (EngineSources::snapshot_reads) the engine never
// lets a query touch mutable state: Dispatch pins an epoch
// (serve/epoch.h), loads the current WorldVersion and runs entirely
// against it. An update COPIES the single domain it rewrites (point
// set + maintained KNN store), applies the maintenance to the copy,
// and publishes a new version that shares every untouched domain with
// its predecessor via shared_ptr — copy-on-write at domain
// granularity. The displaced version is retired into the EpochManager
// and reclaimed when its epoch drains.
//
// Invariants:
//   * Every member of a PUBLISHED version is immutable. Builders
//     mutate only their private copies before publication.
//   * Domains untouched by an update alias the previous version
//     (pointer-equal shared_ptrs). Only the update holding a domain's
//     exclusive lock writes that domain's members, hub index included.
//   * The graph and the hub labels are engine-lifetime immutable and
//     are NOT versioned; versions only carry what updates can change.
//   * Sources the engine cannot update are wrapped unowned
//     (UnownedShared): the caller guarantees their lifetime, exactly
//     as for EngineSources.

#ifndef GRNN_SERVE_WORLD_VERSION_H_
#define GRNN_SERVE_WORLD_VERSION_H_

#include <cstdint>
#include <memory>

#include "core/materialize.h"
#include "core/point_set.h"
#include "core/unrestricted.h"
#include "index/hub_point_index.h"

namespace grnn::serve {

/// Wraps a caller-owned object in a non-owning shared_ptr so immutable
/// sources can flow through WorldVersion without a copy. The pointee
/// must outlive every version holding the alias (the engine-sources
/// lifetime contract).
template <typename T>
std::shared_ptr<const T> UnownedShared(const T* ptr) {
  return std::shared_ptr<const T>(ptr, [](const T*) {});
}

struct WorldVersion {
  /// Publication sequence number (version 0 is built at engine
  /// Create; every published successor increments it).
  uint64_t seq = 0;

  // --- Node-point domain (monochromatic / continuous) ---
  std::shared_ptr<const core::NodePointSet> points;
  std::shared_ptr<const core::KnnStore> knn;

  // --- Site domain (bichromatic) ---
  std::shared_ptr<const core::NodePointSet> sites;
  std::shared_ptr<const core::KnnStore> site_knn;

  // --- Edge-point domain (unrestricted) ---
  std::shared_ptr<const core::EdgePointSet> edge_points;
  /// Reader bound to THIS version's edge set (updatable engines) or to
  /// the caller's immutable reader (read-only engines).
  std::shared_ptr<const core::EdgePointReader> edge_reader;

  // --- Derived hub point indexes (Algorithm::kHubLabel) ---
  /// Maintained INCREMENTALLY: an update clones its domain's index and
  /// splices the one changed point (the per-hub runs are shared
  /// copy-on-write, so the clone is cheap), so every published index
  /// equals its published set. Null only without hub labels or without
  /// the population; an update whose patch fails publishes nothing.
  std::shared_ptr<const index::HubPointIndex> hub_points;
  std::shared_ptr<const index::HubPointIndex> hub_sites;
  /// Edge-resident point occurrences (unrestricted hub queries).
  std::shared_ptr<const index::HubPointIndex> hub_edge_points;
};

}  // namespace grnn::serve

#endif  // GRNN_SERVE_WORLD_VERSION_H_
