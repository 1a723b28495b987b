// Copyright (c) GRNN authors.
// RkNN queries in unrestricted networks (paper Section 5.2): data points
// and queries lie anywhere on the edges of the graph.
//
// A point at <n_i, n_j, pos> (i < j, pos in [0, w]) has direct distance
// pos to n_i and w - pos to n_j; distances between positions combine
// endpoint routes with the direct same-edge segment. Points are stored
// grouped by edge (storage::PointFile) and discovered when an expansion
// visits an incident node -- exactly the storage scheme of Fig 14b.
//
// Deviation from the paper's prose (documented in DESIGN.md): candidate
// discovery scans the point groups of every edge incident to a visited
// node, rather than relying solely on range-NN results. The paper's
// range-NN-only discovery can miss a reverse neighbor that is far from
// the query yet isolated from other points; incident-edge scanning
// restores completeness while leaving the Lemma 1 pruning untouched.

#ifndef GRNN_CORE_UNRESTRICTED_H_
#define GRNN_CORE_UNRESTRICTED_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/materialize.h"
#include "core/types.h"
#include "graph/graph.h"
#include "graph/network_view.h"
#include "storage/buffer_pool.h"
#include "storage/point_file.h"

namespace grnn::core {

using storage::EdgePointRecord;

/// A location on an edge: canonical orientation u < v, `pos` = distance
/// from u, 0 <= pos <= w(u,v).
struct EdgePosition {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  double pos = 0;

  friend bool operator==(const EdgePosition&, const EdgePosition&) = default;
};

/// True iff offset `pos` lies on an edge of weight `w` (0 <= pos <= w).
/// Written so that a NaN offset fails it; every check of a caller's
/// position goes through here.
inline bool PositionOnEdge(double pos, Weight w) {
  return pos >= 0 && pos <= w;
}

/// \brief Mutable metadata of edge-resident points (the in-memory
/// node-index analog for unrestricted networks). Point records themselves
/// may additionally live in a paged storage::PointFile for I/O-charged
/// access.
class EdgePointSet {
 public:
  /// Validates positions against the graph (edge exists, pos within the
  /// edge weight) and canonicalizes orientation.
  static Result<EdgePointSet> Create(const graph::Graph& g,
                                     const std::vector<EdgePosition>& positions);

  size_t num_points() const { return num_live_; }
  PointId point_id_bound() const {
    return static_cast<PointId>(positions_.size());
  }
  bool IsLive(PointId p) const {
    return p < positions_.size() && positions_[p].u != kInvalidNode;
  }
  /// Position of a live point.
  const EdgePosition& PositionOf(PointId p) const {
    GRNN_CHECK(IsLive(p));
    return positions_[p];
  }
  /// Weight of the edge hosting a live point.
  Weight EdgeWeightOfPoint(PointId p) const {
    GRNN_CHECK(IsLive(p));
    return edge_weights_[p];
  }
  std::vector<PointId> LivePoints() const;

  bool EdgeHasPoints(NodeId a, NodeId b) const {
    return by_edge_.count(EdgeKey(a, b)) != 0;
  }
  /// Points on edge (a,b), sorted by pos (from min(a,b)); empty if none.
  const std::vector<EdgePointRecord>& PointsOnEdge(NodeId a, NodeId b) const;

  /// Adds a point (position validated against `g`).
  Result<PointId> AddPoint(const graph::Graph& g, EdgePosition pos);
  /// Removes a live point.
  Status RemovePoint(PointId p);

  /// Per-edge groups in storage::PointFile::Build input form.
  std::vector<storage::PointFile::EdgePoints> ToEdgeGroups() const;

  /// Network-entry seeds of a position: (u, pos) and (v, w - pos).
  static std::vector<PointSeed> SeedsOf(const EdgePosition& pos,
                                        Weight edge_weight);

 private:
  static uint64_t EdgeKey(NodeId a, NodeId b) {
    return (static_cast<uint64_t>(a < b ? a : b) << 32) |
           static_cast<uint64_t>(a < b ? b : a);
  }

  size_t num_live_ = 0;
  std::vector<EdgePosition> positions_;  // point -> position (tombstoned)
  std::vector<Weight> edge_weights_;     // point -> weight of its edge
  std::unordered_map<uint64_t, std::vector<EdgePointRecord>> by_edge_;
};

/// \brief Access path for per-edge point records during query processing.
/// The memory reader is free; the stored reader charges buffer-pool I/O.
class EdgePointReader {
 public:
  virtual ~EdgePointReader() = default;
  /// Index-only check (free, mirrors the adjacency-list pointer of
  /// Fig 14b).
  virtual bool Has(NodeId a, NodeId b) const = 0;
  /// Reads the records of edge (a,b), sorted by pos from min(a,b).
  virtual Status Read(NodeId a, NodeId b,
                      std::vector<EdgePointRecord>* out) const = 0;
};

class MemoryEdgePointReader final : public EdgePointReader {
 public:
  explicit MemoryEdgePointReader(const EdgePointSet* set) : set_(set) {}
  bool Has(NodeId a, NodeId b) const override {
    return set_->EdgeHasPoints(a, b);
  }
  Status Read(NodeId a, NodeId b,
              std::vector<EdgePointRecord>* out) const override {
    *out = set_->PointsOnEdge(a, b);
    return Status::OK();
  }

 private:
  const EdgePointSet* set_;
};

class StoredEdgePointReader final : public EdgePointReader {
 public:
  StoredEdgePointReader(const storage::PointFile* file,
                        storage::BufferPool* pool)
      : file_(file), pool_(pool) {}
  bool Has(NodeId a, NodeId b) const override {
    return file_->EdgeHasPoints(a, b);
  }
  Status Read(NodeId a, NodeId b,
              std::vector<EdgePointRecord>* out) const override {
    return file_->ReadEdgePoints(pool_, a, b, out);
  }

 private:
  const storage::PointFile* file_;
  storage::BufferPool* pool_;
};

class SearchWorkspace;

/// \brief Query target in an unrestricted network: either a position on
/// an edge (point query) or a route of nodes (continuous query,
/// Section 5.1 + 5.2).
///
/// `k` and the excluded point travel in RknnOptions, exactly as for the
/// restricted algorithms; the RkNN semantics — including the
/// ties-favour-the-candidate rule — are the ones documented on
/// RknnOptions in core/types.h.
struct UnrestrictedQuery {
  bool is_position = true;
  EdgePosition position;        // used when is_position
  std::vector<NodeId> route;    // used otherwise
};

/// \brief The checks and canonical form every unrestricted query path
/// starts from (the four algorithms, the oracle and the hub-label path).
///
/// A route takes the node-query checks (ValidateQueryNodes). A position
/// needs k > 0 and two distinct in-range nodes (else InvalidArgument),
/// an edge between them (else NotFound; its weight costs one adjacency
/// read through `cursor`) and an offset on that edge (else
/// InvalidArgument); it is returned canonical (u < v) together with the
/// edge weight (0 for a route).
Result<std::pair<UnrestrictedQuery, Weight>> PrepareUnrestrictedQuery(
    const graph::NetworkView& g, const UnrestrictedQuery& q,
    const RknnOptions& options, graph::NeighborCursor& cursor);

/// \brief Eager RkNN for unrestricted networks. Workspace-threaded
/// (see EagerRknn in eager.h); one-shot callers use RknnEngine.
Result<RknnResult> UnrestrictedEagerRknn(const graph::NetworkView& g,
                                         const EdgePointSet& points,
                                         const EdgePointReader& reader,
                                         const UnrestrictedQuery& query,
                                         const RknnOptions& options,
                                         SearchWorkspace& ws);

/// \brief Lazy RkNN for unrestricted networks (edge-triggered pruning).
Result<RknnResult> UnrestrictedLazyRknn(const graph::NetworkView& g,
                                        const EdgePointSet& points,
                                        const EdgePointReader& reader,
                                        const UnrestrictedQuery& query,
                                        const RknnOptions& options,
                                        SearchWorkspace& ws);

/// \brief Lazy-EP RkNN for unrestricted networks.
Result<RknnResult> UnrestrictedLazyEpRknn(const graph::NetworkView& g,
                                          const EdgePointSet& points,
                                          const EdgePointReader& reader,
                                          const UnrestrictedQuery& query,
                                          const RknnOptions& options,
                                          SearchWorkspace& ws);

/// \brief Eager-M for unrestricted networks: materialized node-to-point
/// KNN lists drive pruning and candidate discovery; verification is a
/// full expansion (the restricted-case shortcut is not sound when the
/// candidate sits mid-edge, see DESIGN.md).
Result<RknnResult> UnrestrictedEagerMRknn(const graph::NetworkView& g,
                                          const EdgePointSet& points,
                                          const EdgePointReader& reader,
                                          const KnnStore* store,
                                          const UnrestrictedQuery& query,
                                          const RknnOptions& options,
                                          SearchWorkspace& ws);

/// \brief Brute-force oracle for unrestricted networks (per-point
/// shortest paths; shares no search code with the algorithms above).
Result<RknnResult> UnrestrictedBruteForceRknn(
    const graph::NetworkView& g, const EdgePointSet& points,
    const UnrestrictedQuery& query, const RknnOptions& options = {});

/// \brief All-NN over edge-resident points (two seeds per point).
Status UnrestrictedBuildAllNn(const graph::NetworkView& g,
                              const EdgePointSet& points, KnnStore* store,
                              UpdateStats* stats = nullptr);

/// \brief Materialization maintenance for a newly added edge point.
Status UnrestrictedMaterializedInsert(const graph::NetworkView& g,
                                      const EdgePointSet& points, PointId p,
                                      KnnStore* store,
                                      UpdateStats* stats = nullptr);

/// \brief Materialization maintenance after removing point `p` that used
/// to live at `old_pos` on an edge of weight `old_weight`. `points` is the
/// post-removal point set (needed to refill lists with edge-resident
/// points inside the affected region).
Status UnrestrictedMaterializedDelete(const graph::NetworkView& g,
                                      const EdgePointSet& points, PointId p,
                                      const EdgePosition& old_pos,
                                      Weight old_weight, KnnStore* store,
                                      UpdateStats* stats = nullptr);

}  // namespace grnn::core

#endif  // GRNN_CORE_UNRESTRICTED_H_
