// Copyright (c) GRNN authors.
// The eager RkNN algorithm (paper Section 3.2, Fig 4).
//
// Eager expands the network around the query like Dijkstra, but before
// expanding a settled node n it issues range-NN(n, k, d(n,q)). If k data
// points lie strictly closer to n than the query, Lemma 1 guarantees no
// RkNN result can lie beyond n, so the expansion stops there. Every point
// the range-NN queries discover is individually verified (verify(p, k, q))
// and memoized so it is verified at most once.

#ifndef GRNN_CORE_EAGER_H_
#define GRNN_CORE_EAGER_H_

#include <span>

#include "common/result.h"
#include "core/point_set.h"
#include "core/types.h"
#include "graph/network_view.h"

namespace grnn::core {

class SearchWorkspace;

/// \brief Monochromatic RkNN by eager pruning.
///
/// \param query_nodes one node for a point query; several nodes for a
///        continuous (route) query, in which case distances are
///        d(r, n) = min over route nodes (Section 5.1).
/// Results are sorted by point id.
///
/// All search state is drawn from `ws`, so a caller issuing many queries
/// through one workspace (as RknnEngine::Run does with its pooled ones)
/// allocates nothing per call once the workspace is warm. Issue one-shot
/// queries through core::RknnEngine instead.
Result<RknnResult> EagerRknn(const graph::NetworkView& g,
                             const NodePointSet& points,
                             std::span<const NodeId> query_nodes,
                             const RknnOptions& options,
                             SearchWorkspace& ws);

}  // namespace grnn::core

#endif  // GRNN_CORE_EAGER_H_
