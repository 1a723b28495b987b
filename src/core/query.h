// Copyright (c) GRNN authors.
// The Algorithm enum shared by every query path (core/engine.h dispatches
// on it) plus its display names and the CLI parser.

#ifndef GRNN_CORE_QUERY_H_
#define GRNN_CORE_QUERY_H_

#include <string_view>

#include "common/result.h"

namespace grnn::core {

enum class Algorithm {
  kEager,       // Section 3.2
  kLazy,        // Section 3.3
  kLazyEp,      // Section 4.2
  kEagerM,      // Section 4.1 (needs a KnnStore)
  kBruteForce,  // naive baseline / oracle
  kHubLabel,    // label intersection (ReHub; needs a hub-label index)
};

/// Short display name used in benchmark tables ("E", "L", "LP", "EM", as
/// in the paper's figures; "H" for the hub-label index path).
const char* AlgorithmShortName(Algorithm a);
/// Full name ("eager", "lazy", "lazy-EP", "eager-M", "brute-force",
/// "hub").
const char* AlgorithmName(Algorithm a);
/// Inverse of both name forms, case-insensitive ("E", "eager", "LP",
/// "lazy-ep", "hub", ...). The single parser every CLI flag (--algos=)
/// goes through.
Result<Algorithm> ParseAlgorithm(std::string_view name);

/// The paper's four algorithms in the order its figures list them.
/// kHubLabel is deliberately NOT here: the figure benches and the
/// four-way harness sweep exactly the paper's algorithms; the hub-label
/// path is opt-in (perfbench's hub-serve and stored-expand workloads,
/// the differential harness's hub phase).
inline constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kEager, Algorithm::kEagerM, Algorithm::kLazy,
    Algorithm::kLazyEp};

}  // namespace grnn::core

#endif  // GRNN_CORE_QUERY_H_
