// Branch-and-bound optimizer for Problem 3: depth-first search over the
// left-end connection order with (a) per-connection admissible lower
// bounds (the cheapest feasible track, conflicts ignored) and (b)
// cheapest-first child ordering. Exact like dp_route_optimal, but with
// memory O(M) instead of the assignment graph — the right tool when the
// frontier count explodes (many tracks, many types) yet the weight
// structure prunes well.
#pragma once

#include <cstdint>

#include "alg/result.h"
#include "core/channel.h"
#include "core/connection.h"
#include "core/weights.h"
#include "harness/budget.h"

namespace segroute::alg {

struct BranchBoundOptions {
  int max_segments = 0;                    // K-segment limit (0 = unlimited)
  std::uint64_t max_nodes = 50'000'000;    // search-tree safety valve

  /// Resource bounds checked once per expanded search node; exhaustion
  /// behaves like max_nodes (anytime: best-so-far if one was found, else
  /// FailureKind::kBudgetExhausted).
  harness::Budget budget;
};

/// Finds a minimum-total-weight routing (or proves none exists).
/// stats.iterations counts expanded search nodes. Exceeding max_nodes or
/// the budget returns the best routing found so far with success only if
/// complete (note explains; failure classifies).
RouteResult branch_bound_route(const SegmentedChannel& ch,
                               const ConnectionSet& cs, const WeightFn& w,
                               const BranchBoundOptions& opts = {});

}  // namespace segroute::alg
