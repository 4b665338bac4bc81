// Optimal 1-segment routing by reduction to weighted bipartite matching
// (Section IV-A, Fig. 7): connections on one side, segments on the other;
// an edge where the connection fits entirely within the segment; a
// minimum-weight perfect matching is an optimal routing.
#pragma once

#include "alg/result.h"
#include "core/channel.h"
#include "core/connection.h"
#include "core/weights.h"

namespace segroute::alg {

/// Feasibility-only 1-segment routing via maximum-cardinality matching
/// (Hopcroft–Karp). Succeeds iff a 1-segment routing exists — an
/// independent oracle for Theorem 3's greedy.
RouteResult match1_route(const SegmentedChannel& ch, const ConnectionSet& cs);

/// Optimal 1-segment routing (Problem 3 restricted to K=1) minimizing the
/// total weight sum_i w(c_i, t(c_i)) via the Hungarian algorithm. Fails if
/// no complete 1-segment routing exists. On success `weight` holds the
/// optimal total.
RouteResult match1_route_optimal(const SegmentedChannel& ch,
                                 const ConnectionSet& cs, const WeightFn& w);

}  // namespace segroute::alg
