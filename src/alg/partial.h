// partial_route: best-effort routing of the maximal greedy subset.
//
// Every other router in src/alg/ is all-or-nothing: one unroutable
// connection and the whole instance fails. On a degraded fabric that is
// the wrong contract — a channel that lost a track can usually still
// carry most of the traffic, and the chaos harness (harness/chaos)
// wants "route what you can, tell me exactly what you could not"
// instead of a bare kInfeasible.
//
// The strategy is the deterministic greedy best-fit: connections are
// taken in id order; each is placed on the fitting track that wastes the
// fewest segments (ties to the lowest track id), or recorded in
// RouteResult::unrouted with a per-connection FailureKind when no track
// fits. Because occupancy only ever grows, a connection rejected at step
// i still has no fitting track at the end — the returned subset is
// maximal for this insertion order (no recorded kInfeasible connection
// can be added to the final routing).
//
// Per-connection kinds:
//  - kInvalidInput: the span lies outside the channel (1..width);
//  - kInfeasible: no track fits under the K-segment limit given the
//    subset already placed (greedy evidence, not a proof for the
//    connection in isolation);
//  - kBudgetExhausted: the budget died before the connection was tried —
//    nothing is claimed about its routability.
//
// Deterministic: no clock, no RNG; tick-based budgets make even the
// truncation point reproducible (one tick per connection considered).
#pragma once

#include "alg/result.h"
#include "core/channel.h"
#include "core/connection.h"
#include "core/routing.h"
#include "harness/budget.h"

namespace segroute::alg {

struct PartialOptions {
  /// K-segment limit (0 = unlimited), enforced per placed connection.
  int max_segments = 0;

  /// Resource bounds; exhaustion truncates, it never corrupts (every
  /// connection placed before exhaustion stays placed and verified).
  harness::Budget budget;
};

/// Routes the maximal greedy subset of `cs` on `ch`. Registered in
/// alg::registry() as "partial". See file comment for the contract.
RouteResult partial_route(const SegmentedChannel& ch, const ConnectionSet& cs,
                          const PartialOptions& opts = {});

}  // namespace segroute::alg
