// Generalized segmented channel routing (Section V, Problem 4): each
// connection may be split across tracks. The algorithm breaks every
// connection into unit-column pieces (Proposition 11) and runs an
// assignment-graph DP whose frontier also remembers, per track, which
// parent connection occupies the frontier segment (so same-parent pieces
// may share it). Time O(T^(T+2) * M) — Theorem 8.
#pragma once

#include <optional>
#include <vector>

#include "alg/result.h"
#include "core/channel.h"
#include "core/connection.h"
#include "core/generalized.h"
#include "harness/budget.h"

namespace segroute::alg {

struct GeneralizedDpOptions {
  /// If set, a connection may change tracks only at these columns (the
  /// paper's restricted variant 1): a part may *start* at column l > left(c)
  /// only if l is listed.
  std::optional<std::vector<Column>> allowed_switch_columns;

  /// The paper's restricted variant 2 (hardware model): when a connection
  /// switches from track t1 to t2 at column l, the segment it occupied in
  /// t1 must extend through column l (so the two occupied segments share a
  /// column for the vertical jumper).
  bool switch_requires_overlap = false;

  /// Safety valve on assignment-graph size.
  std::uint64_t max_total_nodes = 50'000'000;

  /// Resource bounds checked in the hot loop (one tick per attempted
  /// state expansion); exhaustion yields FailureKind::kBudgetExhausted.
  harness::Budget budget;
};

/// Result of a generalized routing attempt.
struct GeneralizedRouteResult {
  bool success = false;
  GeneralizedRouting routing;
  FailureKind failure = FailureKind::kNone;  // kNone iff success
  std::string note;
  RouteStats stats;

  explicit operator bool() const { return success; }

  void fail(FailureKind kind, std::string why) {
    success = false;
    failure = kind;
    note = std::move(why);
  }
};

/// Solves Problem 4 (or its restricted variants per `opts`).
GeneralizedRouteResult generalized_dp_route(const SegmentedChannel& ch,
                                            const ConnectionSet& cs,
                                            const GeneralizedDpOptions& opts = {});

}  // namespace segroute::alg
