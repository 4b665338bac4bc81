// The uniform router contract: one request shape for every routing
// strategy in the library.
//
// The paper poses four problem variants (unlimited, K-segment,
// weighted-optimal, generalized) and this library implements about a
// dozen routers for them. Historically each had its own signature —
// positional tie-break enums, optional scratch parameters, ad-hoc
// throw contracts — so every consumer (the robust_route portfolio, the
// batch engine, capacity search, benches, tests) hand-wired each router
// separately. A RouteRequest carries everything any of them needs:
//
//   - the channel and connection set to route (borrowed, required); every
//     router reads its segments straight from SegmentedChannel/Track and
//     keeps its own per-thread scratch (core/thread_scratch.h);
//   - RouterOptions: the common knobs (K-segment limit, optimization
//     weight); each router runs with its own options struct at its
//     defaults otherwise;
//   - a harness::Budget bounding the call.
//
// Routers consume a request through alg/registry.h, which maps names
// ("dp", "greedy1", ...) to entries with capability flags and a
// non-throwing route function. No registry route path throws on invalid
// input: malformed requests come back as RouteResult with
// FailureKind::kInvalidInput.
#pragma once

#include <optional>

#include "core/channel.h"
#include "core/connection.h"
#include "core/weights.h"
#include "harness/budget.h"

namespace segroute {

/// The routing knobs every router understands. Router-specific
/// settings (tie-break policy, annealing schedule, node caps) stay at the
/// defaults of each router's own options struct; a caller that needs
/// another value calls that router's free function directly.
struct RouterOptions {
  /// 0 = unlimited-segment routing (Problem 1); K > 0 = K-segment
  /// routing (Problem 2). Routers that only solve K = 1 (see
  /// RouterCaps::k1_only) still produce valid routings for any K >= 1 or
  /// unlimited — a 1-segment routing satisfies every limit — but their
  /// failures prove infeasibility only when K = 1 was asked for.
  int max_segments = 0;

  /// If set, minimize this total weight (Problem 3). Routers without
  /// RouterCaps::supports_weight reject a weighted request as
  /// kInvalidInput rather than silently ignoring the objective.
  std::optional<WeightFn> weight;
};

/// What a registered router can do and what input shapes it accepts.
/// The accept-shape flags (needs_*, requires_weight, supports_weight)
/// are *enforced* by the registry dispatcher: a request outside the
/// router's domain comes back kInvalidInput instead of a throw or a
/// wrong answer. The proof-semantics flags (exact, optimal, k1_only,
/// anytime) tell consumers how to interpret results — robust_route uses
/// them to decide when a failure proves infeasibility and when a
/// success ends an optimizing cascade.
struct RouterCaps {
  /// A completed search is a proof: success means a valid routing of the
  /// posed problem, kInfeasible means none exists (on the router's
  /// accepted domain; see k1_only for the 1-segment specialists).
  bool exact = false;

  /// With a weight, finds the true minimum (Problem 3), not just any
  /// routing.
  bool optimal = false;

  /// Accepts RouterOptions::weight. Routers without it reject weighted
  /// requests; portfolio callers strip the weight instead and score the
  /// candidate externally.
  bool supports_weight = false;

  /// Meaningless without a weight (branch-and-bound): an unweighted
  /// request is kInvalidInput.
  bool requires_weight = false;

  /// Honors RouterOptions::max_segments as a K-segment limit.
  bool supports_k = false;

  /// Solves exactly the K = 1 problem: sound for any K (its routings are
  /// 1-segment), exact/optimal only when max_segments == 1.
  bool k1_only = false;

  /// Requires SegmentedChannel::identically_segmented(); mixed channels
  /// are kInvalidInput (left-edge).
  bool needs_identical_tracks = false;

  /// Requires every track to have at most two segments; otherwise
  /// kInvalidInput (greedy2track).
  bool needs_le2_segments_per_track = false;

  /// Budget/limit exhaustion may still return a best-so-far success
  /// whose note marks it potentially suboptimal (branch-bound,
  /// exhaustive); exact-optimal only when the note is empty.
  bool anytime = false;
};

/// One routing request: everything a registered router may need, in one
/// struct. All pointers are borrowed and must outlive the call.
struct RouteRequest {
  /// The channel to route in. Required.
  const SegmentedChannel* channel = nullptr;

  /// The connections to route. Required.
  const ConnectionSet* connections = nullptr;

  /// The common knobs.
  RouterOptions options;

  /// Resource bounds for this call (default: unlimited).
  harness::Budget budget;
};

}  // namespace segroute
