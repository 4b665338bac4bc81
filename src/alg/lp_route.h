// The linear-programming routing heuristic of Section IV-C.
//
// Formulation: binary x_ij = 1 iff connection c_i is assigned to track
// t_j. Constraints: (a) each connection is assigned to at most one track;
// (b) for every segment s of every track, at most one connection that
// would occupy s may be assigned to s's track (these are the paper's sets
// P_kj). Objective: maximize sum x_ij; a routing exists iff the 0-1
// optimum is M. The heuristic solves the *plain LP relaxation* — the
// paper reports that for random instances up to M=60, T=25 the relaxation
// almost always already yields a 0-1 vertex. A fix-and-resolve rounding
// fallback handles the fractional remainder.
#pragma once

#include <cstdint>

#include "alg/result.h"
#include "core/channel.h"
#include "core/connection.h"
#include "core/weights.h"
#include "harness/budget.h"

namespace segroute::alg {

struct LpRouteOptions {
  /// K-segment limit (0 = unlimited): assignments needing more segments
  /// get no variable (the paper's x_ij = 0 fixing for Problem 2).
  int max_segments = 0;

  /// Maximum fix-and-resolve passes before giving up on a fractional
  /// relaxation. 0 disables rounding (pure relaxation, for measuring the
  /// paper's integrality claim).
  int max_rounding_passes = 64;

  /// Integrality tolerance.
  double tolerance = 1e-6;

  /// Magnitude of a deterministic generic perturbation added to the
  /// objective coefficients (each x_ij gets 1 + U(0, jitter)). The uniform
  /// objective has massively degenerate optima whose simplex vertex is
  /// often fractional; a generic objective steers the solver to a 0-1
  /// vertex of the optimal face in almost every feasible case — this is
  /// what makes the relaxation "work surprisingly well in practice"
  /// (Section IV-C). Set to 0 to ablate. Must stay below 1/M so the
  /// perturbed optimum still maximizes the number of routed connections.
  double objective_jitter = 1e-4;

  /// Seed for the deterministic jitter.
  std::uint64_t jitter_seed = 0x5e60e7eULL;

  /// Resource bounds: ticks count simplex pivots; the deadline's end time
  /// is handed unchanged to every simplex solve (checked every few
  /// pivots), so a single huge LP cannot blow past it. Exhaustion yields
  /// FailureKind::kBudgetExhausted.
  harness::Budget budget;
};

/// Runs the LP heuristic. success=true only with a complete valid routing.
/// stats: lp_objective (relaxation optimum), lp_integral (relaxation was
/// already 0-1), rounding_passes, iterations (simplex pivots, summed).
RouteResult lp_route(const SegmentedChannel& ch, const ConnectionSet& cs,
                     const LpRouteOptions& opts = {});

/// Extension of the Section IV-C formulation to Problem 3: minimizes the
/// total weight sum w(c_i, t_j) * x_ij subject to every connection being
/// assigned (x rows == 1) and the per-segment capacity rows. Assignments
/// of infinite weight get no variable. Heuristic like lp_route: succeeds
/// only when the (rounded) solution is a complete valid routing; on
/// success `weight` holds its total weight, which tests cross-check
/// against the exact Problem-3 DP.
RouteResult lp_route_optimal(const SegmentedChannel& ch,
                             const ConnectionSet& cs, const WeightFn& w,
                             const LpRouteOptions& opts = {});

}  // namespace segroute::alg
