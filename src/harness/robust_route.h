// robust_route: a hardened portfolio router with graceful degradation.
//
// A single router is a single point of failure: the exact DP can blow its
// budget on hostile segmentations, the LP can stall fractional, a bug in
// any of them can emit a corrupt routing. robust_route runs the fixed
// cascade dp → greedy1 → match1 → lp → anneal (the exact DP, then the
// greedy/matching 1-segment routers, then the LP heuristic, then
// annealing), gives each stage a slice of the overall deadline, and
// *independently verifies* every candidate with RouteVerifier before
// accepting it. A verified answer from a later, weaker stage beats no
// answer at all — that is the graceful-degradation contract.
//
// Semantics:
//  - feasibility mode (no weight): the first verified routing wins and the
//    cascade stops;
//  - optimizing mode (weight set): an exact optimal stage (DP; matching
//    when K = 1) that succeeds ends the cascade; otherwise every stage
//    runs and the best verified weight wins;
//  - a stage that is exact for the posed problem and reports kInfeasible
//    (with its search complete) *proves* infeasibility and ends the
//    cascade;
//  - malformed input (a span past the channel end) is recorded as
//    kInvalidInput by the registry dispatcher at every stage — no stage
//    throws;
//  - a stage whose routing fails verification is recorded as
//    kVerificationFailed and the cascade continues — a corrupt answer is
//    never returned.
//
// Stages are named routers from alg::registry(); their capability flags
// — not hard-coded per-router knowledge — decide which failures prove
// infeasibility, which successes end an optimizing cascade, and which
// stages receive the weight function.
//
// Budgets: RobustOptions::deadline bounds the whole call. Each stage gets
// remaining / stages-left of it (a stage finishing early donates its
// slack to later stages). Overall failure aggregates the per-stage
// failures: proven infeasibility dominates, else all-invalid-input, else
// budget exhaustion, else verification failure, else infeasible.
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "alg/result.h"
#include "core/channel.h"
#include "core/connection.h"
#include "core/routing.h"
#include "core/weights.h"

namespace segroute::harness {

struct RobustOptions {
  /// K-segment limit (0 = unlimited). Verification enforces it too.
  int max_segments = 0;

  /// Optimizing mode: minimize this total weight (Problem 3).
  std::optional<WeightFn> weight;

  /// Overall wall-clock deadline for the whole cascade.
  std::optional<std::chrono::milliseconds> deadline;
};

/// What happened in one cascade stage.
struct StageReport {
  std::string router;      // the stage's router name
  bool attempted = false;  // false: skipped (deadline gone before start)
  bool success = false;    // the router reported success
  bool verified = false;   // ... and RouteVerifier accepted its routing
  alg::FailureKind failure = alg::FailureKind::kNone;
  std::string note;        // router note / verifier detail / skip reason
  double weight = 0.0;     // candidate total weight (optimizing mode)
  double elapsed_ms = 0.0;
};

/// Outcome of the whole cascade.
struct RouteReport {
  bool success = false;
  Routing routing;
  double weight = 0.0;     // winner's total weight (optimizing mode)
  std::string winner;      // winning router name; empty unless success
  alg::FailureKind failure = alg::FailureKind::kNone;
  std::string note;
  std::vector<StageReport> stages;  // one entry per stage reached, in order
  double elapsed_ms = 0.0;

  explicit operator bool() const { return success; }
};

/// Runs the hardened portfolio cascade. See file comment for semantics.
RouteReport robust_route(const SegmentedChannel& ch, const ConnectionSet& cs,
                         const RobustOptions& opts = {});

}  // namespace segroute::harness
