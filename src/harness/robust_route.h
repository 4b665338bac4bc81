// robust_route: a hardened portfolio router with graceful degradation.
//
// A single router is a single point of failure: the exact DP can blow its
// budget on hostile segmentations, the LP can stall fractional, a bug in
// any of them can emit a corrupt routing. robust_route runs a configurable
// cascade of routers (default: exact DP, then the greedy/matching
// 1-segment routers, then the LP heuristic, then annealing), gives each
// stage a slice of the overall deadline, and *independently verifies*
// every candidate with RouteVerifier before accepting it. A verified
// answer from a later, weaker stage beats no answer at all — that is the
// graceful-degradation contract.
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
//  - a stage handed input outside its capability envelope (an unknown
//    router name, a mixed channel for "left_edge", >2 segments/track for
//    "greedy2track") is recorded as kInvalidInput by the registry
//    dispatcher and the cascade continues — no stage throws;
//  - a stage whose routing fails verification is recorded as
//    kVerificationFailed and the cascade continues — a corrupt answer is
//    never returned.
//
// Stages are named routers from alg::registry() ("dp", "greedy1", ...);
// their capability flags — not hard-coded per-router knowledge — decide
// which failures prove infeasibility, which successes end an optimizing
// cascade, and which stages receive the weight function.
//
// Budgets: RobustOptions::deadline bounds the whole call. Each stage gets
// remaining / stages-left of it (a stage finishing early donates its
// slack to later stages), intersected with any per-stage Budget in its
// StageSpec. Overall failure aggregates the per-stage failures: proven
// infeasibility dominates, else all-invalid-input, else budget
// exhaustion, else verification failure, else infeasible.
//
// Fault injection: when RobustOptions::faults is set, the plan is sampled
// and applied first and the cascade routes on the surviving channel; the
// returned routing is mapped back to original track ids and the report
// records what was lost. Verification runs against the degraded channel
// (the substrate that was actually routed).
//
// Degradation ladder (RobustOptions::ladder): when a whole cascade pass
// ends in budget exhaustion — no candidate, no infeasibility proof, not
// cancelled — the pass is retried up to max_rounds times with every
// budget (overall deadline, per-stage deadlines and tick caps) scaled by
// escalation^round, after a capped exponential backoff pause. Tick-only
// budgets keep the ladder fully deterministic.
//
// Partial fallback (RobustOptions::allow_partial): when no stage
// produces a complete routing — even when the instance is *proven*
// infeasible as a whole — a final rung runs alg::partial_route and
// reports the maximal verified subset: RouteReport::partial is set,
// `routing` holds the subset (mapped back through any fault
// degradation), and `unrouted` enumerates every unassigned connection
// with a per-connection FailureKind. `success` stays false, so
// all-or-nothing callers are unaffected.
//
// Checkpoints (RobustOptions::checkpoints): a borrowed CheckpointStore
// turns repeated calls into a recovery protocol. Every verified complete
// routing is saved under the *substrate* fingerprint (post-degradation),
// and a feasibility-mode call first tries to restore a checkpoint for
// its substrate — re-verified before use — skipping the cascade
// entirely on a hit (winner "checkpoint").
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "alg/result.h"
#include "core/channel.h"
#include "core/connection.h"
#include "core/weights.h"
#include "harness/budget.h"
#include "harness/checkpoint.h"
#include "harness/fault.h"
#include "harness/verify.h"

namespace segroute::harness {

/// One cascade entry: which router (a name from alg::registry(), e.g.
/// "dp", "greedy1", "match1", "lp", "anneal", "branch_bound"), plus an
/// optional per-stage budget (intersected with the stage's slice of the
/// overall deadline). An unknown name records kInvalidInput for that
/// stage and the cascade continues.
struct StageSpec {
  std::string router;
  Budget budget;
};

/// Retry policy for the degradation ladder: how many times the whole
/// cascade is re-run with escalated budgets when a pass dies of budget
/// exhaustion. The defaults (one round) reproduce the pre-ladder
/// behaviour exactly.
struct LadderSpec {
  /// Total cascade passes (1 = no retries).
  int max_rounds = 1;

  /// Budget multiplier per round: round r runs with every deadline and
  /// tick cap scaled by escalation^r. Values <= 1 retry un-escalated.
  double escalation = 2.0;

  /// Pause before the first retry; doubled each further retry, capped at
  /// max_backoff. Zero (the default) never sleeps — use ticks-only
  /// budgets plus zero backoff for fully deterministic ladders.
  std::chrono::milliseconds backoff{0};
  std::chrono::milliseconds max_backoff{100};
};

struct RobustOptions {
  /// K-segment limit (0 = unlimited). Verification enforces it too.
  int max_segments = 0;

  /// Optimizing mode: minimize this total weight (Problem 3).
  std::optional<WeightFn> weight;

  /// Overall wall-clock deadline for the whole cascade.
  std::optional<std::chrono::milliseconds> deadline;

  /// Cooperative cancellation, checked by every budgeted stage.
  const std::atomic<bool>* cancel = nullptr;

  /// The cascade; empty = the default {"dp", "greedy1", "match1", "lp",
  /// "anneal"}.
  std::vector<StageSpec> stages;

  /// When set, sample and apply hardware faults before routing.
  std::optional<FaultPlan> faults;

  /// Degradation-ladder retry policy (see file comment). The default is
  /// a single round — identical to the pre-ladder cascade.
  LadderSpec ladder;

  /// Run the partial-routing rung when no stage completes: report the
  /// maximal verified subset instead of an all-or-nothing failure.
  bool allow_partial = false;

  /// Borrowed checkpoint store (must outlive the call); enables the
  /// save-on-success / restore-on-repeat recovery protocol. Null = off.
  CheckpointStore* checkpoints = nullptr;
};

/// What happened in one cascade stage.
struct StageReport {
  std::string router;      // the stage's router name, as configured
  bool attempted = false;  // false: skipped (deadline gone before start)
  bool success = false;    // the router reported success
  bool verified = false;   // ... and RouteVerifier accepted its routing
  alg::FailureKind failure = alg::FailureKind::kNone;
  std::string note;        // router note / verifier detail / skip reason
  double weight = 0.0;     // candidate total weight (optimizing mode)
  double elapsed_ms = 0.0;
  int round = 0;           // ladder round this stage ran in (0-based)
};

/// Outcome of the whole cascade.
struct RouteReport {
  bool success = false;
  Routing routing;         // original-track coordinates (after faults)
  double weight = 0.0;     // winner's total weight (optimizing mode)
  std::string winner;      // winning router name; empty unless success
  alg::FailureKind failure = alg::FailureKind::kNone;
  std::string note;
  std::vector<StageReport> stages;  // one entry per cascade stage, in order
  double elapsed_ms = 0.0;

  // Fault-injection summary (faults_applied == opts.faults was set).
  bool faults_applied = false;
  int switches_fused = 0;
  int tracks_lost = 0;

  // Degradation-ladder summary.
  int rounds = 1;  // cascade passes actually run

  // Partial fallback (allow_partial): `partial` means `routing` holds a
  // verified subset (original-track coordinates) and `unrouted` lists
  // every unassigned connection with its per-connection FailureKind.
  // success stays false.
  bool partial = false;
  std::vector<alg::ConnFailure> unrouted;

  explicit operator bool() const { return success; }
};

/// Runs the hardened portfolio cascade. See file comment for semantics.
RouteReport robust_route(const SegmentedChannel& ch, const ConnectionSet& cs,
                         const RobustOptions& opts = {});

}  // namespace segroute::harness
