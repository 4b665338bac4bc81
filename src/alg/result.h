// Common result type returned by every router in segroute::alg.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/routing.h"

namespace segroute::alg {

/// Structured failure taxonomy shared by every router. Replaces
/// string-matching on RouteResult::note: callers branch on this enum,
/// the note stays human-readable detail.
enum class FailureKind {
  /// Success — no failure.
  kNone = 0,
  /// Malformed input (e.g. connections extend past the channel width, or
  /// a precondition such as greedy2track's <=2-segments-per-track does
  /// not hold).
  kInvalidInput,
  /// No routing was found. This is a *proof* of infeasibility only when
  /// the router is exact for the posed problem and its search completed
  /// (dp, exhaustive, branch_bound, greedy1/match1 for K=1, greedy2track
  /// and left_edge on their special channels); for the heuristics (lp,
  /// anneal) it means "gave up", except where the note says the LP bound
  /// itself proves infeasibility.
  kInfeasible,
  /// A Budget bound (deadline, node/iteration cap, cancellation) or a
  /// legacy safety valve (max_total_nodes, max_nodes, max_branches)
  /// stopped the search before an answer was established.
  kBudgetExhausted,
  /// A produced routing failed independent re-verification (set by
  /// harness::robust_route when harness::RouteVerifier rejects a
  /// candidate; routers themselves never set this).
  kVerificationFailed,
  /// An internal invariant broke — always a bug in this library.
  kInternal,
};

/// Name of a FailureKind value, for notes and logs.
inline const char* to_string(FailureKind k) {
  switch (k) {
    case FailureKind::kNone:
      return "none";
    case FailureKind::kInvalidInput:
      return "invalid-input";
    case FailureKind::kInfeasible:
      return "infeasible";
    case FailureKind::kBudgetExhausted:
      return "budget-exhausted";
    case FailureKind::kVerificationFailed:
      return "verification-failed";
    case FailureKind::kInternal:
      return "internal";
  }
  return "?";
}

/// Search/solve statistics; fields are filled by the routers that have
/// something meaningful to report and left at defaults otherwise.
struct RouteStats {
  /// DP routers: states the search held per level (level i = frontiers
  /// after routing the first i connections). The level sweeps (dp_route
  /// under Problem 3, the generalized DP) hold the whole assignment
  /// graph; dp_route's depth-first search of Problems 1 and 2 counts the
  /// states it visited, at most the graph's level sizes and over no more
  /// levels (states that column density proves dead are never visited).
  std::vector<std::size_t> nodes_per_level;
  /// DP routers: the sum of nodes_per_level.
  std::uint64_t total_nodes = 0;
  /// DP routers: the largest entry of nodes_per_level (for a full graph,
  /// the paper's L).
  std::size_t max_level_nodes = 0;
  /// LP router: simplex iterations; exhaustive router: branches explored.
  std::uint64_t iterations = 0;
  /// LP router: value of the LP relaxation objective.
  double lp_objective = 0.0;
  /// LP router: true if the plain relaxation was already integral.
  bool lp_integral = false;
  /// LP router: number of fix-and-resolve rounding passes used.
  int rounding_passes = 0;
};

/// Per-connection failure record for partial routings: which connection
/// stayed unrouted and why. kInfeasible here means "the router could not
/// place it given what it had already committed" — a proof of per-
/// connection infeasibility only if the router says so in its note.
struct ConnFailure {
  ConnId conn = 0;
  FailureKind kind = FailureKind::kInfeasible;
};

/// Outcome of a routing attempt. `success` means a complete valid routing
/// was produced; `routing` is then complete. On failure `routing` may hold
/// a partial assignment (router-specific), `failure` classifies what went
/// wrong, and `note` carries the human-readable detail.
///
/// Partial-routing contract (the "partial" router and any future
/// best-effort strategy): `partial == true` means `routing` holds a valid
/// routing of a subset of the connections (never corrupt, independently
/// verifiable with VerifyOptions::require_complete = false) and
/// `unrouted` enumerates every unassigned connection with a per-
/// connection FailureKind. `success` stays false unless the subset is
/// everything; all-or-nothing consumers keep working unchanged.
struct RouteResult {
  bool success = false;
  Routing routing;
  double weight = 0.0;  // total weight for optimizing routers, else 0
  FailureKind failure = FailureKind::kNone;  // kNone iff success
  std::string note;
  RouteStats stats;

  // Partial-routing contract (see above).
  bool partial = false;
  std::vector<ConnFailure> unrouted;

  explicit operator bool() const { return success; }

  /// Failure helper: classifies and annotates in one step.
  void fail(FailureKind kind, std::string why) {
    success = false;
    failure = kind;
    note = std::move(why);
  }
};

}  // namespace segroute::alg
