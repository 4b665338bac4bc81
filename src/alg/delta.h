// The per-connection delta contract: edit a live routing instead of
// re-routing the channel from scratch.
//
// Interactive FPGA tooling is edit-dominated: an engineering change
// order adds, removes or moves ONE connection, and the tool wants the
// new routing in microseconds, not a full re-solve. The contract below
// makes that sound by pinning down what "the new routing" *is*:
//
//   canonical(S) = greedy(S)   when the canonical greedy (insert live
//                              connections in id order under the
//                              session policy) places every connection;
//                = dp(S)       otherwise, when the exact DP routes S;
//                = reject      otherwise (the edit that produced S is
//                              refused and the session is unchanged).
//
// canonical() is a pure function of the live connection sequence — no
// history, no clocks, no RNG — so an incremental engine that maintains
// it is *bit-identical to from-scratch routing* after every edit. That
// is the gate the randomized edit-script suite enforces.
//
// OnlineRouter::apply maintains canonical(S) exactly. The greedy places
// connections in id order, so an edit at position p leaves its first p
// placements standing; apply() re-places the sequence from p on, and a
// connection whose span misses every column range the edit changed
// keeps its old track without a scan. When the greedy strands a
// connection, apply() calls from_scratch() on the edited sequence. It
// commits only on success. The RepairOutcome says which regime the new
// state is in: kRepair means the canonical greedy placed every
// connection, kFullDp means the exposed routing is the DP's.
//
// Why not a full replay: the exact DP on a session-sized live set takes
// a few microseconds, and a replay of the whole greedy took about as
// long, so a session must beat the DP to earn its place (DESIGN.md
// §16.2).
//
// tests/test_delta.cpp diffs sessions against its own best-fit loop and
// dp_route call, so the tests still compare two implementations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "alg/result.h"
#include "core/channel.h"
#include "core/connection.h"
#include "core/routing.h"
#include "harness/budget.h"

namespace segroute::alg {

/// One edit of a live routing session: add, remove or move a single
/// connection. Built via the factories; a default-constructed edit is
/// invalid (kAdd with an empty span) and is rejected by apply().
struct ChannelEdit {
  enum class Kind { kAdd = 0, kRemove, kMove };

  Kind kind = Kind::kAdd;
  ConnId id = kNoConn;    // remove/move: which connection
  Column left = 0;        // add/move: the (new) span
  Column right = 0;
  std::string name;       // add: diagnostic name

  static ChannelEdit add(Column l, Column r, std::string name = {}) {
    ChannelEdit e;
    e.kind = Kind::kAdd;
    e.left = l;
    e.right = r;
    e.name = std::move(name);
    return e;
  }
  static ChannelEdit remove(ConnId id) {
    ChannelEdit e;
    e.kind = Kind::kRemove;
    e.id = id;
    return e;
  }
  static ChannelEdit move(ConnId id, Column l, Column r) {
    ChannelEdit e;
    e.kind = Kind::kMove;
    e.id = id;
    e.left = l;
    e.right = r;
    return e;
  }
};

const char* to_string(ChannelEdit::Kind k);

/// Outcome of one apply(): which regime produced the exposed state, and
/// why the edit failed if it did. The session state after a failed
/// apply() is the state before it (it commits only on success).
struct RepairOutcome {
  enum class Path {
    kNone = 0,   // edit rejected before any routing ran
    kRepair,     // the canonical greedy placed every connection
    kFullDp,     // greedy left a connection unplaced; the DP ran
  };

  bool success = false;
  Path path = Path::kNone;
  FailureKind failure = FailureKind::kNone;

  /// Id of the connection the edit created (kAdd) or targeted.
  ConnId id = kNoConn;

  std::string note;
};

const char* to_string(RepairOutcome::Path p);

/// canonical(S) computed from scratch: the canonical greedy in id order
/// through best_fit_track (core/routing.h), then the registry "dp" when
/// greedy strands a connection. `policy_best_fit` selects the least
/// occupied length pick (the session default); false = FirstFit.
/// `path` says which branch of canonical() answered: kRepair when the
/// greedy placed everything, kFullDp when the DP ran (its result is
/// `result`, success or not), kNone when a malformed span or K was
/// refused before the DP. Failure kinds: kInvalidInput for malformed spans or a
/// negative `max_segments`, kInfeasible when neither greedy nor DP
/// routes S, kBudgetExhausted when the DP fallback ran out of `budget`.
struct CanonicalResult {
  RouteResult result;
  RepairOutcome::Path path = RepairOutcome::Path::kNone;
};

CanonicalResult from_scratch(const SegmentedChannel& ch,
                             const ConnectionSet& cs, bool policy_best_fit,
                             int max_segments,
                             const harness::Budget& budget = {});

}  // namespace segroute::alg
