// Incremental (online) segmented-channel routing: an edit session that
// adds, removes and moves connections one at a time. This is the engine
// an interactive FPGA tool needs (incremental design changes), and it
// backs the service's edit sessions and the chaos harness's edit stream.
//
// The session holds the canonical routing of its live connection
// sequence (alg/delta.h). apply() applies one ChannelEdit to that
// sequence and recomputes canonical(S) with alg::from_scratch, so the
// state after every edit is bit-identical to routing the live set from
// scratch, on any segmentation and under any K-segment limit.
#pragma once

#include <utility>
#include <vector>

#include "alg/delta.h"
#include "alg/result.h"
#include "core/channel.h"
#include "core/connection.h"
#include "core/routing.h"
#include "harness/budget.h"

namespace segroute::alg {

/// Error contract: like the batch routers, this stateful API never
/// throws on caller errors. A malformed ChannelEdit (an out-of-range
/// span, or an unknown/removed id) makes apply() fail with
/// kInvalidInput; track_of() reports kNoTrack for unknown/removed ids.
/// A failed apply(), including one whose DP fallback ran out of budget,
/// leaves the session unchanged.
class OnlineRouter {
 public:
  enum class Policy {
    FirstFit,  // lowest-index feasible track
    BestFit,   // feasible track minimizing occupied segment length
  };

  /// `max_segments` = 0 for unlimited, K > 0 for K-segment routing.
  explicit OnlineRouter(SegmentedChannel channel,
                        Policy policy = Policy::BestFit, int max_segments = 0);

  /// Applies one add/remove/move edit: builds the edited live sequence
  /// in id order and routes it with from_scratch() under `budget`. On
  /// success the new routing is committed; otherwise the edit is
  /// rejected and nothing changes. The returned RepairOutcome says
  /// which regime the state is in and carries the new/target id. Ids
  /// are handed out in add order and stay stable across other edits.
  RepairOutcome apply(const ChannelEdit& edit,
                      const harness::Budget& budget = {});

  [[nodiscard]] const SegmentedChannel& channel() const { return channel_; }
  [[nodiscard]] int num_placed() const;
  [[nodiscard]] bool is_placed(ConnId id) const;
  /// Track of a placed connection, or kNoTrack for unknown/removed ids.
  [[nodiscard]] TrackId track_of(ConnId id) const;
  /// Precondition: is_placed(id). The one accessor that cannot report
  /// failure in-band; callers check is_placed() first.
  [[nodiscard]] const Connection& connection(ConnId id) const;

  /// Snapshot of the current state as a (ConnectionSet, Routing) pair —
  /// valid by construction; tests re-validate it. Live connections
  /// appear in increasing id order (the canonical sequence order).
  [[nodiscard]] std::pair<ConnectionSet, Routing> snapshot() const;

 private:
  SegmentedChannel channel_;
  Policy policy_;
  int max_segments_;
  std::vector<Connection> conns_;   // slot per id; removed slots stay
  std::vector<TrackId> track_of_;   // kNoTrack when removed
};

}  // namespace segroute::alg
