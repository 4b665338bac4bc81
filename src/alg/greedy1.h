// 1-segment routing: the exact greedy algorithm of Section IV-A
// (Theorem 3) — each connection must fit within a single segment.
#pragma once

#include "alg/result.h"
#include "core/channel.h"
#include "core/connection.h"
#include "core/routing.h"

namespace segroute::alg {

/// Tie-breaking policies for equal right ends (the paper breaks ties
/// arbitrarily; Theorem 3 holds for any choice — exercised by tests).
enum class TieBreak { LowestTrack, HighestTrack };

/// Greedy 1-segment router (Problem 2 with K=1), O(M*T):
/// process connections by increasing left end; for each, among tracks
/// where it fits in one *unoccupied* segment, pick the one whose segment
/// has the smallest right end. Complete iff any 1-segment routing exists
/// (Theorem 3).
RouteResult greedy1_route(const SegmentedChannel& ch, const ConnectionSet& cs,
                          TieBreak tie = TieBreak::LowestTrack);

/// The segment chosen for each connection, for trace-style reporting
/// (track and segment index per connection); parallel to the routing.
struct Greedy1Trace {
  std::vector<SegId> segment_of;  // per connection, or -1
};

/// As greedy1_route but also reports which segment each connection took.
RouteResult greedy1_route_traced(const SegmentedChannel& ch,
                                 const ConnectionSet& cs, Greedy1Trace* trace,
                                 TieBreak tie = TieBreak::LowestTrack);

}  // namespace segroute::alg
