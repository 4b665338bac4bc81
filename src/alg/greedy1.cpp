#include "alg/greedy1.h"

#include "core/routing.h"
#include "core/thread_scratch.h"
#include "obs/instrument.h"

namespace segroute::alg {

RouteResult greedy1_route_traced(const SegmentedChannel& ch,
                                 const ConnectionSet& cs, Greedy1Trace* trace,
                                 TieBreak tie) {
  RouteResult res;
  res.routing = Routing(cs.size());
  SEGROUTE_SPAN(g1_span, "alg.greedy1_route");
  if (trace) {
    trace->segment_of.assign(static_cast<std::size_t>(cs.size()), -1);
  }
  if (cs.max_right() > ch.width()) {
    res.fail(FailureKind::kInvalidInput, "connections exceed channel width");
    SEGROUTE_SPAN_TAG(g1_span, "outcome", to_string(res.failure));
    return res;
  }
  // Candidate tracks rejected (multi-segment span or occupied), flushed
  // once at exit.
  std::uint64_t rejected = 0;
  ThreadScratch<Occupancy> scratch;
  Occupancy& occ = scratch.get();
  occ.rebind(ch);
  for (ConnId i : cs.sorted_by_left()) {
    const Connection& c = cs[i];
    TrackId best = kNoTrack;
    SegId best_seg = -1;
    Column best_right = 0;
    for (TrackId t = 0; t < ch.num_tracks(); ++t) {
      const Track& tr = ch.track(t);
      const auto [a, b] = tr.span(c.left, c.right);
      if (a != b) {  // needs more than one segment
        ++rejected;
        continue;
      }
      if (occ.occupant(t, a) != kNoConn) {  // already taken
        ++rejected;
        continue;
      }
      const Column r = tr.segment(a).right;
      const bool better =
          best == kNoTrack || r < best_right ||
          (r == best_right && tie == TieBreak::HighestTrack);
      if (better) {
        best = t;
        best_seg = a;
        best_right = r;
      }
    }
    if (best == kNoTrack) {
      res.fail(FailureKind::kInfeasible,
               "no single unoccupied segment can hold connection " +
                   std::to_string(i));
      SEGROUTE_COUNT("greedy1.candidates_rejected", rejected);
      SEGROUTE_SPAN_TAG(g1_span, "outcome", to_string(res.failure));
      return res;
    }
    occ.place(best, c.left, c.right, i);
    res.routing.assign(i, best);
    if (trace) trace->segment_of[static_cast<std::size_t>(i)] = best_seg;
  }
  res.success = true;
  SEGROUTE_COUNT("greedy1.candidates_rejected", rejected);
  SEGROUTE_COUNT("greedy1.placements", cs.size());
  SEGROUTE_SPAN_TAG(g1_span, "outcome", "success");
  return res;
}

RouteResult greedy1_route(const SegmentedChannel& ch, const ConnectionSet& cs,
                          TieBreak tie) {
  return greedy1_route_traced(ch, cs, nullptr, tie);
}

}  // namespace segroute::alg
