#include "alg/left_edge.h"

#include <optional>

#include "core/routing.h"
#include "obs/instrument.h"

namespace segroute::alg {

RouteResult left_edge_route(const SegmentedChannel& ch, const ConnectionSet& cs,
                            int max_segments, const RouteContext& ctx) {
  RouteResult res;
  res.routing = Routing(cs.size());
  SEGROUTE_SPAN(le_span, "alg.left_edge_route");
  if (!ch.identically_segmented()) {
    res.fail(FailureKind::kInvalidInput,
             "left_edge_route: channel must be identically segmented");
    SEGROUTE_SPAN_TAG(le_span, "outcome", to_string(res.failure));
    return res;
  }
  if (cs.max_right() > ch.width()) {
    res.fail(FailureKind::kInvalidInput, "connections exceed channel width");
    SEGROUTE_SPAN_TAG(le_span, "outcome", to_string(res.failure));
    return res;
  }
  std::optional<Occupancy> local_occ;
  Occupancy& occ = ctx.occupancy ? *ctx.occupancy : local_occ.emplace(ch);
  if (ctx.occupancy) occ.reset();
  std::uint64_t probes = 0;  // occupied-track placement attempts, flushed once
  for (ConnId i : cs.sorted_by_left()) {
    const Connection& c = cs[i];
    if (max_segments > 0 &&
        ch.track(0).segments_spanned(c.left, c.right) > max_segments) {
      res.fail(FailureKind::kInfeasible,
               "connection " + std::to_string(i) + " needs more than " +
                   std::to_string(max_segments) + " segments in every track");
      SEGROUTE_COUNT("left_edge.occupied_probes", probes);
      SEGROUTE_SPAN_TAG(le_span, "outcome", to_string(res.failure));
      return res;
    }
    bool placed = false;
    for (TrackId t = 0; t < ch.num_tracks(); ++t) {
      if (occ.place(t, c.left, c.right, i)) {
        res.routing.assign(i, t);
        placed = true;
        break;
      }
      ++probes;
    }
    if (!placed) {
      res.fail(FailureKind::kInfeasible,
               "no free track for connection " + std::to_string(i));
      SEGROUTE_COUNT("left_edge.occupied_probes", probes);
      SEGROUTE_SPAN_TAG(le_span, "outcome", to_string(res.failure));
      return res;
    }
  }
  res.success = true;
  SEGROUTE_COUNT("left_edge.occupied_probes", probes);
  SEGROUTE_COUNT("left_edge.placements", cs.size());
  SEGROUTE_SPAN_TAG(le_span, "outcome", "success");
  return res;
}

int unconstrained_tracks_needed(const ConnectionSet& cs) { return cs.density(); }

RouteResult left_edge_unconstrained(const ConnectionSet& cs) {
  // Classic left-edge on a freely customized channel: greedily reuse the
  // track whose last connection ends leftmost. With no vertical
  // constraints this uses exactly density(cs) tracks.
  RouteResult res;
  res.routing = Routing(cs.size());
  std::vector<Column> track_end;  // rightmost used column per track
  for (ConnId i : cs.sorted_by_left()) {
    const Connection& c = cs[i];
    TrackId best = kNoTrack;
    for (TrackId t = 0; t < static_cast<TrackId>(track_end.size()); ++t) {
      if (track_end[static_cast<std::size_t>(t)] < c.left &&
          (best == kNoTrack || track_end[static_cast<std::size_t>(t)] <
                                   track_end[static_cast<std::size_t>(best)])) {
        best = t;
      }
    }
    if (best == kNoTrack) {
      track_end.push_back(c.right);
      best = static_cast<TrackId>(track_end.size()) - 1;
    } else {
      track_end[static_cast<std::size_t>(best)] = c.right;
    }
    res.routing.assign(i, best);
  }
  res.success = true;
  return res;
}

}  // namespace segroute::alg
