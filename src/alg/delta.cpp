#include "alg/delta.h"

#include "alg/registry.h"
#include "core/routing.h"

namespace segroute::alg {

const char* to_string(ChannelEdit::Kind k) {
  switch (k) {
    case ChannelEdit::Kind::kAdd: return "add";
    case ChannelEdit::Kind::kRemove: return "remove";
    case ChannelEdit::Kind::kMove: return "move";
  }
  return "?";
}

const char* to_string(RepairOutcome::Path p) {
  switch (p) {
    case RepairOutcome::Path::kNone: return "none";
    case RepairOutcome::Path::kRepair: return "repair";
    case RepairOutcome::Path::kFullDp: return "full-dp";
  }
  return "?";
}

CanonicalResult from_scratch(const SegmentedChannel& ch,
                             const ConnectionSet& cs, bool policy_best_fit,
                             int max_segments, const harness::Budget& budget) {
  CanonicalResult out;
  out.result.routing = Routing(cs.size());

  Occupancy occ(ch);
  const FitScore score =
      policy_best_fit ? FitScore::kOccupiedLength : FitScore::kFirstFit;
  bool greedy_ok = true;
  for (ConnId i = 0; i < cs.size(); ++i) {
    const Connection& c = cs[i];
    if (c.left < 1 || c.left > c.right || c.right > ch.width()) {
      out.result.fail(FailureKind::kInvalidInput,
                      "delta: connection " + std::to_string(i) +
                          " has an invalid span");
      return out;
    }
    const TrackId t =
        best_fit_track(ch, occ, c.left, c.right, max_segments, score);
    if (t == kNoTrack) {
      greedy_ok = false;
      break;
    }
    occ.place(t, c.left, c.right, i);
    out.result.routing.assign(i, t);
  }
  if (greedy_ok) {
    out.result.success = true;
    out.regime = CanonicalRegime::kGreedy;
    return out;
  }

  // Greedy left a connection unplaced: canonical(S) is the exact DP's
  // answer (registry "dp", default options).
  RouteRequest rq;
  rq.channel = &ch;
  rq.connections = &cs;
  rq.options.max_segments = max_segments;
  rq.budget = budget;
  out.result = route("dp", rq);
  out.regime = CanonicalRegime::kDp;
  return out;
}

}  // namespace segroute::alg
