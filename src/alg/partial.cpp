#include "alg/partial.h"

#include <optional>
#include <string>

#include "core/routing.h"
#include "obs/instrument.h"

namespace segroute::alg {

RouteResult partial_route(const SegmentedChannel& ch, const ConnectionSet& cs,
                          const PartialOptions& opts, const RouteContext& ctx) {
  SEGROUTE_SPAN(span, "alg.partial");
  RouteResult res;
  res.routing = Routing(cs.size());
  if (opts.max_segments < 0) {
    res.fail(FailureKind::kInvalidInput, "partial: negative max_segments");
    return res;
  }

  const Column W = ch.width();

  // Borrowed workspace when the engine provides one, a local otherwise.
  std::optional<Occupancy> local;
  Occupancy* occ = ctx.occupancy;
  if (occ) {
    occ->rebind(ch);  // clears; reuses rows when the shape matches
  } else {
    local.emplace(ch);
    occ = &*local;
  }

  harness::BudgetMeter meter(opts.budget);
  int budget_dead_from = -1;

  for (ConnId i = 0; i < cs.size(); ++i) {
    if (!meter.tick()) {
      budget_dead_from = i;
      break;
    }
    const Connection& c = cs[i];
    if (c.left < 1 || c.right > W || c.left > c.right) {
      res.unrouted.push_back({i, FailureKind::kInvalidInput});
      continue;
    }
    const TrackId best =
        best_fit_track(ch, *occ, c.left, c.right, opts.max_segments,
                       FitScore::kSegmentsSpanned);
    if (best == kNoTrack) {
      res.unrouted.push_back({i, FailureKind::kInfeasible});
      continue;
    }
    occ->place(best, c.left, c.right, i);
    res.routing.assign(i, best);
  }
  if (budget_dead_from >= 0) {
    for (ConnId i = budget_dead_from; i < cs.size(); ++i) {
      res.unrouted.push_back({i, FailureKind::kBudgetExhausted});
    }
  }

  if (res.unrouted.empty()) {
    res.success = true;
    return res;
  }
  res.partial = true;  // the subset contract holds even when it is empty
  res.failure = budget_dead_from >= 0 ? FailureKind::kBudgetExhausted
                                      : FailureKind::kInfeasible;
  res.note = "partial: routed " + std::to_string(res.routing.num_assigned()) +
             " of " + std::to_string(cs.size()) + " connections" +
             (budget_dead_from >= 0 ? " (" + meter.reason() + ")" : "");
  SEGROUTE_COUNT("partial.unrouted", res.unrouted.size());
  return res;
}

}  // namespace segroute::alg
