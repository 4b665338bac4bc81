#include "alg/branch_bound.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/routing.h"
#include "obs/instrument.h"

namespace segroute::alg {

namespace {

struct Choice {
  TrackId track;
  double weight;
};

struct Search {
  const SegmentedChannel& ch;
  const ConnectionSet& cs;
  const BranchBoundOptions& opts;
  harness::BudgetMeter meter;
  std::vector<ConnId> order;
  std::vector<std::vector<Choice>> choices;  // per depth, cheapest first
  std::vector<double> suffix_bound;  // sum of per-conn minima from depth d
  Occupancy occ;
  Routing current;
  Routing best;
  double best_weight = std::numeric_limits<double>::infinity();
  bool found = false;
  bool aborted = false;
  std::uint64_t nodes = 0;
  // Pruning tallies (plain locals in the recursion, flushed once after
  // the search): subtrees cut by the suffix bound, and sorted-choice
  // scans cut short because no later child could beat the incumbent.
  std::uint64_t bound_prunes = 0;
  std::uint64_t choice_prunes = 0;

  Search(const SegmentedChannel& c, const ConnectionSet& s,
         const BranchBoundOptions& o)
      : ch(c), cs(s), opts(o), meter(o.budget), order(s.sorted_by_left()),
        occ(c), current(s.size()), best(s.size()) {}

  void dfs(std::size_t depth, double cost) {
    if (aborted) return;
    if (++nodes > opts.max_nodes || !meter.tick()) {
      aborted = true;
      return;
    }
    if (cost + suffix_bound[depth] >= best_weight) {  // bound
      ++bound_prunes;
      return;
    }
    if (depth == order.size()) {
      best = current;
      best_weight = cost;
      found = true;
      return;
    }
    const ConnId i = order[depth];
    const Connection& c = cs[i];
    for (const Choice& ch_ : choices[depth]) {
      if (cost + ch_.weight + suffix_bound[depth + 1] >= best_weight) {
        ++choice_prunes;
        break;  // choices are sorted: no later child can do better
      }
      if (!occ.place(ch_.track, c.left, c.right, i)) continue;
      current.assign(i, ch_.track);
      dfs(depth + 1, cost + ch_.weight);
      current.unassign(i);
      occ.remove(ch_.track, c.left, c.right);
      if (aborted) return;
    }
  }
};

}  // namespace

RouteResult branch_bound_route(const SegmentedChannel& ch,
                               const ConnectionSet& cs, const WeightFn& w,
                               const BranchBoundOptions& opts) {
  RouteResult res;
  res.routing = Routing(cs.size());
  SEGROUTE_SPAN(bb_span, "alg.branch_bound_route");
  if (cs.max_right() > ch.width()) {
    res.fail(FailureKind::kInvalidInput, "connections exceed channel width");
    SEGROUTE_SPAN_TAG(bb_span, "outcome", to_string(res.failure));
    return res;
  }
  if (cs.size() == 0) {
    res.success = true;
    SEGROUTE_SPAN_TAG(bb_span, "outcome", "success");
    return res;
  }

  Search s(ch, cs, opts);
  s.choices.resize(s.order.size());
  for (std::size_t d = 0; d < s.order.size(); ++d) {
    const Connection& c = cs[s.order[d]];
    auto& opt = s.choices[d];
    for (TrackId t = 0; t < ch.num_tracks(); ++t) {
      if (opts.max_segments > 0 &&
          ch.track(t).segments_spanned(c.left, c.right) > opts.max_segments) {
        continue;
      }
      const double weight = w(ch, c, t);
      if (std::isinf(weight)) continue;
      opt.push_back(Choice{t, weight});
    }
    if (opt.empty()) {
      res.fail(FailureKind::kInfeasible,
               "connection " + std::to_string(s.order[d]) +
                   " has no feasible track");
      SEGROUTE_SPAN_TAG(bb_span, "outcome", to_string(res.failure));
      return res;
    }
    std::sort(opt.begin(), opt.end(), [](const Choice& a, const Choice& b) {
      return a.weight < b.weight;
    });
  }
  // Admissible suffix bounds: sum of each remaining connection's cheapest
  // feasible assignment (ignores conflicts, so it never overestimates).
  s.suffix_bound.assign(s.order.size() + 1, 0.0);
  for (std::size_t d = s.order.size(); d-- > 0;) {
    s.suffix_bound[d] = s.suffix_bound[d + 1] + s.choices[d].front().weight;
  }

  s.dfs(0, 0.0);
  res.stats.iterations = s.nodes;
  SEGROUTE_COUNT("branch_bound.nodes", s.nodes);
  SEGROUTE_COUNT("branch_bound.bound_prunes", s.bound_prunes);
  SEGROUTE_COUNT("branch_bound.choice_prunes", s.choice_prunes);
  if (!s.found) {
    if (s.aborted) {
      res.fail(FailureKind::kBudgetExhausted,
               s.meter.exhausted()
                   ? "budget exhausted before any routing was found: " +
                         s.meter.reason()
                   : "node limit exceeded before any routing was found");
    } else {
      res.fail(FailureKind::kInfeasible, "no routing exists (search exhausted)");
    }
    SEGROUTE_SPAN_TAG(bb_span, "outcome", to_string(res.failure));
    return res;
  }
  res.success = true;
  SEGROUTE_SPAN_TAG(bb_span, "outcome", "success");
  res.routing = s.best;
  res.weight = s.best_weight;
  if (s.aborted) {
    res.note = "node limit exceeded: best routing found so far (may be "
               "suboptimal)";
  }
  return res;
}

}  // namespace segroute::alg
