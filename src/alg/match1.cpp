#include "alg/match1.h"

#include <cmath>

#include "match/hopcroft_karp.h"
#include "match/hungarian.h"
#include "obs/instrument.h"

namespace segroute::alg {

namespace {

/// Flattened (track, segment) index space for the right-hand side.
struct SegIndex {
  std::vector<int> base;  // per track, offset of its first segment
  int total = 0;

  explicit SegIndex(const SegmentedChannel& ch) {
    base.reserve(static_cast<std::size_t>(ch.num_tracks()));
    for (TrackId t = 0; t < ch.num_tracks(); ++t) {
      base.push_back(total);
      total += ch.track(t).num_segments();
    }
  }
  [[nodiscard]] int flat(TrackId t, SegId s) const {
    return base[static_cast<std::size_t>(t)] + s;
  }
  [[nodiscard]] TrackId track_of_flat(int f) const {
    TrackId t = static_cast<TrackId>(base.size()) - 1;
    while (base[static_cast<std::size_t>(t)] > f) --t;
    return t;
  }
};

}  // namespace

RouteResult match1_route(const SegmentedChannel& ch, const ConnectionSet& cs) {
  RouteResult res;
  res.routing = Routing(cs.size());
  SEGROUTE_SPAN(m1_span, "alg.match1_route");
  if (cs.max_right() > ch.width()) {
    res.fail(FailureKind::kInvalidInput, "connections exceed channel width");
    SEGROUTE_SPAN_TAG(m1_span, "outcome", to_string(res.failure));
    return res;
  }
  const SegIndex idx(ch);
  match::BipartiteGraph g(cs.size(), idx.total);
  std::uint64_t edges = 0;
  {
    SEGROUTE_SPAN(build_span, "match1.build_graph");
    for (ConnId i = 0; i < cs.size(); ++i) {
      const Connection& c = cs[i];
      for (TrackId t = 0; t < ch.num_tracks(); ++t) {
        auto [a, b] = ch.track(t).span(c.left, c.right);
        if (a == b) {
          g.add_edge(i, idx.flat(t, a));
          ++edges;
        }
      }
    }
  }
  SEGROUTE_COUNT("match1.graph_edges", edges);
  SEGROUTE_SPAN(match_span, "match1.matching");
  const auto m = match::hopcroft_karp(g);
  SEGROUTE_SPAN_TAG(match_span, "matched", static_cast<std::uint64_t>(m.size));
  if (m.size != cs.size()) {
    res.fail(FailureKind::kInfeasible,
             "maximum matching covers only " + std::to_string(m.size) +
                 " of " + std::to_string(cs.size()) + " connections");
    SEGROUTE_SPAN_TAG(m1_span, "outcome", to_string(res.failure));
    return res;
  }
  for (ConnId i = 0; i < cs.size(); ++i) {
    res.routing.assign(i, idx.track_of_flat(m.match_left[static_cast<std::size_t>(i)]));
  }
  res.success = true;
  SEGROUTE_SPAN_TAG(m1_span, "outcome", "success");
  return res;
}

RouteResult match1_route_optimal(const SegmentedChannel& ch,
                                 const ConnectionSet& cs, const WeightFn& w) {
  RouteResult res;
  res.routing = Routing(cs.size());
  if (cs.size() == 0) {
    res.success = true;
    return res;
  }
  if (cs.max_right() > ch.width()) {
    res.note = "connections exceed channel width";
    return res;
  }
  const SegIndex idx(ch);
  const int total = idx.total;
  if (cs.size() > total) {
    res.fail(FailureKind::kInfeasible, "more connections than segments");
    return res;
  }
  std::vector<double> cost(static_cast<std::size_t>(cs.size()) *
                               static_cast<std::size_t>(total),
                           match::kForbidden);
  for (ConnId i = 0; i < cs.size(); ++i) {
    const Connection& c = cs[i];
    for (TrackId t = 0; t < ch.num_tracks(); ++t) {
      auto [a, b] = ch.track(t).span(c.left, c.right);
      if (a != b) continue;
      const double wc = w(ch, c, t);
      if (std::isinf(wc)) continue;
      cost[static_cast<std::size_t>(i) * static_cast<std::size_t>(total) +
           static_cast<std::size_t>(idx.flat(t, a))] = wc;
    }
  }
  const auto m = match::hungarian(cs.size(), total, cost);
  if (!m.feasible) {
    res.fail(FailureKind::kInfeasible, "no complete 1-segment routing exists");
    return res;
  }
  for (ConnId i = 0; i < cs.size(); ++i) {
    res.routing.assign(
        i, idx.track_of_flat(m.column_of[static_cast<std::size_t>(i)]));
  }
  res.weight = m.cost;
  res.success = true;
  return res;
}

}  // namespace segroute::alg
