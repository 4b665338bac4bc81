#include "alg/registry.h"

#include <string>

#include "alg/anneal_route.h"
#include "alg/branch_bound.h"
#include "alg/delta.h"
#include "alg/dp.h"
#include "alg/exhaustive.h"
#include "alg/greedy1.h"
#include "alg/greedy2track.h"
#include "alg/left_edge.h"
#include "alg/lp_route.h"
#include "alg/match1.h"
#include "alg/partial.h"
#include "core/routing.h"
#include "net/express.h"
#include "obs/instrument.h"

namespace segroute::alg {

namespace {

// Each adapter routes with its router's default options plus the
// request's common knobs and budget.

RouteResult route_dp(const RouteRequest& rq) {
  DpOptions o;
  o.max_segments = rq.options.max_segments;
  o.weight = rq.options.weight;
  o.budget = rq.budget;
  return dp_route(*rq.channel, *rq.connections, o);
}

RouteResult route_greedy1(const RouteRequest& rq) {
  return greedy1_route(*rq.channel, *rq.connections);
}

RouteResult route_match1(const RouteRequest& rq) {
  if (rq.options.weight) {
    return match1_route_optimal(*rq.channel, *rq.connections,
                                *rq.options.weight);
  }
  return match1_route(*rq.channel, *rq.connections);
}

RouteResult route_greedy2track(const RouteRequest& rq) {
  return greedy2track_route(*rq.channel, *rq.connections);
}

RouteResult route_left_edge(const RouteRequest& rq) {
  return left_edge_route(*rq.channel, *rq.connections,
                         rq.options.max_segments);
}

RouteResult route_lp(const RouteRequest& rq) {
  LpRouteOptions o;
  o.max_segments = rq.options.max_segments;
  o.budget = rq.budget;
  if (rq.options.weight) {
    return lp_route_optimal(*rq.channel, *rq.connections, *rq.options.weight,
                            o);
  }
  return lp_route(*rq.channel, *rq.connections, o);
}

RouteResult route_anneal(const RouteRequest& rq) {
  AnnealRouteOptions o;
  o.max_segments = rq.options.max_segments;
  o.budget = rq.budget;
  return anneal_route(*rq.channel, *rq.connections, o);
}

RouteResult route_branch_bound(const RouteRequest& rq) {
  BranchBoundOptions o;
  o.max_segments = rq.options.max_segments;
  o.budget = rq.budget;
  return branch_bound_route(*rq.channel, *rq.connections, *rq.options.weight,
                            o);
}

RouteResult route_exhaustive(const RouteRequest& rq) {
  ExhaustiveOptions o;
  o.max_segments = rq.options.max_segments;
  o.weight = rq.options.weight;
  o.budget = rq.budget;
  return exhaustive_route(*rq.channel, *rq.connections, o);
}

/// The edit session's canonical routing of a whole set (alg/delta.h):
/// what an OnlineRouter with the default best-fit policy that added the
/// set in id order holds.
RouteResult route_online(const RouteRequest& rq) {
  CanonicalResult cr =
      from_scratch(*rq.channel, *rq.connections, /*policy_best_fit=*/true,
                   rq.options.max_segments, rq.budget);
  if (cr.result.success && cr.result.note.empty()) {
    cr.result.note = cr.path == RepairOutcome::Path::kRepair ? "regime=greedy"
                                                             : "regime=dp";
  }
  return cr.result;
}

RouteResult route_express(const RouteRequest& rq) {
  return net::express_route(*rq.channel, *rq.connections,
                            rq.options.max_segments);
}

RouteResult route_partial(const RouteRequest& rq) {
  PartialOptions o;
  o.max_segments = rq.options.max_segments;
  o.budget = rq.budget;
  return partial_route(*rq.channel, *rq.connections, o);
}

/// Comma-separated registry names, for the unknown-router diagnostic.
const std::string& known_router_names() {
  static const std::string names = [] {
    std::string s;
    for (const RouterEntry& e : registry()) {
      if (!s.empty()) s += ", ";
      s += e.name;
    }
    return s;
  }();
  return names;
}

}  // namespace

const std::vector<RouterEntry>& registry() {
  static const std::vector<RouterEntry> entries = {
      {"dp", "Problems 1-3 (Sec. IV-B assignment-graph DP)",
       "O(M * L) nodes, L <= (K+1)^T",
       {.exact = true,
        .optimal = true,
        .supports_weight = true,
        .supports_k = true},
       &route_dp},
      {"greedy1", "Problem 2, K=1 (Sec. IV-A Theorem 3 greedy)", "O(M * T)",
       {.exact = true, .k1_only = true}, &route_greedy1},
      {"match1", "Problems 2-3, K=1 (Sec. IV-A bipartite matching)",
       "O(M^2 * S) Hungarian",
       {.exact = true,
        .optimal = true,
        .supports_weight = true,
        .k1_only = true},
       &route_match1},
      {"greedy2track", "Problem 1, <=2 segments/track (Sec. IV-A Theorem 4)",
       "O(M * T)", {.exact = true, .needs_le2_segments_per_track = true},
       &route_greedy2track},
      {"left_edge", "Problems 1-2, identical tracks (Sec. IV-A)", "O(M * T)",
       {.exact = true, .supports_k = true, .needs_identical_tracks = true},
       &route_left_edge},
      {"lp", "Problems 1-3 heuristic (Sec. IV-C LP relaxation)",
       "heuristic (simplex)",
       {.supports_weight = true, .supports_k = true}, &route_lp},
      {"anneal", "Problems 1-2 heuristic (simulated annealing)",
       "heuristic", {.supports_k = true}, &route_anneal},
      {"branch_bound", "Problem 3 (branch-and-bound over left-end order)",
       "exponential worst case, O(M) memory",
       {.exact = true,
        .optimal = true,
        .supports_weight = true,
        .requires_weight = true,
        .supports_k = true,
        .anytime = true},
       &route_branch_bound},
      {"exhaustive", "Problems 1-3 oracle (backtracking)", "O(T^M)",
       {.exact = true,
        .optimal = true,
        .supports_weight = true,
        .supports_k = true,
        .anytime = true},
       &route_exhaustive},
      {"online", "Problems 1-2 (edit session: canonical greedy, DP "
       "fallback)",
       "O(M * T) greedy; DP on fallback",
       {.exact = true, .supports_k = true}, &route_online},
      {"express", "Problems 1-2 heuristic (express-lane circuit switching)",
       "O(M * T)", {.supports_k = true}, &route_express},
      {"partial", "Problems 1-2 best-effort (maximal greedy subset)",
       "O(M * T)", {.supports_k = true, .anytime = true}, &route_partial},
  };
  return entries;
}

const RouterEntry* find_router(std::string_view name) {
  for (const RouterEntry& e : registry()) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

RouteResult route(const RouterEntry& e, const RouteRequest& req) {
  SEGROUTE_SPAN(span, "alg.route", "router", e.name);
  SEGROUTE_COUNT("registry.routes", 1);
  RouteResult res;
  if (req.channel == nullptr || req.connections == nullptr) {
    res.fail(FailureKind::kInvalidInput,
             std::string(e.name) + ": null channel or connections");
    return res;
  }
  res.routing = Routing(req.connections->size());
  if (req.options.max_segments < 0) {
    res.fail(FailureKind::kInvalidInput,
             std::string(e.name) + ": negative max_segments");
    return res;
  }
  if (req.options.weight && !e.caps.supports_weight) {
    res.fail(FailureKind::kInvalidInput,
             std::string(e.name) + ": router does not support a weight");
    return res;
  }
  if (!req.options.weight && e.caps.requires_weight) {
    res.fail(FailureKind::kInvalidInput,
             std::string(e.name) + ": router requires a weight");
    return res;
  }
  if (e.caps.needs_identical_tracks && !req.channel->identically_segmented()) {
    res.fail(FailureKind::kInvalidInput,
             std::string(e.name) + ": channel must be identically segmented");
    return res;
  }
  if (e.caps.needs_le2_segments_per_track &&
      req.channel->max_segments_per_track() > 2) {
    res.fail(FailureKind::kInvalidInput,
             std::string(e.name) +
                 ": every track must have at most two segments");
    return res;
  }
  return e.route(req);
}

RouteResult route(std::string_view name, const RouteRequest& req) {
  const RouterEntry* e = find_router(name);
  if (e == nullptr) {
    RouteResult res;
    if (req.connections != nullptr) {
      res.routing = Routing(req.connections->size());
    }
    res.fail(FailureKind::kInvalidInput,
             "unknown router \"" + std::string(name) +
                 "\" (known: " + known_router_names() + ")");
    return res;
  }
  return route(*e, req);
}

io::Table capability_table() {
  io::Table t({"router", "problem", "exact", "optimal", "K-limit",
               "complexity"});
  for (const RouterEntry& e : registry()) {
    const char* exact = e.caps.exact
                            ? (e.caps.k1_only ? "yes (K=1)" : "yes")
                            : "heuristic";
    const char* optimal =
        e.caps.optimal
            ? (e.caps.anytime ? "yes (anytime)" : "yes")
            : (e.caps.supports_weight ? "weighted, not proven" : "no");
    const char* klimit = e.caps.supports_k
                             ? "yes"
                             : (e.caps.k1_only ? "K=1 only" : "no");
    t.add_row({e.name, e.problem, exact, optimal, klimit, e.complexity});
  }
  return t;
}

}  // namespace segroute::alg
