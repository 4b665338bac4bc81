#include "alg/lp_route.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "lp/simplex.h"

namespace segroute::alg {

namespace {

struct VarMap {
  // var id for (conn, track), or -1 when the assignment is not permitted.
  std::vector<int> id;
  TrackId tracks = 0;
  std::vector<std::pair<ConnId, TrackId>> owner;  // var -> (conn, track)

  [[nodiscard]] int at(ConnId c, TrackId t) const {
    return id[static_cast<std::size_t>(c) * static_cast<std::size_t>(tracks) +
              static_cast<std::size_t>(t)];
  }
};

/// Simplex options for the next solve under the remaining budget, or
/// nullopt when the budget is already spent.
std::optional<lp::SolveOptions> next_solve_options(
    const LpRouteOptions& opts, harness::BudgetMeter& meter) {
  if (!meter.ok()) return std::nullopt;
  lp::SolveOptions so;
  so.deadline = opts.budget.deadline;
  if (opts.budget.max_ticks > 0) {
    const std::uint64_t remaining =
        opts.budget.max_ticks > meter.ticks()
            ? opts.budget.max_ticks - meter.ticks()
            : 0;
    if (remaining == 0) return std::nullopt;
    so.max_iterations = static_cast<int>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(so.max_iterations), remaining));
  }
  return so;
}

/// Maps a non-Optimal simplex status to the failure taxonomy.
FailureKind classify_lp_status(lp::Status s) {
  switch (s) {
    case lp::Status::Infeasible:
      return FailureKind::kInfeasible;
    case lp::Status::IterationLimit:
    case lp::Status::DeadlineExceeded:
      return FailureKind::kBudgetExhausted;
    default:
      return FailureKind::kInternal;  // Unbounded cannot legitimately occur
  }
}

}  // namespace

RouteResult lp_route(const SegmentedChannel& ch, const ConnectionSet& cs,
                     const LpRouteOptions& opts) {
  RouteResult res;
  res.routing = Routing(cs.size());
  if (cs.max_right() > ch.width()) {
    res.fail(FailureKind::kInvalidInput, "connections exceed channel width");
    return res;
  }
  const ConnId M = cs.size();
  const TrackId T = ch.num_tracks();
  if (M == 0) {
    res.success = true;
    return res;
  }
  harness::BudgetMeter meter(opts.budget);

  lp::Problem base;
  VarMap vm;
  vm.tracks = T;
  vm.id.assign(static_cast<std::size_t>(M) * static_cast<std::size_t>(T), -1);
  // Generic objective perturbation: see LpRouteOptions::objective_jitter.
  std::mt19937_64 jrng(opts.jitter_seed);
  std::uniform_real_distribution<double> jit(0.0, opts.objective_jitter);
  for (ConnId i = 0; i < M; ++i) {
    for (TrackId t = 0; t < T; ++t) {
      if (opts.max_segments > 0 &&
          ch.track(t).segments_spanned(cs[i].left, cs[i].right) >
              opts.max_segments) {
        continue;
      }
      // No explicit x <= 1 rows: the per-connection sum constraint below
      // already implies them, and dropping them keeps the tableau small.
      const int v = base.add_variable(
          1.0 + (opts.objective_jitter > 0 ? jit(jrng) : 0.0));
      vm.id[static_cast<std::size_t>(i) * static_cast<std::size_t>(T) +
            static_cast<std::size_t>(t)] = v;
      vm.owner.emplace_back(i, t);
    }
  }
  // (a) each connection to at most one track.
  for (ConnId i = 0; i < M; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (TrackId t = 0; t < T; ++t) {
      if (vm.at(i, t) != -1) terms.emplace_back(vm.at(i, t), 1.0);
    }
    if (!terms.empty()) {
      base.add_constraint(std::move(terms), lp::Relation::LessEq, 1.0);
    }
  }
  // (b) per (track, segment): at most one occupant (the sets P_kj).
  for (TrackId t = 0; t < T; ++t) {
    const Track& tr = ch.track(t);
    for (SegId s = 0; s < tr.num_segments(); ++s) {
      const Segment& seg = tr.segment(s);
      std::vector<std::pair<int, double>> terms;
      for (ConnId i = 0; i < M; ++i) {
        if (vm.at(i, t) == -1) continue;
        if (seg.overlaps(cs[i].left, cs[i].right)) {
          terms.emplace_back(vm.at(i, t), 1.0);
        }
      }
      if (terms.size() > 1) {
        base.add_constraint(std::move(terms), lp::Relation::LessEq, 1.0);
      }
    }
  }

  // Fix-and-resolve loop: `fixed` pins x_v = 1.
  std::vector<int> fixed;
  for (int pass = 0;; ++pass) {
    const auto so = next_solve_options(opts, meter);
    if (!so) {
      meter.tick();  // records the violated bound for reason()
      res.fail(FailureKind::kBudgetExhausted,
               "budget exhausted: " + meter.reason());
      res.stats.rounding_passes = pass;
      return res;
    }
    lp::Problem p = base;  // copy, then append the pins
    for (int v : fixed) {
      p.add_constraint({{v, 1.0}}, lp::Relation::GreaterEq, 1.0);
    }
    const lp::Solution sol = lp::solve(p, *so);
    res.stats.iterations += static_cast<std::uint64_t>(sol.iterations);
    meter.tick(static_cast<std::uint64_t>(sol.iterations));
    if (sol.status != lp::Status::Optimal) {
      res.fail(classify_lp_status(sol.status),
               "LP not optimal (status " +
                   std::to_string(static_cast<int>(sol.status)) + ")");
      return res;
    }
    // Judge coverage by the plain assignment count sum(x), not the
    // (jittered) objective value.
    double assigned_mass = 0.0;
    for (double x : sol.x) assigned_mass += x;
    if (pass == 0) {
      res.stats.lp_objective = assigned_mass;
    }
    if (assigned_mass < static_cast<double>(M) - 1e-6) {
      // On pass 0 the relaxation optimum itself is < M, which *proves*
      // infeasibility (the LP bounds the 0-1 optimum from above); later
      // passes may merely be a rounding dead end.
      res.fail(FailureKind::kInfeasible,
               "LP coverage " + std::to_string(assigned_mass) + " < M = " +
                   std::to_string(M) + ": no routing (or heuristic dead end)");
      res.stats.rounding_passes = pass;
      return res;
    }
    // Integral?
    int most_fractional = -1;
    double best_frac = 1.0 - opts.tolerance;  // want largest value < 1-tol
    bool integral = true;
    for (std::size_t v = 0; v < sol.x.size(); ++v) {
      const double x = sol.x[v];
      if (x > opts.tolerance && x < 1.0 - opts.tolerance) {
        integral = false;
        if (most_fractional == -1 || x > sol.x[static_cast<std::size_t>(
                                              most_fractional)]) {
          most_fractional = static_cast<int>(v);
        }
      }
    }
    (void)best_frac;
    if (integral) {
      if (pass == 0) res.stats.lp_integral = true;
      res.stats.rounding_passes = pass;
      // Extract the routing.
      for (std::size_t v = 0; v < sol.x.size(); ++v) {
        if (sol.x[v] > 1.0 - opts.tolerance) {
          const auto [c, t] = vm.owner[v];
          res.routing.assign(c, t);
        }
      }
      if (!res.routing.is_complete()) {
        res.fail(FailureKind::kInternal,
                 "integral LP left a connection unassigned");
        return res;
      }
      res.success = true;
      return res;
    }
    if (pass >= opts.max_rounding_passes) {
      res.fail(FailureKind::kInfeasible,
               "fractional after " + std::to_string(pass) +
                   " rounding passes");
      res.stats.rounding_passes = pass;
      return res;
    }
    fixed.push_back(most_fractional);
  }
}

RouteResult lp_route_optimal(const SegmentedChannel& ch,
                             const ConnectionSet& cs, const WeightFn& w,
                             const LpRouteOptions& opts) {
  RouteResult res;
  res.routing = Routing(cs.size());
  if (cs.max_right() > ch.width()) {
    res.fail(FailureKind::kInvalidInput, "connections exceed channel width");
    return res;
  }
  const ConnId M = cs.size();
  const TrackId T = ch.num_tracks();
  if (M == 0) {
    res.success = true;
    return res;
  }
  harness::BudgetMeter meter(opts.budget);

  lp::Problem base;
  VarMap vm;
  vm.tracks = T;
  vm.id.assign(static_cast<std::size_t>(M) * static_cast<std::size_t>(T), -1);
  std::mt19937_64 jrng(opts.jitter_seed);
  std::uniform_real_distribution<double> jit(0.0, opts.objective_jitter);
  for (ConnId i = 0; i < M; ++i) {
    for (TrackId t = 0; t < T; ++t) {
      if (opts.max_segments > 0 &&
          ch.track(t).segments_spanned(cs[i].left, cs[i].right) >
              opts.max_segments) {
        continue;
      }
      const double weight = w(ch, cs[i], t);
      if (std::isinf(weight)) continue;
      // Minimize total weight == maximize its negation; jitter breaks
      // degenerate optimal faces exactly as in lp_route.
      const int v = base.add_variable(
          -weight - (opts.objective_jitter > 0 ? jit(jrng) : 0.0));
      vm.id[static_cast<std::size_t>(i) * static_cast<std::size_t>(T) +
            static_cast<std::size_t>(t)] = v;
      vm.owner.emplace_back(i, t);
    }
  }
  // Every connection assigned exactly once (Problem 3 needs completeness).
  for (ConnId i = 0; i < M; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (TrackId t = 0; t < T; ++t) {
      if (vm.at(i, t) != -1) terms.emplace_back(vm.at(i, t), 1.0);
    }
    if (terms.empty()) {
      res.fail(FailureKind::kInfeasible,
               "connection " + std::to_string(i) +
                   " has no finite-weight assignment");
      return res;
    }
    base.add_constraint(std::move(terms), lp::Relation::Equal, 1.0);
  }
  // Per-segment capacity.
  for (TrackId t = 0; t < T; ++t) {
    const Track& tr = ch.track(t);
    for (SegId s = 0; s < tr.num_segments(); ++s) {
      const Segment& seg = tr.segment(s);
      std::vector<std::pair<int, double>> terms;
      for (ConnId i = 0; i < M; ++i) {
        if (vm.at(i, t) == -1) continue;
        if (seg.overlaps(cs[i].left, cs[i].right)) {
          terms.emplace_back(vm.at(i, t), 1.0);
        }
      }
      if (terms.size() > 1) {
        base.add_constraint(std::move(terms), lp::Relation::LessEq, 1.0);
      }
    }
  }

  std::vector<int> fixed;
  for (int pass = 0;; ++pass) {
    const auto so = next_solve_options(opts, meter);
    if (!so) {
      meter.tick();  // records the violated bound for reason()
      res.fail(FailureKind::kBudgetExhausted,
               "budget exhausted: " + meter.reason());
      res.stats.rounding_passes = pass;
      return res;
    }
    lp::Problem p = base;
    for (int v : fixed) {
      p.add_constraint({{v, 1.0}}, lp::Relation::GreaterEq, 1.0);
    }
    const lp::Solution sol = lp::solve(p, *so);
    res.stats.iterations += static_cast<std::uint64_t>(sol.iterations);
    meter.tick(static_cast<std::uint64_t>(sol.iterations));
    if (sol.status != lp::Status::Optimal) {
      // An infeasible LP here is a proof: the == rows demand a complete
      // fractional assignment, which any true routing would satisfy.
      res.fail(classify_lp_status(sol.status),
               "LP not optimal (status " +
                   std::to_string(static_cast<int>(sol.status)) + ")");
      res.stats.rounding_passes = pass;
      return res;
    }
    int most_fractional = -1;
    bool integral = true;
    for (std::size_t v = 0; v < sol.x.size(); ++v) {
      const double x = sol.x[v];
      if (x > opts.tolerance && x < 1.0 - opts.tolerance) {
        integral = false;
        if (most_fractional == -1 ||
            x > sol.x[static_cast<std::size_t>(most_fractional)]) {
          most_fractional = static_cast<int>(v);
        }
      }
    }
    if (integral) {
      if (pass == 0) res.stats.lp_integral = true;
      res.stats.rounding_passes = pass;
      for (std::size_t v = 0; v < sol.x.size(); ++v) {
        if (sol.x[v] > 1.0 - opts.tolerance) {
          const auto [c, t] = vm.owner[v];
          res.routing.assign(c, t);
        }
      }
      if (!res.routing.is_complete()) {
        res.fail(FailureKind::kInternal,
                 "integral LP left a connection unassigned");
        return res;
      }
      double total = 0.0;
      for (ConnId i = 0; i < M; ++i) {
        total += w(ch, cs[i], res.routing.track_of(i));
      }
      res.weight = total;
      res.success = true;
      return res;
    }
    if (pass >= opts.max_rounding_passes) {
      res.fail(FailureKind::kInfeasible,
               "fractional after " + std::to_string(pass) +
                   " rounding passes");
      res.stats.rounding_passes = pass;
      return res;
    }
    fixed.push_back(most_fractional);
  }
}

}  // namespace segroute::alg
