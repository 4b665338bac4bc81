#include "harness/robust_route.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <string_view>
#include <utility>

#include "alg/registry.h"
#include "core/router.h"
#include "harness/budget.h"
#include "harness/verify.h"
#include "obs/instrument.h"

namespace segroute::harness {

using alg::FailureKind;
using alg::RouteResult;
using alg::RouterEntry;
using Clock = std::chrono::steady_clock;

namespace {

/// The cascade, strongest first: names from alg::registry().
constexpr std::array<std::string_view, 5> kCascade = {"dp", "greedy1",
                                                      "match1", "lp",
                                                      "anneal"};

RouteResult run_stage(const RouterEntry& e, const SegmentedChannel& ch,
                      const ConnectionSet& cs, const RobustOptions& o,
                      const Budget& b) {
  // Every stage goes through the registry dispatcher.
  RouteRequest rq;
  rq.channel = &ch;
  rq.connections = &cs;
  rq.options.max_segments = o.max_segments;
  // Stages without weight support route for feasibility and are scored
  // externally (total_weight below) — a weighted request would be
  // rejected as outside their capability envelope.
  if (o.weight && e.caps.supports_weight) rq.options.weight = o.weight;
  rq.budget = b;
  return alg::route(e, rq);
}

/// Does this stage set RouteResult::weight itself in optimizing mode?
/// Exactly the stages the dispatcher hands the weight to.
bool stage_reports_weight(const RouterEntry& e, const RobustOptions& o) {
  return o.weight.has_value() && e.caps.supports_weight;
}

/// A kInfeasible failure from this stage is a *proof* that no routing of
/// the posed problem exists (see the FailureKind doc): the router is
/// exact and its search completed (exact routers report budget aborts as
/// kBudgetExhausted, never kInfeasible). 1-segment routers prove it only
/// when K = 1 was actually asked for; the other exact specialists prove
/// it for any K because their kInfeasible covers the unconstrained
/// problem, whose infeasibility implies that of every restriction.
bool proves_infeasible(const RouterEntry& e, const RobustOptions& o,
                       const RouteResult& r) {
  if (r.failure != FailureKind::kInfeasible) return false;
  if (!e.caps.exact) return false;
  if (e.caps.k1_only) return o.max_segments == 1;
  return true;
}

/// A verified success from this stage is already optimal for the posed
/// optimizing problem, so later stages cannot improve on it. Anytime
/// optimizers flag best-effort answers with a non-empty note.
bool exact_optimal(const RouterEntry& e, const RobustOptions& o,
                   const RouteResult& r) {
  if (!e.caps.optimal) return false;
  if (e.caps.k1_only && o.max_segments != 1) return false;
  if (e.caps.anytime && !r.note.empty()) return false;
  return true;
}

}  // namespace

RouteReport robust_route(const SegmentedChannel& ch, const ConnectionSet& cs,
                         const RobustOptions& opts) {
  const auto t0 = Clock::now();
  auto ms_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };

  RouteReport report;
  report.routing = Routing(cs.size());
  SEGROUTE_SPAN(route_span, "robust.route");

  const RouteVerifier verifier(ch, cs);
  std::optional<Clock::time_point> end;
  if (opts.deadline) end = t0 + *opts.deadline;

  // Best verified candidate so far (optimizing mode accumulates; in
  // feasibility mode the first one ends the cascade).
  // Names point into the registry (static strings, usable as span tags).
  bool have_candidate = false;
  double best_weight = std::numeric_limits<double>::infinity();
  const char* best_name = "?";

  bool proven_infeasible = false;
  const char* proven_name = "?";
  std::string proven_note;

  for (std::size_t k = 0; k < kCascade.size(); ++k) {
    const RouterEntry& entry = *alg::find_router(kCascade[k]);
    SEGROUTE_SPAN(stage_span, entry.name, "router", entry.name);
    StageReport sr;
    sr.router = entry.name;

    // This stage's slice: remaining time split over remaining stages
    // (later stages inherit unspent time).
    Budget b;
    if (end) {
      const Clock::time_point now = Clock::now();
      const Clock::duration remaining = *end - now;
      // Stage-boundary sample of the time budget still unspent.
      SEGROUTE_GAUGE_SET(
          "robust.budget_remaining_ms",
          std::max(0.0, std::chrono::duration<double, std::milli>(remaining)
                            .count()));
      if (remaining <= Clock::duration::zero()) {
        sr.failure = FailureKind::kBudgetExhausted;
        sr.note = "overall deadline exhausted before stage started";
        SEGROUTE_SPAN_TAG(stage_span, "outcome", to_string(sr.failure));
        report.stages.push_back(std::move(sr));
        continue;
      }
      b.deadline = now + remaining / static_cast<Clock::rep>(
                                         kCascade.size() - k);
    }

    sr.attempted = true;
    const auto stage_t0 = Clock::now();
    const RouteResult r = run_stage(entry, ch, cs, opts, b);
    sr.elapsed_ms = ms_since(stage_t0);
    sr.success = r.success;
    sr.failure = r.failure;
    sr.note = r.note;

    if (r.success) {
      VerifyOptions vo;
      vo.max_segments = opts.max_segments;
      if (stage_reports_weight(entry, opts)) {
        vo.weight = opts.weight;  // expectation = r.weight (checked)
      }
      const VerifyResult v = verifier.check(r, vo);
      if (!v) {
        sr.success = false;
        sr.failure = FailureKind::kVerificationFailed;
        sr.note = std::string(to_string(v.error)) + ": " + v.detail;
      } else {
        sr.verified = true;
        double w = r.weight;
        if (opts.weight && !stage_reports_weight(entry, opts)) {
          w = total_weight(ch, cs, r.routing, *opts.weight);
        }
        sr.weight = w;
        SEGROUTE_SPAN_TAG(stage_span, "outcome", "success");
        report.stages.push_back(std::move(sr));
        if (!have_candidate || w < best_weight) {
          report.routing = r.routing;
          best_weight = w;
          best_name = entry.name;
          have_candidate = true;
        }
        // Feasibility mode: the first verified routing wins.
        if (!opts.weight || exact_optimal(entry, opts, r)) break;
        continue;
      }
    } else if (proves_infeasible(entry, opts, r)) {
      proven_infeasible = true;
      proven_name = entry.name;
      proven_note = sr.note;
      SEGROUTE_SPAN_TAG(stage_span, "outcome", to_string(sr.failure));
      report.stages.push_back(std::move(sr));
      break;
    }
    SEGROUTE_SPAN_TAG(stage_span, "outcome", to_string(sr.failure));
    report.stages.push_back(std::move(sr));
  }

  if (have_candidate) {
    report.success = true;
    report.winner = best_name;
    if (opts.weight) report.weight = best_weight;
    report.note = std::string("routed by stage ") + best_name;
    SEGROUTE_INSTANT("robust.winner", "router", best_name);
  } else if (proven_infeasible) {
    report.failure = FailureKind::kInfeasible;
    report.note = "proven infeasible by stage " + std::string(proven_name) +
                  ": " + proven_note;
  } else {
    // Aggregate: all-invalid-input > budget exhaustion > verification
    // failure > infeasible-looking give-ups.
    bool all_invalid = true, any_budget = false, any_verify = false;
    for (const StageReport& sr : report.stages) {
      if (sr.failure != FailureKind::kInvalidInput) all_invalid = false;
      if (sr.failure == FailureKind::kBudgetExhausted) any_budget = true;
      if (sr.failure == FailureKind::kVerificationFailed) any_verify = true;
    }
    if (all_invalid) {
      report.failure = FailureKind::kInvalidInput;
      report.note = "every stage rejected the input";
    } else if (any_budget) {
      report.failure = FailureKind::kBudgetExhausted;
      report.note = "no routing found within budget";
    } else if (any_verify) {
      report.failure = FailureKind::kVerificationFailed;
      report.note = "a routing was produced but failed verification";
    } else {
      report.failure = FailureKind::kInfeasible;
      report.note =
          "no stage found a routing (not a proof unless an exact stage ran "
          "to completion)";
    }
  }
  SEGROUTE_SPAN_TAG(route_span, "outcome",
                    report.success ? "success" : to_string(report.failure));
  report.elapsed_ms = ms_since(t0);
  return report;
}

}  // namespace segroute::harness
