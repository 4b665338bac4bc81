#include "harness/robust_route.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "alg/partial.h"
#include "alg/registry.h"
#include "core/channel_index.h"
#include "core/router.h"
#include "engine/scratch.h"
#include "obs/instrument.h"

namespace segroute::harness {

using alg::FailureKind;
using alg::RouteResult;
using alg::RouterEntry;
using Clock = std::chrono::steady_clock;

namespace {

std::vector<StageSpec> default_cascade() {
  return {{"dp", {}}, {"greedy1", {}}, {"match1", {}}, {"lp", {}},
          {"anneal", {}}};
}

/// A budget with its deadline and tick cap multiplied by `factor` (the
/// ladder's escalation; 1.0 = unchanged). Cancellation passes through.
Budget scale_budget(Budget b, double factor) {
  if (factor > 1.0) {
    if (b.deadline) {
      b.deadline = std::chrono::milliseconds(
          static_cast<std::chrono::milliseconds::rep>(
              std::ceil(static_cast<double>(b.deadline->count()) * factor)));
    }
    if (b.max_ticks > 0) {
      b.max_ticks = static_cast<std::uint64_t>(
          std::ceil(static_cast<double>(b.max_ticks) * factor));
    }
  }
  return b;
}

std::chrono::milliseconds scale_ms(std::chrono::milliseconds d,
                                   double factor) {
  if (factor <= 1.0) return d;
  return std::chrono::milliseconds(
      static_cast<std::chrono::milliseconds::rep>(
          std::ceil(static_cast<double>(d.count()) * factor)));
}

RouteResult run_stage(const RouterEntry& e, const SegmentedChannel& ch,
                      const ConnectionSet& cs, const RobustOptions& o,
                      const Budget& b, std::uint64_t fingerprint) {
  // Every stage goes through the registry dispatcher with the calling
  // thread's scratch arenas, keyed by the routed substrate's fingerprint.
  engine::Scratch& scratch = engine::thread_scratch();
  RouteRequest rq;
  rq.channel = &ch;
  rq.connections = &cs;
  rq.context.occupancy = &scratch.occupancy_for(ch, fingerprint);
  rq.dp_workspace = &scratch.dp();
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

  // Fault injection: route on the surviving channel.
  const SegmentedChannel* substrate = &ch;
  std::optional<FaultyChannel> degraded;
  if (opts.faults) {
    report.faults_applied = true;
    degraded = harness::apply(ch, opts.faults->sample(ch));
    if (!degraded) {
      report.tracks_lost = ch.num_tracks();
      report.failure = FailureKind::kInfeasible;
      report.note = "fault injection removed every track (total outage)";
      report.elapsed_ms = ms_since(t0);
      SEGROUTE_SPAN_TAG(route_span, "outcome", to_string(report.failure));
      return report;
    }
    report.switches_fused = degraded->switches_fused;
    report.tracks_lost = degraded->tracks_lost;
    substrate = &degraded->channel;
  }

  const std::vector<StageSpec> cascade =
      opts.stages.empty() ? default_cascade() : opts.stages;
  // One index per call, built on the substrate actually routed — after
  // fault application, so a degraded channel gets its own fingerprint.
  // It keys the checkpoints and the scratch arenas.
  const ChannelIndex index(*substrate);
  const RouteVerifier verifier(*substrate, cs);

  // Substrate-coordinate routing -> original-track coordinates.
  const auto map_back = [&](const Routing& r) {
    if (!degraded) return r;
    Routing mapped(cs.size());
    for (ConnId i = 0; i < cs.size(); ++i) {
      const TrackId t = r.track_of(i);
      if (t != kNoTrack) mapped.assign(i, degraded->kept_tracks[t]);
    }
    return mapped;
  };

  // Checkpoint fast-path: a verified routing saved earlier for this very
  // substrate answers a feasibility call without running any stage. The
  // restore re-verifies, so a stale or corrupt checkpoint falls through
  // to the cascade instead of being served. When the checkpoint recorded
  // its connection spans and the caller's set differs — an *edit* of the
  // checkpointed workload — a repair pre-stage aligns the two sequences,
  // keeps every common connection on its checkpointed track, best-fit
  // places only the edited middle, and verifies the result (winner
  // "repair") before any cascade stage runs.
  if (opts.checkpoints && !opts.weight) {
    const auto ckpt = opts.checkpoints->find(index.fingerprint());
    const auto spans_match = [&] {
      if (ckpt->conns.size() != static_cast<std::size_t>(cs.size())) {
        return false;
      }
      for (ConnId i = 0; i < cs.size(); ++i) {
        const auto& [l, r] = ckpt->conns[static_cast<std::size_t>(i)];
        if (l != cs[i].left || r != cs[i].right) return false;
      }
      return true;
    };
    if (ckpt && (ckpt->conns.empty() || spans_match())) {
      // Exact (or legacy, span-less) checkpoint: re-verify through
      // restore(), which also drops a stale entry so it cannot be
      // served again.
      VerifyOptions vo;
      vo.max_segments = opts.max_segments;
      if (auto verified = opts.checkpoints->restore(index.fingerprint(),
                                                    *substrate, cs, vo)) {
        report.success = true;
        report.winner = "checkpoint";
        report.routing = map_back(verified->routing);
        report.note =
            "restored checkpoint (saved by " +
            (verified->source.empty() ? std::string("?") : verified->source) +
            ")";
        report.elapsed_ms = ms_since(t0);
        SEGROUTE_COUNT("recover.checkpoint_hits", 1);
        SEGROUTE_SPAN_TAG(route_span, "outcome", "checkpoint");
        return report;
      }
    } else if (ckpt) {
      // Align: longest common prefix and suffix of the span sequences;
      // the middle is what the edit changed.
      const auto& old_spans = ckpt->conns;
      const std::size_t n_old = old_spans.size();
      const std::size_t n_new = static_cast<std::size_t>(cs.size());
      std::size_t prefix = 0;
      while (prefix < n_old && prefix < n_new &&
             old_spans[prefix].first == cs[static_cast<ConnId>(prefix)].left &&
             old_spans[prefix].second ==
                 cs[static_cast<ConnId>(prefix)].right) {
        ++prefix;
      }
      std::size_t suffix = 0;
      while (suffix < n_old - prefix && suffix < n_new - prefix &&
             old_spans[n_old - 1 - suffix].first ==
                 cs[static_cast<ConnId>(n_new - 1 - suffix)].left &&
             old_spans[n_old - 1 - suffix].second ==
                 cs[static_cast<ConnId>(n_new - 1 - suffix)].right) {
        ++suffix;
      }
      // Keep the aligned connections on their checkpointed tracks; place
      // the edited middle best-fit into what remains. Any conflict or
      // unplaceable connection abandons the repair (the cascade runs).
      Occupancy occ(*substrate);
      Routing candidate(cs.size());
      bool ok = ckpt->routing.size() == static_cast<ConnId>(n_old);
      for (std::size_t i = 0; ok && i < prefix; ++i) {
        const auto id = static_cast<ConnId>(i);
        const TrackId t = ckpt->routing.track_of(id);
        ok = t != kNoTrack && occ.place(t, cs[id].left, cs[id].right, id);
        if (ok) candidate.assign(id, t);
      }
      for (std::size_t j = 0; ok && j < suffix; ++j) {
        const auto id = static_cast<ConnId>(n_new - 1 - j);
        const TrackId t =
            ckpt->routing.track_of(static_cast<ConnId>(n_old - 1 - j));
        ok = t != kNoTrack && occ.place(t, cs[id].left, cs[id].right, id);
        if (ok) candidate.assign(id, t);
      }
      for (std::size_t i = prefix; ok && i < n_new - suffix; ++i) {
        const auto id = static_cast<ConnId>(i);
        const Connection& c = cs[id];
        // A span past the substrate abandons the repair; the cascade
        // reports it as kInvalidInput.
        const TrackId best =
            c.right <= substrate->width()
                ? best_fit_track(*substrate, occ, c.left, c.right,
                                 opts.max_segments, FitScore::kOccupiedLength)
                : kNoTrack;
        ok = best != kNoTrack;
        if (ok) {
          occ.place(best, c.left, c.right, id);
          candidate.assign(id, best);
        }
      }
      if (ok) {
        VerifyOptions vo;
        vo.max_segments = opts.max_segments;
        if (verifier.check(candidate, vo)) {
          report.success = true;
          report.winner = "repair";
          report.routing = map_back(candidate);
          report.note = "repaired from checkpoint (saved by " +
                        (ckpt->source.empty() ? std::string("?")
                                              : ckpt->source) +
                        "): kept " + std::to_string(prefix + suffix) +
                        ", re-placed " +
                        std::to_string(n_new - prefix - suffix);
          // Save the repaired state so the *edited* workload is the new
          // checkpoint for this substrate.
          std::vector<std::pair<Column, Column>> spans;
          spans.reserve(n_new);
          for (ConnId i = 0; i < cs.size(); ++i) {
            spans.emplace_back(cs[i].left, cs[i].right);
          }
          opts.checkpoints->save(index.fingerprint(), candidate, std::nullopt,
                                 "repair", std::move(spans));
          report.elapsed_ms = ms_since(t0);
          SEGROUTE_COUNT("recover.repair_hits", 1);
          SEGROUTE_SPAN_TAG(route_span, "outcome", "repair");
          return report;
        }
      }
    }
  }

  // Best verified candidate so far (optimizing mode accumulates; in
  // feasibility mode the first one ends the cascade).
  // Names point into the registry (static strings, usable as span tags).
  bool have_candidate = false;
  Routing best_routing;
  double best_weight = std::numeric_limits<double>::infinity();
  const char* best_name = "?";

  bool proven_infeasible = false;
  const char* proven_name = "?";
  std::string proven_note;

  // One cascade pass with every budget scaled by `factor`; appends its
  // stage reports (tagged with `round`) and returns true when any stage
  // died of budget exhaustion (the ladder's retry signal).
  const auto run_pass = [&](int round, double factor) -> bool {
    const auto pass_t0 = Clock::now();
    bool pass_budget_exhausted = false;
    std::optional<Clock::time_point> overall_deadline;
    if (opts.deadline) {
      overall_deadline = pass_t0 + scale_ms(*opts.deadline, factor);
    }

    for (std::size_t k = 0; k < cascade.size(); ++k) {
      const StageSpec& spec = cascade[k];
      const RouterEntry* entry = alg::find_router(spec.router);
      const char* rname = entry ? entry->name : "unknown-router";
      SEGROUTE_SPAN(stage_span, rname, "router", rname);
      StageReport sr;
      sr.router = spec.router;
      sr.round = round;

      // This stage's slice: remaining deadline split over remaining
      // stages (later stages inherit unspent time), meeting any per-stage
      // budget.
      Budget b = scale_budget(spec.budget, factor);
      if (!b.cancel) b.cancel = opts.cancel;
      if (overall_deadline) {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                *overall_deadline - Clock::now());
        // Stage-boundary sample of the time budget still unspent.
        SEGROUTE_GAUGE_SET("robust.budget_remaining_ms",
                           std::max<std::chrono::milliseconds::rep>(
                               0, remaining.count()));
        if (remaining.count() <= 0) {
          sr.failure = FailureKind::kBudgetExhausted;
          sr.note = "overall deadline exhausted before stage started";
          SEGROUTE_SPAN_TAG(stage_span, "outcome", to_string(sr.failure));
          pass_budget_exhausted = true;
          report.stages.push_back(std::move(sr));
          continue;
        }
        const auto slice = std::max<std::chrono::milliseconds::rep>(
            1, remaining.count() / static_cast<long long>(cascade.size() - k));
        const std::chrono::milliseconds slice_ms(slice);
        b.deadline = b.deadline ? std::min(*b.deadline, slice_ms) : slice_ms;
      }

      sr.attempted = true;
      const auto stage_t0 = Clock::now();
      RouteResult r;
      if (entry) {
        r = run_stage(*entry, *substrate, cs, opts, b, index.fingerprint());
      } else {
        r.fail(FailureKind::kInvalidInput,
               "unknown router \"" + spec.router + "\"");
      }
      sr.elapsed_ms = ms_since(stage_t0);
      sr.success = r.success;
      sr.failure = r.failure;
      sr.note = r.note;
      if (sr.failure == FailureKind::kBudgetExhausted) {
        pass_budget_exhausted = true;
      }

      if (r.success) {
        VerifyOptions vo;
        vo.max_segments = opts.max_segments;
        if (stage_reports_weight(*entry, opts)) {
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
          if (opts.weight && !stage_reports_weight(*entry, opts)) {
            w = total_weight(*substrate, cs, r.routing, *opts.weight);
          }
          sr.weight = w;
          SEGROUTE_SPAN_TAG(stage_span, "outcome", "success");
          if (!opts.weight) {
            // Feasibility mode: first verified routing wins.
            best_routing = r.routing;
            best_name = entry->name;
            have_candidate = true;
            report.stages.push_back(std::move(sr));
            break;
          }
          if (!have_candidate || w < best_weight) {
            best_routing = r.routing;
            best_weight = w;
            best_name = entry->name;
            have_candidate = true;
          }
          const bool optimal = exact_optimal(*entry, opts, r);
          report.stages.push_back(std::move(sr));
          if (optimal) break;
          continue;
        }
      } else if (entry && proves_infeasible(*entry, opts, r)) {
        proven_infeasible = true;
        proven_name = entry->name;
        proven_note = sr.note;
        SEGROUTE_SPAN_TAG(stage_span, "outcome", to_string(sr.failure));
        report.stages.push_back(std::move(sr));
        break;
      }
      SEGROUTE_SPAN_TAG(stage_span, "outcome",
                        sr.success ? "success" : to_string(sr.failure));
      report.stages.push_back(std::move(sr));
    }
    return pass_budget_exhausted;
  };

  // The degradation ladder: re-run the whole cascade with escalated
  // budgets while passes keep dying of budget exhaustion. One round (the
  // default) is exactly the pre-ladder cascade.
  const int max_rounds = std::max(1, opts.ladder.max_rounds);
  const double escalation = std::max(1.0, opts.ladder.escalation);
  int rounds_run = 0;
  for (int round = 0; round < max_rounds; ++round) {
    if (round > 0) {
      // Capped exponential backoff before each retry.
      auto pause = opts.ladder.backoff;
      for (int d = 1; d < round; ++d) {
        pause = std::min(pause * 2, opts.ladder.max_backoff);
      }
      pause = std::min(pause, opts.ladder.max_backoff);
      if (pause.count() > 0) std::this_thread::sleep_for(pause);
      SEGROUTE_COUNT("robust.ladder_retries", 1);
      SEGROUTE_INSTANT("robust.ladder_retry", "round", round);
    }
    const bool pass_budget_exhausted =
        run_pass(round, std::pow(escalation, round));
    ++rounds_run;
    if (have_candidate || proven_infeasible) break;
    if (opts.cancel && opts.cancel->load(std::memory_order_relaxed)) break;
    // Retrying only helps when a stage actually ran out of budget; pure
    // kInfeasible/kInvalidInput passes would just repeat themselves.
    if (!pass_budget_exhausted) break;
  }
  report.rounds = rounds_run;

  // Partial fallback: no stage completed (possibly *provably* so) — route
  // what we can and enumerate the rest, rather than return nothing.
  if (!have_candidate && opts.allow_partial) {
    SEGROUTE_SPAN(partial_span, "robust.partial");
    const auto partial_t0 = Clock::now();
    StageReport sr;
    sr.router = "partial";
    sr.attempted = true;
    sr.round = rounds_run > 0 ? rounds_run - 1 : 0;
    alg::PartialOptions po;
    po.max_segments = opts.max_segments;
    if (opts.cancel) po.budget.cancel = opts.cancel;
    const RouteResult pr = alg::partial_route(*substrate, cs, po);
    sr.elapsed_ms = ms_since(partial_t0);
    sr.success = pr.success;
    sr.failure = pr.failure;
    sr.note = pr.note;

    VerifyOptions vo;
    vo.max_segments = opts.max_segments;
    vo.require_complete = false;
    const VerifyResult v = verifier.check(pr.routing, vo);
    if (!v) {
      sr.success = false;
      sr.failure = FailureKind::kVerificationFailed;
      sr.note = std::string(to_string(v.error)) + ": " + v.detail;
    } else if (pr.success) {
      // The greedy rung routed everything the cascade could not.
      sr.verified = true;
      best_routing = pr.routing;
      best_name = "partial";
      have_candidate = true;
    } else {
      sr.verified = true;  // the subset is independently verified
      report.partial = true;
      report.unrouted = pr.unrouted;
      report.routing = map_back(pr.routing);
      SEGROUTE_COUNT("robust.partial_routes", 1);
    }
    SEGROUTE_SPAN_TAG(partial_span, "outcome",
                      sr.verified ? "verified" : to_string(sr.failure));
    report.stages.push_back(std::move(sr));
  }

  if (have_candidate) {
    report.success = true;
    report.winner = best_name;
    if (opts.weight) report.weight = best_weight;
    // Save under the *substrate* fingerprint, in substrate coordinates —
    // exactly what a later call on the same (possibly degraded) channel
    // needs back.
    if (opts.checkpoints) {
      std::vector<std::pair<Column, Column>> spans;
      spans.reserve(static_cast<std::size_t>(cs.size()));
      for (ConnId i = 0; i < cs.size(); ++i) {
        spans.emplace_back(cs[i].left, cs[i].right);
      }
      opts.checkpoints->save(
          index.fingerprint(), best_routing,
          opts.weight ? std::optional<double>(best_weight) : std::nullopt,
          best_name, std::move(spans));
    }
    report.routing = map_back(best_routing);
    report.note = std::string("routed by stage ") + best_name;
    SEGROUTE_INSTANT("robust.winner", "router", best_name);
  } else if (proven_infeasible) {
    report.failure = FailureKind::kInfeasible;
    report.note = "proven infeasible by stage " + std::string(proven_name) +
                  ": " + proven_note;
  } else {
    // Aggregate: all-invalid-input > budget exhaustion > verification
    // failure > infeasible-looking give-ups.
    bool any = false, all_invalid = true, any_budget = false,
         any_verify = false;
    for (const StageReport& sr : report.stages) {
      any = true;
      if (sr.failure != FailureKind::kInvalidInput) all_invalid = false;
      if (sr.failure == FailureKind::kBudgetExhausted) any_budget = true;
      if (sr.failure == FailureKind::kVerificationFailed) any_verify = true;
    }
    if (any && all_invalid) {
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
      report.note = any ? "no stage found a routing (not a proof unless an "
                          "exact stage ran to completion)"
                        : "empty cascade";
    }
  }
  if (report.partial) {
    report.note += "; partial fallback routed " +
                   std::to_string(report.routing.num_assigned()) + " of " +
                   std::to_string(cs.size()) + " connections";
  }
  SEGROUTE_SPAN_TAG(route_span, "outcome",
                    report.success ? "success" : to_string(report.failure));
  report.elapsed_ms = ms_since(t0);
  return report;
}

}  // namespace segroute::harness
