#include "harness/chaos.h"

#include <algorithm>
#include <optional>
#include <random>
#include <utility>

#include "alg/delta.h"
#include "alg/online.h"
#include "alg/partial.h"
#include "alg/result.h"
#include "harness/fault.h"
#include "harness/verify.h"
#include "obs/instrument.h"

namespace segroute::harness {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// The fixed soak setup (see ChaosOptions). A cycle at ramp position p in
// [1/kEscalationPeriod .. 1] fails each switch / segment with
// p * kMaxSwitchFail / p * kMaxSegmentFail.
constexpr const char* kRouter = "dp";
constexpr int kMaxSegments = 0;  // unlimited
constexpr double kMaxSwitchFail = 0.35;
constexpr double kMaxSegmentFail = 0.15;
constexpr int kEscalationPeriod = 16;
constexpr std::size_t kCacheCapacity = 256;

/// Degraded-coordinate routing -> original-track coordinates.
Routing map_back(const Routing& r, const FaultyChannel& degraded,
                 ConnId num_conns) {
  Routing mapped(num_conns);
  for (ConnId i = 0; i < num_conns; ++i) {
    const TrackId t = r.track_of(i);
    if (t != kNoTrack) mapped.assign(i, degraded.kept_tracks[t]);
  }
  return mapped;
}

}  // namespace

ChaosReport run_chaos(const SegmentedChannel& ch, const ConnectionSet& cs,
                      const ChaosOptions& opts) {
  SEGROUTE_SPAN(run_span, "chaos.run", "seed", opts.seed);
  ChaosReport report;
  report.cycles = opts.cycles;

  engine::BatchOptions bo;
  bo.threads = opts.threads;
  bo.use_cache = true;
  bo.cache_capacity = kCacheCapacity;
  engine::BatchRouter engine(ch, bo);
  const std::uint64_t base_fp = engine.fingerprint();

  engine::EngineRouteOptions ro;
  ro.router = kRouter;
  ro.max_segments = kMaxSegments;

  VerifyOptions vo;
  vo.max_segments = kMaxSegments;

  // Baseline: the known-good state every rollback returns to. It is
  // verified once here and never changes.
  const alg::RouteResult base = engine.route(cs, ro);
  const RouteVerifier base_verifier(ch, cs);
  if (!base.success) {
    report.note = "baseline unroutable: " + base.note;
    report.cache = engine.cache_stats();
    return report;
  }
  if (!base_verifier.check(base, vo)) {
    ++report.verify_failures;
    report.note = "baseline routing failed verification";
    report.cache = engine.cache_stats();
    return report;
  }

  Routing live = base.routing;  // the session's live, original-coordinate
                                // routing — what rollback protects

  // Workload batch: the full set plus shrinking prefixes, so each
  // substrate accumulates several distinct memo entries.
  std::vector<ConnectionSet> batch;
  batch.push_back(cs);
  const auto prefix = [&](ConnId n) {
    ConnectionSet p;
    for (ConnId i = 0; i < n; ++i) p.add(cs[i].left, cs[i].right);
    return p;
  };
  if (cs.size() >= 3) {
    batch.push_back(prefix(cs.size() * 2 / 3));
    batch.push_back(prefix(cs.size() / 3));
  }

  std::mt19937_64 master(opts.seed);

  // Edit stream (edits_per_cycle > 0): a live OnlineRouter session on
  // the base channel, driven by per-cycle RNGs derived from the storm
  // seed — NOT by extra draws from `master`, which would shift every
  // subsequent storm and break the pinned default digests.
  std::optional<alg::OnlineRouter> session;
  std::vector<ConnId> session_ids;  // live ids, for remove/move targets
  if (opts.edits_per_cycle > 0) {
    session.emplace(ch, alg::OnlineRouter::Policy::BestFit, kMaxSegments);
  }

  std::uint64_t digest = kFnvOffset;
  const auto mix = [&](std::uint64_t v) {
    digest ^= v;
    digest *= kFnvPrime;
  };
  const auto mix_cycle = [&](const ChaosCycle& c) {
    mix(c.storm_seed);
    mix(c.fingerprint);
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.faults)) |
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
             c.switches_fused))
         << 32));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.tracks_lost)) |
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.routed))
         << 32));
    mix((c.outage ? 1u : 0u) | (c.rerouted ? 2u : 0u) |
        (c.partial ? 4u : 0u) | (c.rolled_back ? 8u : 0u));
  };

  // Rolls the live routing back to the verified baseline.
  const auto rollback = [&](ChaosCycle& rec) {
    live = base.routing;
    rec.rolled_back = true;
    ++report.rollbacks;
    SEGROUTE_COUNT("recover.rollbacks", 1);
    SEGROUTE_INSTANT("recover.rollback", "to", "baseline");
  };

  for (int i = 0; i < opts.cycles; ++i) {
    SEGROUTE_SPAN(cycle_span, "chaos.cycle", "cycle",
                  static_cast<std::uint64_t>(i));
    ChaosCycle rec;
    rec.storm_seed = master();

    // Severity ramps over the period, then resets: every period ends in
    // a storm heavy enough to force rollbacks.
    const double ramp =
        static_cast<double>((i % kEscalationPeriod) + 1) / kEscalationPeriod;
    FaultPlan plan;
    plan.switch_fail_prob = kMaxSwitchFail * ramp;
    plan.segment_fail_prob = kMaxSegmentFail * ramp;
    plan.seed = rec.storm_seed;
    const std::vector<Fault> faults = canonicalize(ch, plan.sample(ch));
    rec.faults = static_cast<int>(faults.size());
    if (!faults.empty()) ++report.storms;
    report.faults_applied += faults.size();
    SEGROUTE_COUNT("chaos.faults_applied", faults.size());

    const std::optional<FaultyChannel> degraded = apply(ch, faults);
    if (!degraded) {
      // Total outage: nothing to route on — roll back and move on.
      rec.outage = true;
      rec.fingerprint = base_fp;
      rec.tracks_lost = ch.num_tracks();
      ++report.outages;
      rollback(rec);
      mix_cycle(rec);
      report.history.push_back(rec);
      continue;
    }
    rec.switches_fused = degraded->switches_fused;
    rec.tracks_lost = degraded->tracks_lost;

    // Degrade + reroute: point the session at the surviving substrate.
    engine.rebind(degraded->channel);
    const std::uint64_t deg_fp = engine.fingerprint();
    rec.fingerprint = deg_fp;
    const std::vector<alg::RouteResult> results = engine.route_many(batch, ro);
    const alg::RouteResult& primary = results.front();
    const RouteVerifier deg_verifier(degraded->channel, cs);

    if (primary.success && deg_verifier.check(primary, vo)) {
      rec.rerouted = true;
      rec.routed = static_cast<int>(cs.size());
      ++report.reroutes;
      live = map_back(primary.routing, *degraded, cs.size());
    } else {
      if (primary.success) ++report.verify_failures;  // corrupt reroute
      // Failed repair: salvage what we can, then roll back the live
      // state so a half-applied repair never survives. (The block scopes
      // the span to the partial fallback.)
      {
        SEGROUTE_SPAN(partial_span, "chaos.partial");
        alg::PartialOptions po;
        po.max_segments = kMaxSegments;
        const alg::RouteResult pr =
            alg::partial_route(degraded->channel, cs, po);
        VerifyOptions pvo = vo;
        pvo.require_complete = false;
        if (deg_verifier.check(pr.routing, pvo)) {
          rec.partial = true;
          rec.routed = static_cast<int>(pr.routing.num_assigned());
          ++report.partials;
        } else {
          ++report.verify_failures;
        }
      }
      rollback(rec);
    }

    // Recover: back on the base channel the workload must route to
    // exactly the baseline (the memo entries for the base fingerprint
    // survived the storm, so this is normally a cache hit).
    engine.rebind(ch);
    const alg::RouteResult recovered = engine.route(cs, ro);
    if (!recovered.success || !(recovered.routing == base.routing)) {
      ++report.restore_mismatches;
    }
    // Fingerprint-delta-aware invalidation: evict exactly the degraded
    // substrate's memo entries; the base entries stay hot.
    if (deg_fp != base_fp) engine.invalidate(deg_fp);

    // Edit phase: interleave seeded ChannelEdits with the fault storms.
    // The session lives on the base channel across the whole soak, so
    // every cycle exercises the delta API against a state the previous
    // storms' edits produced. Digest folding is gated on the option so
    // edits_per_cycle == 0 reproduces the legacy digests bit for bit.
    if (session) {
      SEGROUTE_SPAN(edit_span, "chaos.edits", "cycle",
                    static_cast<std::uint64_t>(i));
      std::mt19937_64 erng(rec.storm_seed ^ 0x9e3779b97f4a7c15ull);
      const Column width = ch.width();
      // Bound session growth so late cycles still mix add/remove/move
      // instead of drowning in kInfeasible adds on a saturated channel.
      const std::size_t cap =
          static_cast<std::size_t>(ch.num_tracks()) * 3 + 4;
      const auto rand_span = [&]() -> std::pair<Column, Column> {
        const Column left =
            1 + static_cast<Column>(erng() %
                                    static_cast<std::uint64_t>(width));
        const Column len = 1 + static_cast<Column>(
            erng() % static_cast<std::uint64_t>(
                         std::max<Column>(1, width / 4)));
        return {left, std::min<Column>(width, left + len - 1)};
      };
      for (int k = 0; k < opts.edits_per_cycle; ++k) {
        std::uint64_t pick = erng() % 3;
        if (session_ids.empty()) pick = 0;
        if (pick == 0 && session_ids.size() >= cap) pick = 1;
        alg::ChannelEdit edit;
        if (pick == 0) {
          const auto [l, r] = rand_span();
          edit = alg::ChannelEdit::add(l, r);
        } else {
          const ConnId target = session_ids[erng() % session_ids.size()];
          if (pick == 1) {
            edit = alg::ChannelEdit::remove(target);
          } else {
            const auto [l, r] = rand_span();
            edit = alg::ChannelEdit::move(target, l, r);
          }
        }
        const alg::RepairOutcome out = session->apply(edit);
        ++rec.edits;
        ++report.edits;
        if (!out.success) {
          ++report.edits_rejected;  // e.g. kInfeasible add on a full span
        } else if (out.path == alg::RepairOutcome::Path::kRepair) {
          ++rec.edit_repairs;
          ++report.edit_repairs;
        } else {
          ++report.edit_dp_fallbacks;
        }
        if (out.success && edit.kind == alg::ChannelEdit::Kind::kAdd) {
          session_ids.push_back(out.id);
        } else if (out.success &&
                   edit.kind == alg::ChannelEdit::Kind::kRemove) {
          session_ids.erase(std::find(session_ids.begin(),
                                      session_ids.end(), edit.id));
        }
        mix((out.success ? 1ull : 0ull) |
            (static_cast<std::uint64_t>(out.path) << 1) |
            (static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(out.id)) << 8));
      }
      // Bit-identity gate: after every cycle's edits the session must
      // equal canonical(S) computed from scratch — the same contract
      // the randomized edit-script suite enforces, here under churn.
      const auto [ecs, er] = session->snapshot();
      const alg::CanonicalResult ref =
          alg::from_scratch(ch, ecs, /*policy_best_fit=*/true, kMaxSegments);
      if (!ref.result.success || !(ref.result.routing == er)) {
        ++report.edit_mismatches;
      }
      mix(static_cast<std::uint64_t>(ecs.size()));
      for (ConnId c = 0; c < ecs.size(); ++c) {
        mix(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(er.track_of(c)) + 1));
      }
    }

    mix_cycle(rec);
    report.history.push_back(rec);
  }

  // Fold the final live routing into the digest: rollback correctness is
  // part of the bit-identity contract, not just the per-cycle outcomes.
  mix(static_cast<std::uint64_t>(cs.size()));
  for (ConnId i = 0; i < cs.size(); ++i) {
    mix(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(live.track_of(i)) + 1));
  }

  report.digest = digest;
  report.cache = engine.cache_stats();
  report.ok = report.verify_failures == 0 &&
              report.restore_mismatches == 0 && report.edit_mismatches == 0;
  report.note = "cycles=" + std::to_string(opts.cycles) +
                " reroutes=" + std::to_string(report.reroutes) +
                " partials=" + std::to_string(report.partials) +
                " rollbacks=" + std::to_string(report.rollbacks) +
                " outages=" + std::to_string(report.outages);
  if (opts.edits_per_cycle > 0) {
    report.note += " edits=" + std::to_string(report.edits) +
                   " repairs=" + std::to_string(report.edit_repairs) +
                   " dp=" + std::to_string(report.edit_dp_fallbacks) +
                   " rejected=" + std::to_string(report.edits_rejected);
  }
  SEGROUTE_SPAN_TAG(run_span, "outcome", report.ok ? "ok" : "failed");
  return report;
}

}  // namespace segroute::harness
