// Tests for the survivability layer: the fingerprint-keyed
// CheckpointStore, the partial (maximal-subset) router, the robust_route
// degradation ladder + partial fallback, the engine's rebind/invalidate
// support, and the deterministic chaos soak (bit-identical across 1/2/8
// threads and distinct across seeds).
#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <set>
#include <vector>

#include "alg/dp.h"
#include "alg/partial.h"
#include "alg/registry.h"
#include "core/channel_index.h"
#include "core/routing.h"
#include "core/weights.h"
#include "engine/batch.h"
#include "gen/segmentation.h"
#include "gen/workload.h"
#include "harness/chaos.h"
#include "harness/checkpoint.h"
#include "harness/fault.h"
#include "harness/robust_route.h"
#include "harness/verify.h"

namespace segroute::harness {
namespace {

using alg::FailureKind;

// A 4-track, width-12 channel with one switch per track and a routable
// 3-connection workload; routed by the exact DP for checkpoint material.
struct Fixture {
  SegmentedChannel ch = SegmentedChannel::identical(4, 12, {6});
  ConnectionSet cs;
  Fixture() {
    cs.add(1, 4);
    cs.add(8, 12);
    cs.add(2, 6);
  }
};

// More connections in one column than tracks: 2 of 3 route, 1 cannot.
struct Overloaded {
  SegmentedChannel ch = SegmentedChannel::identical(2, 10, {5});
  ConnectionSet cs;
  Overloaded() {
    cs.add(2, 4);
    cs.add(2, 4);
    cs.add(3, 4);
  }
};

// ---------------------------------------------------------- CheckpointStore

TEST(Checkpoint, SaveFindRestoreRoundTrip) {
  Fixture f;
  const ChannelIndex idx(f.ch);
  const auto r = alg::dp_route_unlimited(f.ch, f.cs);
  ASSERT_TRUE(r.success);

  CheckpointStore store;
  store.save(idx.fingerprint(), r.routing, std::nullopt, "dp");

  const auto found = store.find(idx.fingerprint());
  ASSERT_TRUE(found.has_value());
  EXPECT_TRUE(found->routing == r.routing);
  EXPECT_EQ(found->source, "dp");
  EXPECT_FALSE(found->has_weight);

  const auto restored = store.restore(idx.fingerprint(), f.ch, f.cs);
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->routing == r.routing);

  EXPECT_FALSE(store.find(idx.fingerprint() + 1).has_value());
  store.invalidate(idx.fingerprint());
  EXPECT_FALSE(store.find(idx.fingerprint()).has_value());

  const auto s = store.stats();
  EXPECT_EQ(s.saves, 1u);
  EXPECT_GE(s.hits, 2u);
  EXPECT_GE(s.misses, 2u);
  EXPECT_EQ(s.size, 0u);
}

TEST(Checkpoint, RestoreRejectsACorruptCheckpoint) {
  Fixture f;
  const ChannelIndex idx(f.ch);
  // Connections 0 and 2 overlap in columns 2..4; same track = overlap.
  Routing corrupt(f.cs.size());
  corrupt.assign(0, 0);
  corrupt.assign(1, 0);
  corrupt.assign(2, 0);

  CheckpointStore store;
  store.save(idx.fingerprint(), corrupt, std::nullopt, "corrupt");
  EXPECT_FALSE(store.restore(idx.fingerprint(), f.ch, f.cs).has_value());
  // The rejected checkpoint is dropped, not handed out again.
  EXPECT_FALSE(store.find(idx.fingerprint()).has_value());
  EXPECT_EQ(store.stats().rejected, 1u);
}

TEST(Checkpoint, SaveKeepsTheLowerWeight) {
  Fixture f;
  const ChannelIndex idx(f.ch);
  const auto r = alg::dp_route_unlimited(f.ch, f.cs);
  ASSERT_TRUE(r.success);

  CheckpointStore store;
  store.save(idx.fingerprint(), r.routing, 10.0, "a");
  store.save(idx.fingerprint(), r.routing, 20.0, "b");  // worse: kept out
  auto c = store.find(idx.fingerprint());
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->source, "a");
  EXPECT_DOUBLE_EQ(c->weight, 10.0);

  store.save(idx.fingerprint(), r.routing, 5.0, "c");  // better: replaces
  c = store.find(idx.fingerprint());
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->source, "c");
  EXPECT_DOUBLE_EQ(c->weight, 5.0);
  EXPECT_EQ(store.stats().kept, 1u);
  EXPECT_EQ(store.stats().supersedes, 1u);
}

TEST(Checkpoint, LruEvictsTheColdestFingerprint) {
  Fixture f;
  const auto r = alg::dp_route_unlimited(f.ch, f.cs);
  ASSERT_TRUE(r.success);
  CheckpointStore store(2);
  store.save(100, r.routing);
  store.save(200, r.routing);
  ASSERT_TRUE(store.find(100).has_value());  // touch 100; 200 is coldest
  store.save(300, r.routing);
  EXPECT_TRUE(store.find(100).has_value());
  EXPECT_FALSE(store.find(200).has_value());
  EXPECT_TRUE(store.find(300).has_value());
  EXPECT_EQ(store.stats().evictions, 1u);
}

TEST(Checkpoint, RestoreOccupancyRebuildsPlacementExactly) {
  Fixture f;
  const ChannelIndex idx(f.ch);
  const auto r = alg::dp_route_unlimited(f.ch, f.cs);
  ASSERT_TRUE(r.success);
  RoutingCheckpoint ckpt;
  ckpt.fingerprint = idx.fingerprint();
  ckpt.routing = r.routing;

  Occupancy occ(f.ch);
  ASSERT_TRUE(restore_occupancy(ckpt, f.ch, f.cs, occ));
  for (ConnId i = 0; i < f.cs.size(); ++i) {
    const Connection& c = f.cs[i];
    const TrackId t = r.routing.track_of(i);
    // The occupied segments carry exactly this connection id.
    const auto span = f.ch.track(t).span(c.left, c.right);
    for (SegId s = span.first; s <= span.second; ++s) {
      EXPECT_EQ(occ.occupant(t, s), i);
    }
    // And a conflicting re-place is refused.
    EXPECT_FALSE(occ.place(t, c.left, c.right, i + 100));
  }
}

// ------------------------------------------------------------- partial_route

TEST(PartialRoute, CompleteWhenTheInstanceIsRoutable) {
  Fixture f;
  const auto r = alg::partial_route(f.ch, f.cs);
  EXPECT_TRUE(r.success);
  EXPECT_FALSE(r.partial);
  EXPECT_TRUE(r.unrouted.empty());
  const RouteVerifier v(f.ch, f.cs);
  EXPECT_TRUE(v.check(r));
}

TEST(PartialRoute, ReportsTheMaximalSubsetWithPerConnectionKinds) {
  Overloaded f;
  const auto r = alg::partial_route(f.ch, f.cs);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.failure, FailureKind::kInfeasible);
  EXPECT_EQ(r.routing.num_assigned(), 2);
  ASSERT_EQ(r.unrouted.size(), 1u);
  EXPECT_EQ(r.unrouted[0].conn, 2);
  EXPECT_EQ(r.unrouted[0].kind, FailureKind::kInfeasible);

  // The subset is independently verifiable.
  const RouteVerifier v(f.ch, f.cs);
  VerifyOptions vo;
  vo.require_complete = false;
  EXPECT_TRUE(v.check(r.routing, vo));

  // Maximality, re-checked from first principles: no unrouted connection
  // fits any track given the final subset's occupancy.
  Occupancy occ(f.ch);
  for (ConnId i = 0; i < f.cs.size(); ++i) {
    if (r.routing.is_assigned(i)) {
      ASSERT_TRUE(occ.place(r.routing.track_of(i), f.cs[i].left, f.cs[i].right,
                            i));
    }
  }
  for (const alg::ConnFailure& u : r.unrouted) {
    for (TrackId t = 0; t < f.ch.num_tracks(); ++t) {
      EXPECT_FALSE(occ.fits(t, f.cs[u.conn].left, f.cs[u.conn].right))
          << "unrouted connection " << u.conn << " fits track " << t;
    }
  }
}

TEST(PartialRoute, BudgetTruncationIsDeterministicAndEnumerated) {
  Fixture f;
  alg::PartialOptions o;
  o.budget = Budget::with_ticks(1);  // one connection considered, then stop
  const auto r = alg::partial_route(f.ch, f.cs, o);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.failure, FailureKind::kBudgetExhausted);
  EXPECT_EQ(r.routing.num_assigned(), 1);
  ASSERT_EQ(r.unrouted.size(), 2u);
  EXPECT_EQ(r.unrouted[0].conn, 1);
  EXPECT_EQ(r.unrouted[0].kind, FailureKind::kBudgetExhausted);
  EXPECT_EQ(r.unrouted[1].conn, 2);

  const auto again = alg::partial_route(f.ch, f.cs, o);
  EXPECT_TRUE(again.routing == r.routing);
}

TEST(PartialRoute, RegisteredInTheRouterRegistry) {
  ASSERT_NE(alg::find_router("partial"), nullptr);
  Overloaded f;
  RouteRequest rq;
  rq.channel = &f.ch;
  rq.connections = &f.cs;
  const auto r = alg::route("partial", rq);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.routing.num_assigned(), 2);
}

// ------------------------------------------------------- degradation ladder

TEST(Ladder, EscalatingTickBudgetsEventuallySucceed) {
  std::mt19937_64 rng(7);
  const auto ch = SegmentedChannel::identical(4, 16, {4, 8, 12});
  const auto cs = gen::routable_workload(ch, 6, 4.0, rng);
  ASSERT_GT(cs.size(), 0);

  RobustOptions o;
  o.stages = {{"dp", Budget::with_ticks(1)}};  // far too small for round 0
  o.ladder.max_rounds = 8;
  o.ladder.escalation = 8.0;  // 1, 8, 64, 512, ... ticks
  const auto rep = robust_route(ch, cs, o);
  ASSERT_TRUE(rep.success) << rep.note;
  EXPECT_EQ(rep.winner, "dp");
  EXPECT_GT(rep.rounds, 1);
  // Every stage report carries its round; the early ones died of budget.
  ASSERT_GE(rep.stages.size(), 2u);
  EXPECT_EQ(rep.stages.front().round, 0);
  EXPECT_EQ(rep.stages.front().failure, FailureKind::kBudgetExhausted);
  EXPECT_EQ(rep.stages.back().round, rep.rounds - 1);
  EXPECT_TRUE(rep.stages.back().verified);
  EXPECT_TRUE(validate(ch, cs, rep.routing));

  // Determinism: tick budgets only, zero backoff — bit-identical reruns.
  const auto again = robust_route(ch, cs, o);
  EXPECT_EQ(again.rounds, rep.rounds);
  EXPECT_TRUE(again.routing == rep.routing);
}

TEST(Ladder, InfeasibilityProofIsNotRetried) {
  SegmentedChannel ch = SegmentedChannel::unsegmented(1, 10);
  ConnectionSet cs;
  cs.add(1, 5);
  cs.add(3, 8);
  RobustOptions o;
  o.ladder.max_rounds = 5;
  const auto rep = robust_route(ch, cs, o);
  EXPECT_FALSE(rep.success);
  EXPECT_EQ(rep.failure, FailureKind::kInfeasible);
  EXPECT_EQ(rep.rounds, 1);  // the dp proof ends the ladder immediately
}

TEST(Ladder, NonBudgetFailuresAreNotRetried) {
  // Out-of-envelope stage: retrying a kInvalidInput pass cannot help.
  const auto ch = SegmentedChannel::identical(2, 12, {3, 6, 9});
  ConnectionSet cs;
  cs.add(1, 2);
  RobustOptions o;
  o.stages = {{"greedy2track", {}}};
  o.ladder.max_rounds = 5;
  const auto rep = robust_route(ch, cs, o);
  EXPECT_FALSE(rep.success);
  EXPECT_EQ(rep.rounds, 1);
  EXPECT_EQ(rep.stages.size(), 1u);
}

// --------------------------------------------------------- partial fallback

TEST(RobustPartial, ReportsVerifiedSubsetWhenProvenInfeasible) {
  Overloaded f;
  RobustOptions o;
  o.allow_partial = true;
  const auto rep = robust_route(f.ch, f.cs, o);
  EXPECT_FALSE(rep.success);  // all-or-nothing callers see a failure
  EXPECT_TRUE(rep.partial);
  EXPECT_EQ(rep.failure, FailureKind::kInfeasible);
  EXPECT_EQ(rep.routing.num_assigned(), 2);
  ASSERT_EQ(rep.unrouted.size(), 1u);
  EXPECT_EQ(rep.unrouted[0].conn, 2);
  EXPECT_NE(rep.note.find("partial fallback"), std::string::npos);

  const RouteVerifier v(f.ch, f.cs);
  VerifyOptions vo;
  vo.require_complete = false;
  EXPECT_TRUE(v.check(rep.routing, vo));

  // The partial rung appears in the stage reports, verified.
  ASSERT_FALSE(rep.stages.empty());
  EXPECT_EQ(rep.stages.back().router, "partial");
  EXPECT_TRUE(rep.stages.back().verified);
}

TEST(RobustPartial, OffByDefaultPreservesAllOrNothing) {
  Overloaded f;
  const auto rep = robust_route(f.ch, f.cs);
  EXPECT_FALSE(rep.success);
  EXPECT_FALSE(rep.partial);
  EXPECT_TRUE(rep.unrouted.empty());
  EXPECT_EQ(rep.routing.num_assigned(), 0);
}

TEST(RobustPartial, MapsSubsetBackThroughFaultDegradation) {
  // 3 tracks; the storm kills track 1, leaving 2 tracks for 3 mutually
  // overlapping connections: 2 route, 1 cannot.
  const auto ch = SegmentedChannel::identical(3, 10, {5});
  ConnectionSet cs;
  cs.add(2, 4);
  cs.add(2, 4);
  cs.add(3, 4);
  RobustOptions o;
  o.allow_partial = true;
  o.faults = FaultPlan{/*switch_fail_prob=*/0.0, /*segment_fail_prob=*/0.34,
                       /*seed=*/8};
  const auto degraded = harness::apply(ch, o.faults->sample(ch));
  ASSERT_TRUE(degraded.has_value());
  ASSERT_EQ(degraded->channel.num_tracks(), 2);  // seed 8 kills one track

  const auto rep = robust_route(ch, cs, o);
  EXPECT_FALSE(rep.success);
  EXPECT_TRUE(rep.partial);
  EXPECT_EQ(rep.routing.num_assigned(), 2);
  ASSERT_EQ(rep.unrouted.size(), 1u);
  // The subset is valid on the ORIGINAL channel in original coordinates
  // (mapped back through kept_tracks).
  EXPECT_TRUE(validate(ch, cs, rep.routing, std::nullopt,
                       /*require_complete=*/false));
  // ... and uses only surviving tracks.
  std::set<TrackId> kept(degraded->kept_tracks.begin(),
                         degraded->kept_tracks.end());
  for (ConnId i = 0; i < cs.size(); ++i) {
    if (rep.routing.is_assigned(i)) {
      EXPECT_TRUE(kept.count(rep.routing.track_of(i)));
    }
  }
}

// ------------------------------------------------------ checkpoint protocol

TEST(RobustCheckpoint, SavesOnSuccessAndRestoresOnRepeat) {
  Fixture f;
  CheckpointStore store;
  RobustOptions o;
  o.checkpoints = &store;

  const auto first = robust_route(f.ch, f.cs, o);
  ASSERT_TRUE(first.success);
  EXPECT_EQ(first.winner, "dp");
  EXPECT_EQ(store.stats().saves, 1u);

  const auto second = robust_route(f.ch, f.cs, o);
  ASSERT_TRUE(second.success);
  EXPECT_EQ(second.winner, "checkpoint");  // no stage ran
  EXPECT_TRUE(second.stages.empty());
  EXPECT_TRUE(second.routing == first.routing);
}

TEST(RobustCheckpoint, DegradedSubstrateGetsItsOwnCheckpoint) {
  Fixture f;
  CheckpointStore store;
  RobustOptions plain;
  plain.checkpoints = &store;
  ASSERT_TRUE(robust_route(f.ch, f.cs, plain).success);

  RobustOptions faulty = plain;
  faulty.faults = FaultPlan{/*switch_fail_prob=*/1.0,
                            /*segment_fail_prob=*/0.0, /*seed=*/3};
  // Different substrate fingerprint: the pristine checkpoint must NOT
  // answer this call; the cascade runs and saves a second checkpoint.
  const auto rep = robust_route(f.ch, f.cs, faulty);
  ASSERT_TRUE(rep.success);
  EXPECT_NE(rep.winner, "checkpoint");
  EXPECT_EQ(store.stats().saves, 2u);

  // Repeating the same storm now restores the degraded checkpoint.
  const auto again = robust_route(f.ch, f.cs, faulty);
  ASSERT_TRUE(again.success);
  EXPECT_EQ(again.winner, "checkpoint");
  EXPECT_TRUE(again.routing == rep.routing);
  EXPECT_TRUE(validate(f.ch, f.cs, again.routing));
}

// ------------------------------------------------------------- chaos soak

// The acceptance-criteria soak: >= 200 seeded degrade -> reroute ->
// recover cycles, bit-identical across 1/2/8 threads, rollbacks restoring
// the pre-fault routing exactly (restore_mismatches == 0), every partial
// result verifier-clean with unrouted connections enumerated.
TEST(ChaosSoak, BitIdenticalAcrossThreadCountsAndDistinctAcrossSeeds) {
  std::mt19937_64 rng(21);
  const auto ch = gen::staggered_segmentation(6, 24, 6);
  const auto cs = gen::routable_workload(ch, 10, 5.0, rng);
  ASSERT_GT(cs.size(), 0);

  ChaosOptions o;
  o.seed = 1234;
  o.cycles = 200;

  ChaosReport reports[3];
  const int threads[3] = {1, 2, 8};
  for (int k = 0; k < 3; ++k) {
    ChaosOptions ok = o;
    ok.threads = threads[k];
    reports[k] = run_chaos(ch, cs, ok);
    ASSERT_TRUE(reports[k].ok) << "threads=" << threads[k] << ": "
                               << reports[k].note;
    EXPECT_EQ(reports[k].restore_mismatches, 0);
    EXPECT_EQ(reports[k].verify_failures, 0);
    EXPECT_EQ(static_cast<int>(reports[k].history.size()), o.cycles);
  }
  EXPECT_EQ(reports[0].digest, reports[1].digest);
  EXPECT_EQ(reports[0].digest, reports[2].digest);
  EXPECT_EQ(reports[0].rollbacks, reports[1].rollbacks);
  EXPECT_EQ(reports[0].reroutes, reports[2].reroutes);
  EXPECT_EQ(reports[0].partials, reports[2].partials);

  // The schedule actually exercised every phase of the recovery loop.
  EXPECT_GT(reports[0].storms, 0);
  EXPECT_GT(reports[0].reroutes, 0);
  EXPECT_GT(reports[0].rollbacks, 0);
  EXPECT_GT(reports[0].faults_applied, 0u);

  // A different seed is a different storm schedule.
  ChaosOptions other = o;
  other.seed = 4321;
  const auto alt = run_chaos(ch, cs, other);
  ASSERT_TRUE(alt.ok) << alt.note;
  EXPECT_NE(alt.digest, reports[0].digest);

  // Same seed, fresh run: bit-identical to the first.
  const auto rerun = run_chaos(ch, cs, o);
  EXPECT_EQ(rerun.digest, reports[0].digest);
}

// Edits interleaved with fault storms: the OnlineRouter edit stream
// stays bit-identical to from_scratch() every cycle (edit_mismatches ==
// 0 feeds report.ok), folds into the digest deterministically across
// thread counts, and is carried mostly by the localized repair path.
TEST(ChaosSoak, EditStreamInterleavesDeterministically) {
  std::mt19937_64 rng(23);
  const auto ch = gen::staggered_segmentation(6, 24, 6);
  const auto cs = gen::routable_workload(ch, 10, 5.0, rng);
  ASSERT_GT(cs.size(), 0);

  ChaosOptions o;
  o.seed = 777;
  o.cycles = 60;
  o.edits_per_cycle = 3;

  ChaosReport reports[3];
  const int threads[3] = {1, 2, 8};
  for (int k = 0; k < 3; ++k) {
    ChaosOptions ok = o;
    ok.threads = threads[k];
    reports[k] = run_chaos(ch, cs, ok);
    ASSERT_TRUE(reports[k].ok) << "threads=" << threads[k] << ": "
                               << reports[k].note;
    EXPECT_EQ(reports[k].edit_mismatches, 0);
    EXPECT_EQ(reports[k].edits, o.cycles * o.edits_per_cycle);
  }
  EXPECT_EQ(reports[0].digest, reports[1].digest);
  EXPECT_EQ(reports[0].digest, reports[2].digest);
  EXPECT_EQ(reports[0].edit_repairs, reports[2].edit_repairs);
  EXPECT_EQ(reports[0].edit_dp_fallbacks, reports[1].edit_dp_fallbacks);

  // The stream did real work, and repair (not full DP) carried it.
  EXPECT_GT(reports[0].edit_repairs, 0);
  EXPECT_GT(reports[0].edit_repairs, reports[0].edit_dp_fallbacks);

  // The edit stream is part of the digest: turning it off (the legacy
  // configuration) yields a different digest over the same storms.
  ChaosOptions off = o;
  off.edits_per_cycle = 0;
  const auto legacy = run_chaos(ch, cs, off);
  ASSERT_TRUE(legacy.ok) << legacy.note;
  EXPECT_NE(legacy.digest, reports[0].digest);
  // ... and the off-configuration reports no edit activity at all (the
  // default digests CI pins are computed on this path).
  EXPECT_EQ(legacy.edits, 0);
  EXPECT_EQ(legacy.edit_repairs, 0);
  EXPECT_EQ(legacy.edits_rejected, 0);
  for (const ChaosCycle& c : legacy.history) {
    EXPECT_EQ(c.edits, 0);
  }
}

// --------------------------------------------- checkpoint repair pre-stage

TEST(RobustCheckpoint, RepairsAnEditedWorkloadFromTheCheckpoint) {
  Fixture f;
  CheckpointStore store;
  RobustOptions o;
  o.checkpoints = &store;
  const auto first = robust_route(f.ch, f.cs, o);
  ASSERT_TRUE(first.success);

  // Edit the middle connection: prefix (1,4) and suffix (2,6) align,
  // only the changed span is re-placed.
  ConnectionSet edited;
  edited.add(1, 4);
  edited.add(9, 12);  // was (8,12)
  edited.add(2, 6);
  const auto rep = robust_route(f.ch, edited, o);
  ASSERT_TRUE(rep.success);
  EXPECT_EQ(rep.winner, "repair");
  EXPECT_TRUE(rep.stages.empty());  // no cascade stage ran
  EXPECT_NE(rep.note.find("repaired from checkpoint"), std::string::npos);
  EXPECT_NE(rep.note.find("kept 2"), std::string::npos);
  EXPECT_NE(rep.note.find("re-placed 1"), std::string::npos);
  EXPECT_TRUE(validate(f.ch, edited, rep.routing));
  // Kept connections stayed on their checkpointed tracks.
  EXPECT_EQ(rep.routing.track_of(0), first.routing.track_of(0));
  EXPECT_EQ(rep.routing.track_of(2), first.routing.track_of(2));

  // The repaired state superseded the checkpoint: repeating the edited
  // workload is now an exact checkpoint hit.
  const auto again = robust_route(f.ch, edited, o);
  ASSERT_TRUE(again.success);
  EXPECT_EQ(again.winner, "checkpoint");
  EXPECT_TRUE(again.routing == rep.routing);
}

TEST(RobustCheckpoint, RepairHandlesGrowthAndShrinkage) {
  Fixture f;
  CheckpointStore store;
  RobustOptions o;
  o.checkpoints = &store;
  ASSERT_TRUE(robust_route(f.ch, f.cs, o).success);

  // Append one connection (pure growth: the whole old set is a prefix).
  ConnectionSet grown = f.cs;
  grown.add(7, 9);
  const auto add = robust_route(f.ch, grown, o);
  ASSERT_TRUE(add.success);
  EXPECT_EQ(add.winner, "repair");
  EXPECT_TRUE(validate(f.ch, grown, add.routing));

  // Drop the middle connection (shrinkage aligns prefix + suffix).
  ConnectionSet shrunk;
  shrunk.add(1, 4);
  shrunk.add(2, 6);
  store.clear();
  ASSERT_TRUE(robust_route(f.ch, f.cs, o).success);
  const auto rm = robust_route(f.ch, shrunk, o);
  ASSERT_TRUE(rm.success);
  EXPECT_EQ(rm.winner, "repair");
  EXPECT_NE(rm.note.find("re-placed 0"), std::string::npos);
  EXPECT_TRUE(validate(f.ch, shrunk, rm.routing));
}

TEST(RobustCheckpoint, InfeasibleRepairFallsThroughToTheCascade) {
  // Two tracks, one switch: the checkpointed pair occupies segment
  // (1,5) on BOTH tracks, so the inserted middle connection cannot be
  // repair-placed — and the edited instance is genuinely unroutable
  // (three mutually overlapping connections, two tracks). The failed
  // repair must fall through to the cascade, whose exact stage proves
  // infeasibility instead of serving a broken repair.
  const SegmentedChannel ch = SegmentedChannel::identical(2, 10, {5});
  ConnectionSet cs;
  cs.add(1, 4);
  cs.add(2, 4);
  CheckpointStore store;
  RobustOptions o;
  o.checkpoints = &store;
  ASSERT_TRUE(robust_route(ch, cs, o).success);

  ConnectionSet edited;
  edited.add(1, 4);
  edited.add(3, 5);  // the insertion: prefix (1,4), suffix (2,4) align
  edited.add(2, 4);
  const auto rep = robust_route(ch, edited, o);
  EXPECT_FALSE(rep.success);
  EXPECT_NE(rep.winner, "repair");
  EXPECT_EQ(rep.failure, FailureKind::kInfeasible);
  EXPECT_FALSE(rep.stages.empty());  // the cascade actually ran

  // An edited span past the channel abandons the repair too, and the
  // cascade reports the malformed input.
  ConnectionSet past;
  past.add(1, 4);
  past.add(9, 12);
  past.add(2, 4);
  const auto bad = robust_route(ch, past, o);
  EXPECT_FALSE(bad.success);
  EXPECT_NE(bad.winner, "repair");
  EXPECT_EQ(bad.failure, FailureKind::kInvalidInput);
}

TEST(ChaosSoak, UnroutableBaselineFailsFastAndStructured) {
  SegmentedChannel ch = SegmentedChannel::unsegmented(1, 10);
  ConnectionSet cs;
  cs.add(1, 5);
  cs.add(3, 8);
  const auto rep = run_chaos(ch, cs, {});
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.note.find("baseline"), std::string::npos);
  EXPECT_TRUE(rep.history.empty());
}

}  // namespace
}  // namespace segroute::harness
