// The incremental-edit contract, end to end: randomized edit scripts
// must keep an OnlineRouter session bit-identical to canonical(S) after
// every apply(), where canonical(S) comes from a test-local oracle
// whose greedy shares no code with the session's from_scratch() path;
// the engine's "online" router must serve the same routing under every
// thread count and cache mode; and rebind_delta() must migrate exactly
// the memo entries the structural diff proves unaffected.
#include "alg/delta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "alg/dp.h"
#include "alg/online.h"
#include "alg/registry.h"
#include "engine/batch.h"
#include "gen/segmentation.h"

namespace segroute::alg {
namespace {

/// canonical(S) written out independently of from_scratch(): the
/// best-fit greedy in id order (least occupied length, ties to the
/// lowest track) over Track::span/occupied_length and a plain
/// per-segment occupancy table, then dp_route when greedy strands one.
struct Oracle {
  bool routed = false;
  bool dp = false;  // the DP regime produced `routing`
  Routing routing;
};

Oracle oracle(const SegmentedChannel& ch, const ConnectionSet& cs,
              int max_segments) {
  Oracle o;
  o.routing = Routing(cs.size());
  std::vector<std::vector<bool>> used;
  for (const Track& tr : ch.tracks()) {
    used.emplace_back(static_cast<std::size_t>(tr.num_segments()), false);
  }
  for (ConnId i = 0; i < cs.size(); ++i) {
    TrackId best = kNoTrack;
    Column best_len = std::numeric_limits<Column>::max();
    for (TrackId t = 0; t < ch.num_tracks(); ++t) {
      const auto [a, b] = ch.track(t).span(cs[i].left, cs[i].right);
      if (max_segments > 0 && b - a + 1 > max_segments) continue;
      const auto& row = used[static_cast<std::size_t>(t)];
      if (std::any_of(row.begin() + a, row.begin() + b + 1,
                      [](bool u) { return u; })) {
        continue;
      }
      const Column len = ch.track(t).occupied_length(cs[i].left, cs[i].right);
      if (len < best_len) {
        best_len = len;
        best = t;
      }
    }
    if (best == kNoTrack) {
      DpOptions opts;
      opts.max_segments = max_segments;
      const RouteResult dp = dp_route(ch, cs, opts);
      o.routed = dp.success;
      o.dp = true;
      o.routing = dp.routing;
      return o;
    }
    const auto [a, b] = ch.track(best).span(cs[i].left, cs[i].right);
    auto& row = used[static_cast<std::size_t>(best)];
    std::fill(row.begin() + a, row.begin() + b + 1, true);
    o.routing.assign(i, best);
  }
  o.routed = true;
  return o;
}

struct Family {
  std::string name;
  SegmentedChannel ch;
};

/// The three channel families of the edit-script suite: uniform and
/// staggered grids plus a progressive (mixed segment length) channel —
/// general segmentation, not just the paper's uniform case.
std::vector<Family> families() {
  std::vector<Family> f;
  f.push_back({"uniform", gen::uniform_segmentation(4, 24, 6)});
  f.push_back({"staggered", gen::staggered_segmentation(4, 24, 6)});
  f.push_back({"progressive", gen::progressive_segmentation(6, 32, 4, 3)});
  return f;
}

struct EditCounters {
  long applied = 0;
  long repairs = 0;
  long dp_fallbacks = 0;
  long rejected = 0;
};

/// Drives one seeded edit script against `session`, asserting after
/// every apply() that the snapshot validates and equals the oracle's
/// canonical(S), regime included (void so ASSERT_ can bail; callers
/// read the final state through session.snapshot()).
void run_script(OnlineRouter& session, std::mt19937_64& rng, int steps,
                int max_segments, EditCounters& counts,
                const std::string& tag) {
  const Column width = session.channel().width();
  const TrackId tracks = session.channel().num_tracks();
  std::vector<ConnId> live;
  const auto rand_span = [&]() -> std::pair<Column, Column> {
    const Column l =
        1 + static_cast<Column>(rng() % static_cast<std::uint64_t>(width));
    const Column len = 1 + static_cast<Column>(
        rng() % static_cast<std::uint64_t>(std::max<Column>(1, width / 4)));
    return {l, std::min<Column>(width, l + len - 1)};
  };
  const std::size_t cap = static_cast<std::size_t>(tracks) * 3 + 4;
  std::pair<ConnectionSet, Routing> state;
  for (int step = 0; step < steps; ++step) {
    std::uint64_t pick = rng() % 3;
    if (live.empty()) pick = 0;
    if (pick == 0 && live.size() >= cap) pick = 1;
    ChannelEdit edit;
    if (pick == 0) {
      const auto [l, r] = rand_span();
      edit = ChannelEdit::add(l, r);
    } else if (pick == 1) {
      edit = ChannelEdit::remove(live[rng() % live.size()]);
    } else {
      const auto [l, r] = rand_span();
      edit = ChannelEdit::move(live[rng() % live.size()], l, r);
    }
    const RepairOutcome out = session.apply(edit);
    if (!out.success) {
      ++counts.rejected;
      EXPECT_NE(out.failure, FailureKind::kNone) << tag << " step " << step;
    } else {
      ++counts.applied;
      if (out.path == RepairOutcome::Path::kRepair) {
        ++counts.repairs;
      } else {
        ++counts.dp_fallbacks;
      }
      if (edit.kind == ChannelEdit::Kind::kAdd) live.push_back(out.id);
      if (edit.kind == ChannelEdit::Kind::kRemove) {
        live.erase(std::find(live.begin(), live.end(), edit.id));
      }
    }
    // The contract: after EVERY apply() — success or rollback — the
    // state validates and is bit-identical to canonical(S) from scratch.
    state = session.snapshot();
    ASSERT_EQ(state.first.size(), static_cast<ConnId>(live.size()))
        << tag << " step " << step;
    ASSERT_TRUE(validate(session.channel(), state.first, state.second,
                         max_segments > 0 ? std::optional<int>(max_segments)
                                          : std::nullopt))
        << tag << " step " << step;
    const Oracle ref = oracle(session.channel(), state.first, max_segments);
    ASSERT_TRUE(ref.routed) << tag << " step " << step;
    ASSERT_EQ(ref.routing, state.second)
        << tag << " step " << step << " regime "
        << (ref.dp ? "dp" : "greedy");
    if (out.success) {
      EXPECT_EQ(out.path, ref.dp ? RepairOutcome::Path::kFullDp
                                 : RepairOutcome::Path::kRepair)
          << tag << " step " << step;
    }
  }
}

// The headline gate: >= 200 randomized edit scripts (3 families x 70)
// of 30 add/remove/move edits each, bit-identity checked after every
// single apply(), with K-segment limits on a third of the scripts, and
// the greedy regime carrying a majority of successful edits.
TEST(DeltaSuite, RandomizedEditScriptsStayCanonical) {
  std::mt19937_64 rng(1007);
  EditCounters counts;
  int scripts = 0;
  for (const Family& fam : families()) {
    for (int script = 0; script < 70; ++script) {
      const int max_segments = script % 3 == 0 ? 2 : 0;
      OnlineRouter session(fam.ch, OnlineRouter::Policy::BestFit,
                           max_segments);
      const std::string tag = fam.name + " script " + std::to_string(script);
      run_script(session, rng, /*steps=*/30, max_segments, counts, tag);
      ++scripts;
    }
  }
  EXPECT_GE(scripts, 200);
  EXPECT_GT(counts.applied, 1000L);
  EXPECT_GT(counts.rejected, 0L);  // scripts do saturate channels
  // The greedy regime carries the majority of successful edits; the
  // DP fallback must engage too.
  EXPECT_GT(counts.repairs, counts.dp_fallbacks)
      << "repairs=" << counts.repairs << " dp=" << counts.dp_fallbacks;
  EXPECT_GT(counts.dp_fallbacks, 0L);
}

// The engine-served session routing: final states of seeded scripts
// must be reproduced by BatchRouter with router="online" under every
// thread count and cache mode (1/2/8 threads x cache on/off).
TEST(DeltaSuite, EngineDeltaRouterMatchesSessionsAcrossThreadsAndCache) {
  for (const Family& fam : families()) {
    std::mt19937_64 rng(2029);
    std::vector<ConnectionSet> finals;
    std::vector<Routing> expected;
    EditCounters counts;
    for (int script = 0; script < 12; ++script) {
      OnlineRouter session(fam.ch, OnlineRouter::Policy::BestFit, 0);
      run_script(session, rng, /*steps=*/25, 0, counts,
                 fam.name + " engine script " + std::to_string(script));
      auto [cs, routing] = session.snapshot();
      finals.push_back(std::move(cs));
      expected.push_back(std::move(routing));
    }
    for (const int threads : {1, 2, 8}) {
      for (const bool cache : {true, false}) {
        engine::BatchOptions bo;
        bo.threads = threads;
        bo.use_cache = cache;
        engine::BatchRouter engine(fam.ch, bo);
        engine::EngineRouteOptions ro;
        ro.router = "online";
        const std::vector<RouteResult> results =
            engine.route_many(finals, ro);
        ASSERT_EQ(results.size(), finals.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
          ASSERT_TRUE(results[i].success)
              << fam.name << " threads=" << threads << " cache=" << cache
              << " i=" << i;
          EXPECT_EQ(results[i].routing, expected[i])
              << fam.name << " threads=" << threads << " cache=" << cache
              << " i=" << i;
        }
      }
    }
  }
}

// Deterministic DP-fallback scenario: greedy routes the first two adds
// but strands the third (the early conn hogged both segments of t0);
// the DP reorders. The session must switch regimes, stay bit-identical,
// and renormalize back to greedy when the blocker is removed.
TEST(DeltaSuite, DpFallbackEngagesAndRenormalizes) {
  // t0: (1,4)(5,9); t1: (1,9).
  const SegmentedChannel ch({Track(9, {4}), Track(9, {})});
  OnlineRouter session(ch);
  const RepairOutcome z = session.apply(ChannelEdit::add(2, 8));  // t0 both segs
  const RepairOutcome x = session.apply(ChannelEdit::add(1, 4));  // t1
  ASSERT_TRUE(z.success && x.success);
  EXPECT_EQ(z.path, RepairOutcome::Path::kRepair);
  EXPECT_EQ(x.path, RepairOutcome::Path::kRepair);

  // Greedy is now stuck for (5,9): both t0 segments held by z, t1 by x.
  const RepairOutcome y = session.apply(ChannelEdit::add(5, 9));
  ASSERT_TRUE(y.success);
  EXPECT_EQ(y.path, RepairOutcome::Path::kFullDp);
  {
    const auto [cs, routing] = session.snapshot();
    const Oracle ref = oracle(ch, cs, 0);
    ASSERT_TRUE(ref.routed);
    EXPECT_TRUE(ref.dp);
    EXPECT_EQ(ref.routing, routing);
  }

  // Removing the hog makes greedy canonical again.
  const RepairOutcome rm = session.apply(ChannelEdit::remove(z.id));
  ASSERT_TRUE(rm.success);
  EXPECT_EQ(rm.path, RepairOutcome::Path::kRepair);
  const auto [cs, routing] = session.snapshot();
  const Oracle ref = oracle(ch, cs, 0);
  EXPECT_FALSE(ref.dp);
  EXPECT_EQ(ref.routing, routing);
}

// A rejected edit must roll the session back bit-identically and leave
// a typed failure behind.
TEST(DeltaSuite, InfeasibleEditRollsBackBitIdentically) {
  const SegmentedChannel ch({Track(9, {4}), Track(9, {6})});
  OnlineRouter session(ch);
  ASSERT_TRUE(session.apply(ChannelEdit::add(1, 3)).success);
  ASSERT_TRUE(session.apply(ChannelEdit::add(2, 4)).success);
  const auto before = session.snapshot();

  const RepairOutcome out = session.apply(ChannelEdit::add(3, 3));
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.failure, FailureKind::kInfeasible);
  EXPECT_EQ(out.id, kNoConn);

  const auto after = session.snapshot();
  EXPECT_EQ(before.second, after.second);
  ASSERT_EQ(before.first.size(), after.first.size());
  for (ConnId i = 0; i < before.first.size(); ++i) {
    EXPECT_EQ(before.first[i].left, after.first[i].left);
    EXPECT_EQ(before.first[i].right, after.first[i].right);
  }

  // Malformed edits are rejected before any routing runs.
  const RepairOutcome bad = session.apply(ChannelEdit::add(0, 3));
  EXPECT_FALSE(bad.success);
  EXPECT_EQ(bad.failure, FailureKind::kInvalidInput);
  EXPECT_EQ(bad.path, RepairOutcome::Path::kNone);
  const RepairOutcome ghost = session.apply(ChannelEdit::remove(99));
  EXPECT_FALSE(ghost.success);
  EXPECT_EQ(ghost.failure, FailureKind::kInvalidInput);
}

// A move keeps the id and name, takes the new span, and re-derives the
// other connections: here it frees the snug segment another connection
// had been pushed off.
TEST(DeltaSuite, MoveRelocatesTheConnection) {
  // t0: (1,12)(13,24); t1: (1,6)(7,12)(13,18)(19,24).
  const SegmentedChannel ch({Track(24, {12}), Track(24, {6, 12, 18})});
  OnlineRouter session(ch);
  const RepairOutcome a = session.apply(ChannelEdit::add(2, 5, "a"));
  const RepairOutcome b = session.apply(ChannelEdit::add(3, 4, "b"));
  ASSERT_TRUE(a.success && b.success);
  ASSERT_EQ(session.track_of(a.id), 1);  // (1,6) beats (1,12)
  ASSERT_EQ(session.track_of(b.id), 0);  // (1,6) taken

  const RepairOutcome mv = session.apply(ChannelEdit::move(a.id, 19, 23));
  ASSERT_TRUE(mv.success);
  EXPECT_EQ(mv.id, a.id);
  EXPECT_EQ(mv.path, RepairOutcome::Path::kRepair);
  EXPECT_EQ(session.connection(a.id).name, "a");
  EXPECT_EQ(session.connection(a.id).left, 19);
  EXPECT_EQ(session.connection(a.id).right, 23);
  EXPECT_EQ(session.track_of(a.id), 1);  // (19,24) beats (13,24)
  EXPECT_EQ(session.track_of(b.id), 1);  // back on the freed (1,6)
  const auto [cs, routing] = session.snapshot();
  ASSERT_EQ(cs.size(), 2);
  EXPECT_EQ(cs[0].left, 19);
  EXPECT_EQ(oracle(ch, cs, 0).routing, routing);
}

// ---------------------------------------------------------------------
// rebind_delta: fingerprint-delta-aware cache migration.

engine::EngineRouteOptions dp_opts() {
  engine::EngineRouteOptions ro;
  ro.router = "dp";
  return ro;
}

// Staggered tracks have pairwise-distinct segmentations, so resegmenting
// one track preserves the type partition: the substrates are
// migration-comparable, entries whose conns avoid the resegmented
// columns migrate, and entries overlapping them are evicted.
TEST(RebindDelta, MigratesDisjointEntriesAndEvictsOverlapping) {
  const SegmentedChannel ch = gen::staggered_segmentation(4, 24, 6);
  std::vector<Track> tracks = ch.tracks();
  std::vector<Column> sw = tracks.back().switch_positions();
  Column extra = 21;  // a fresh switch position near the right edge
  while (std::find(sw.begin(), sw.end(), extra) != sw.end()) --extra;
  sw.push_back(extra);
  std::sort(sw.begin(), sw.end());
  tracks.back() = Track(24, sw);
  const SegmentedChannel ch2(tracks);

  engine::BatchRouter engine(ch);
  ConnectionSet far;  // columns 1..6: disjoint from the edit near 21
  far.add(1, 3);
  far.add(4, 6);
  ConnectionSet near;  // straddles the new switch
  near.add(19, 23);
  ASSERT_TRUE(engine.route(far, dp_opts()).success);
  ASSERT_TRUE(engine.route(near, dp_opts()).success);

  const engine::RebindDelta d = engine.rebind_delta(ch2);
  EXPECT_FALSE(d.structural);
  EXPECT_NE(d.old_fingerprint, d.new_fingerprint);
  EXPECT_EQ(d.new_fingerprint, engine.index().fingerprint());
  EXPECT_LE(d.affected_lo, extra);
  EXPECT_GE(d.affected_hi, extra);
  EXPECT_EQ(d.migrated, 1u);
  EXPECT_EQ(d.evicted, 1u);

  // The migrated entry serves a hit under the NEW fingerprint, and the
  // served routing is bit-identical to a cold engine's on ch2.
  const engine::CacheStats before = engine.cache_stats();
  const RouteResult warm = engine.route(far, dp_opts());
  const engine::CacheStats after = engine.cache_stats();
  ASSERT_TRUE(warm.success);
  EXPECT_EQ(after.hits, before.hits + 1);
  engine::BatchRouter cold(ch2);
  const RouteResult fresh = cold.route(far, dp_opts());
  ASSERT_TRUE(fresh.success);
  EXPECT_EQ(warm.routing, fresh.routing);

  // The overlapping entry was evicted: routing `near` misses.
  const engine::CacheStats b2 = engine.cache_stats();
  ASSERT_TRUE(engine.route(near, dp_opts()).success);
  EXPECT_EQ(engine.cache_stats().misses, b2.misses + 1);
}

// Resegmenting a uniform track splits its type class, which can change
// the DP's canonicalized tie-breaks globally — the substrates are NOT
// migration-comparable and rebind_delta must fall back to structural
// (nothing migrates; old-fingerprint entries become unreachable, as in
// plain rebind()).
TEST(RebindDelta, TypePartitionChangeFallsBackToStructural) {
  const SegmentedChannel ch = gen::uniform_segmentation(4, 24, 6);
  std::vector<Track> tracks = ch.tracks();
  std::vector<Column> sw = tracks.back().switch_positions();
  sw.push_back(21);  // uniform grid is 6/12/18 — 21 is fresh
  std::sort(sw.begin(), sw.end());
  tracks.back() = Track(24, sw);
  const SegmentedChannel ch2(tracks);

  engine::BatchRouter engine(ch);
  ConnectionSet far;
  far.add(1, 3);
  ASSERT_TRUE(engine.route(far, dp_opts()).success);
  const engine::RebindDelta d = engine.rebind_delta(ch2);
  EXPECT_TRUE(d.structural);
  EXPECT_EQ(d.migrated, 0u);
  EXPECT_EQ(d.evicted, 0u);
  EXPECT_EQ(engine.index().fingerprint(), d.new_fingerprint);
}

// Losing a track is a structural change regardless of spans.
TEST(RebindDelta, TrackCountChangeIsStructural) {
  const SegmentedChannel ch = gen::staggered_segmentation(4, 24, 6);
  std::vector<Track> tracks = ch.tracks();
  tracks.pop_back();
  const SegmentedChannel ch2(tracks);
  engine::BatchRouter engine(ch);
  ConnectionSet cs;
  cs.add(1, 3);
  ASSERT_TRUE(engine.route(cs, dp_opts()).success);
  const engine::RebindDelta d = engine.rebind_delta(ch2);
  EXPECT_TRUE(d.structural);
  EXPECT_EQ(d.migrated, 0u);
}

// Rebinding to an identical channel is a no-op delta: same fingerprint,
// nothing migrated or evicted, and cached entries still hit.
TEST(RebindDelta, IdenticalChannelIsANoOp) {
  const SegmentedChannel ch = gen::staggered_segmentation(4, 24, 6);
  const SegmentedChannel twin = gen::staggered_segmentation(4, 24, 6);
  engine::BatchRouter engine(ch);
  ConnectionSet cs;
  cs.add(1, 3);
  ASSERT_TRUE(engine.route(cs, dp_opts()).success);
  const engine::RebindDelta d = engine.rebind_delta(twin);
  EXPECT_FALSE(d.structural);
  EXPECT_EQ(d.old_fingerprint, d.new_fingerprint);
  EXPECT_EQ(d.migrated, 0u);
  EXPECT_EQ(d.evicted, 0u);
  const engine::CacheStats before = engine.cache_stats();
  ASSERT_TRUE(engine.route(cs, dp_opts()).success);
  EXPECT_EQ(engine.cache_stats().hits, before.hits + 1);
}

// The "online" registry entry: exact + K-capable, policy-checked, and
// the routing a session holds after adding the set in id order.
TEST(DeltaSuite, RegistryEntryServesTheReference) {
  const RouterEntry* e = find_router("online");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->caps.exact);
  EXPECT_TRUE(e->caps.supports_k);
  EXPECT_EQ(find_router("delta"), nullptr);

  const SegmentedChannel ch = gen::staggered_segmentation(3, 20, 5);
  ConnectionSet cs;
  cs.add(1, 4);
  cs.add(6, 10);
  RouteRequest rq;
  rq.channel = &ch;
  rq.connections = &cs;
  const RouteResult rr = route("online", rq);
  ASSERT_TRUE(rr.success);
  EXPECT_EQ(rr.note, "regime=greedy");
  EXPECT_EQ(rr.routing, oracle(ch, cs, 0).routing);
  OnlineRouter session(ch);
  for (const Connection& c : cs.all()) {
    ASSERT_TRUE(session.apply(ChannelEdit::add(c.left, c.right)).success);
  }
  EXPECT_EQ(rr.routing, session.snapshot().second);

  rq.options.params["policy"] = std::string("sideways");
  const RouteResult bad = route("online", rq);
  EXPECT_FALSE(bad.success);
  EXPECT_EQ(bad.failure, FailureKind::kInvalidInput);
}

}  // namespace
}  // namespace segroute::alg
