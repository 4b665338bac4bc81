#include "engine/batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "alg/dp.h"
#include "core/channel_index.h"
#include "core/routing.h"
#include "gen/fixtures.h"
#include "gen/segmentation.h"
#include "gen/workload.h"
#include "harness/fault.h"

namespace segroute::engine {
namespace {

SegmentedChannel random_channel(TrackId T, Column width, int max_cuts,
                                std::mt19937_64& rng) {
  std::vector<Track> tracks;
  for (TrackId t = 0; t < T; ++t) {
    std::set<Column> cuts;
    const int k = static_cast<int>(rng() % static_cast<unsigned>(max_cuts + 1));
    for (int i = 0; i < k; ++i) {
      cuts.insert(1 + static_cast<Column>(rng() % (width - 1)));
    }
    tracks.emplace_back(width, std::vector<Column>(cuts.begin(), cuts.end()));
  }
  return SegmentedChannel(std::move(tracks));
}

bool same_result(const alg::RouteResult& a, const alg::RouteResult& b) {
  return a.success == b.success && a.weight == b.weight &&
         a.routing == b.routing && a.failure == b.failure;
}

// --- ChannelIndex ---------------------------------------------------------

TEST(ChannelIndex, SegmentAtMatchesTrackOnRandomChannels) {
  std::mt19937_64 rng(701);
  for (int iter = 0; iter < 30; ++iter) {
    const auto ch = random_channel(4, 24, 5, rng);
    const ChannelIndex idx(ch);
    for (TrackId t = 0; t < ch.num_tracks(); ++t) {
      const Track& tr = ch.track(t);
      for (Column c = 1; c <= ch.width(); ++c) {
        const SegId s = idx.segment_at(t, c);
        ASSERT_EQ(s, tr.segment_at(c)) << "t=" << t << " c=" << c;
        EXPECT_EQ(idx.seg_left(t, s), tr.segment(s).left);
        EXPECT_EQ(idx.seg_right(t, s), tr.segment(s).right);
      }
    }
  }
}

TEST(ChannelIndex, TypeClassesPartitionTheTracks) {
  const auto ch = gen::progressive_segmentation(6, 24, 4, 2);
  const ChannelIndex idx(ch);
  // Type classes partition the tracks and members share the representative's
  // segmentation.
  std::vector<char> seen(static_cast<std::size_t>(ch.num_tracks()), 0);
  for (int ty = 0; ty < idx.num_types(); ++ty) {
    const TrackId rep = idx.representative(ty);
    for (TrackId t : idx.tracks_of_type(ty)) {
      seen[static_cast<std::size_t>(t)] = 1;
      EXPECT_EQ(idx.type_of()[static_cast<std::size_t>(t)], ty);
      EXPECT_EQ(ch.track(t).segments(), ch.track(rep).segments());
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](char c) { return c; }));
}

TEST(ChannelIndex, FingerprintDistinguishesStructuralEdits) {
  const auto ch = gen::staggered_segmentation(6, 32, 8);
  const std::uint64_t fp = fingerprint(ch);
  EXPECT_EQ(fp, fingerprint(gen::staggered_segmentation(6, 32, 8)));  // stable
  EXPECT_EQ(ChannelIndex(ch).fingerprint(), fp);

  // Pinned values: the service and chaos digests fold fingerprints in, so
  // the hash itself must never drift.
  EXPECT_EQ(fp, 0xea4e2a73f31bea04ull);
  EXPECT_EQ(fingerprint(SegmentedChannel::identical(4, 16, {4, 8, 12})),
            0x38425289d7260d57ull);
  EXPECT_EQ(fingerprint(gen::progressive_segmentation(6, 24, 4, 2)),
            0xddd28c4379f21e04ull);

  // Any structural perturbation moves the fingerprint.
  EXPECT_NE(fp, fingerprint(gen::staggered_segmentation(7, 32, 8)));
  EXPECT_NE(fp, fingerprint(gen::staggered_segmentation(6, 33, 8)));
  EXPECT_NE(fp, fingerprint(gen::staggered_segmentation(6, 32, 7)));
}

TEST(ChannelIndex, FaultMaterializedChannelGetsDistinctFingerprint) {
  const auto ch = gen::staggered_segmentation(6, 32, 8);
  const std::uint64_t fp = fingerprint(ch);
  // A stuck-closed switch fuses two segments: structurally different
  // channel, so caches keyed by fingerprint can never serve pristine
  // answers for the degraded fabric.
  const std::vector<harness::Fault> faults = {
      {harness::Fault::Kind::kSwitchStuckClosed, 0, 8}};
  const auto degraded = harness::apply(ch, faults);
  ASSERT_TRUE(degraded.has_value());
  ASSERT_EQ(degraded->switches_fused, 1);
  EXPECT_NE(fp, fingerprint(degraded->channel));

  // A dead segment withdraws the track entirely — also a new fingerprint.
  const std::vector<harness::Fault> dead = {
      {harness::Fault::Kind::kSegmentDead, 1, 4}};
  const auto withdrawn = harness::apply(ch, dead);
  ASSERT_TRUE(withdrawn.has_value());
  ASSERT_EQ(withdrawn->tracks_lost, 1);
  EXPECT_NE(fp, fingerprint(withdrawn->channel));
}

// --- Occupancy reuse ------------------------------------------------------

TEST(Occupancy, ResetAndRebindReuseTheWorkspace) {
  const auto ch = gen::staggered_segmentation(4, 16, 4);
  Occupancy occ(ch);
  ASSERT_TRUE(occ.fits(0, 1, 4));
  ASSERT_TRUE(occ.place(0, 1, 4, 0));
  EXPECT_FALSE(occ.fits(0, 1, 4));
  occ.reset();
  EXPECT_TRUE(occ.fits(0, 1, 4));

  // Same shape: rebind clears in place; different shape: rebuilds.
  ASSERT_TRUE(occ.place(0, 1, 4, 0));
  occ.rebind(ch);
  EXPECT_TRUE(occ.fits(0, 1, 4));
  const auto other = gen::staggered_segmentation(6, 24, 6);
  occ.rebind(other);
  for (TrackId t = 0; t < other.num_tracks(); ++t) {
    EXPECT_TRUE(occ.fits(t, 1, other.width()));
  }
}

// --- BatchRouter cache ----------------------------------------------------

TEST(BatchRouter, CacheHitReturnsBitIdenticalResult) {
  const auto ch = gen::staggered_segmentation(6, 32, 8);
  std::mt19937_64 rng(77);
  const auto cs = gen::routable_workload(ch, 12, 5.0, rng);

  BatchRouter router(ch);
  EngineRouteOptions eo;
  eo.weight = WeightKind::kOccupiedLength;
  const auto first = router.route(cs, eo);
  const auto second = router.route(cs, eo);
  ASSERT_TRUE(first.success);
  EXPECT_TRUE(same_result(first, second));

  const CacheStats s = router.cache_stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.size, 1u);

  // And both match the direct, index-free path bit for bit.
  alg::DpOptions direct;
  direct.weight = weights::occupied_length();
  EXPECT_TRUE(same_result(first, alg::dp_route(ch, cs, direct)));
}

TEST(BatchRouter, PerturbedOptionsAndInstancesMiss) {
  const auto ch = gen::staggered_segmentation(6, 32, 8);
  std::mt19937_64 rng(78);
  const auto cs = gen::routable_workload(ch, 10, 5.0, rng);

  BatchRouter router(ch);
  EngineRouteOptions eo;
  (void)router.route(cs, eo);  // miss 1

  EngineRouteOptions k2 = eo;
  k2.max_segments = 2;
  (void)router.route(cs, k2);  // miss 2: max_segments differs

  EngineRouteOptions weighted = eo;
  weighted.weight = WeightKind::kSegmentCount;
  (void)router.route(cs, weighted);  // miss 3: objective differs

  std::vector<Connection> perturbed = cs.all();
  perturbed[0] = Connection{perturbed[0].left,
                            std::min<Column>(perturbed[0].right + 1, 32), ""};
  (void)router.route(ConnectionSet(perturbed), eo);  // miss 4: endpoint moved

  // A permuted instance must not be served the original's routing either:
  // routings map connection ids, so the exact sequence is the key.
  std::vector<Connection> reversed(cs.all().rbegin(), cs.all().rend());
  (void)router.route(ConnectionSet(reversed), eo);  // miss 5

  const CacheStats s = router.cache_stats();
  EXPECT_EQ(s.misses, 5u);
  EXPECT_EQ(s.hits, 0u);

  // The same channel structure in a different BatchRouter hits nothing
  // stale: fingerprints agree, but each router owns its cache; a
  // *different* channel yields a different fingerprint altogether.
  const auto other = gen::staggered_segmentation(6, 32, 4);
  EXPECT_NE(router.fingerprint(), fingerprint(other));
}

TEST(BatchRouter, LruEvictionRespectsCapacityBound) {
  const auto ch = gen::staggered_segmentation(6, 32, 8);
  BatchOptions bo;
  bo.cache_capacity = 4;
  // One shard = one global LRU: this test asserts the exact global
  // recency order, which only a single shard guarantees (with more
  // shards the capacity bound still holds but eviction is per shard).
  bo.cache_shards = 1;
  BatchRouter router(ch, bo);

  std::mt19937_64 rng(79);
  std::vector<ConnectionSet> sets;
  for (int i = 0; i < 7; ++i) {
    sets.push_back(gen::routable_workload(ch, 8, 5.0, rng));
  }
  for (const auto& cs : sets) (void)router.route(cs);

  CacheStats s = router.cache_stats();
  EXPECT_EQ(s.misses, 7u);
  EXPECT_EQ(s.size, 4u);
  EXPECT_EQ(s.evictions, 3u);

  // The most recent four are resident; the eldest was evicted and
  // re-routing it misses again.
  (void)router.route(sets.back());
  (void)router.route(sets.front());
  s = router.cache_stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 8u);
  EXPECT_EQ(s.size, 4u);
}

TEST(BatchRouter, BudgetLimitedCallsBypassTheCache) {
  const auto ch = gen::staggered_segmentation(6, 32, 8);
  std::mt19937_64 rng(80);
  const auto cs = gen::routable_workload(ch, 10, 5.0, rng);

  BatchRouter router(ch);
  EngineRouteOptions limited;
  limited.budget.max_ticks = 1'000'000'000;  // generous but not unlimited
  const auto r1 = router.route(cs, limited);
  const auto r2 = router.route(cs, limited);
  EXPECT_TRUE(same_result(r1, r2));
  const CacheStats s = router.cache_stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.size, 0u);
}

// --- route_many determinism ----------------------------------------------

TEST(BatchRouter, RouteManyIsBitIdenticalAcrossThreadCountsAndCacheModes) {
  const auto ch = gen::staggered_segmentation(8, 48, 8);
  std::mt19937_64 rng(81);
  std::vector<ConnectionSet> batch;
  for (int i = 0; i < 24; ++i) {
    // Cycle 6 distinct instances so the cache sees repeats mid-batch.
    if (i < 6) {
      batch.push_back(gen::routable_workload(ch, 14, 5.0, rng));
    } else {
      batch.push_back(batch[static_cast<std::size_t>(i % 6)]);
    }
  }
  EngineRouteOptions eo;
  eo.weight = WeightKind::kOccupiedLength;

  // Reference: the direct path, one instance at a time.
  std::vector<alg::RouteResult> reference;
  alg::DpOptions direct;
  direct.weight = weights::occupied_length();
  for (const auto& cs : batch) reference.push_back(alg::dp_route(ch, cs, direct));

  for (const bool use_cache : {false, true}) {
    for (const int threads : {1, 2, 8}) {
      BatchOptions bo;
      bo.threads = threads;
      bo.use_cache = use_cache;
      BatchRouter router(ch, bo);
      const auto results = router.route_many(batch, eo);
      ASSERT_EQ(results.size(), batch.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_TRUE(same_result(results[i], reference[i]))
            << "cache=" << use_cache << " threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(BatchRouter, RouteManyMatchesDirectOnInfeasibleAndMixedBatches) {
  const auto ch = gen::fixtures::fig3_channel();
  std::mt19937_64 rng(82);
  std::vector<ConnectionSet> batch;
  for (int i = 0; i < 12; ++i) {
    batch.push_back(gen::geometric_workload(
        2 + static_cast<int>(rng() % 8), ch.width(), 4.0, rng));
  }
  BatchRouter router(ch, {});
  const auto results = router.route_many(batch);
  int yes = 0, no = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto direct = alg::dp_route_unlimited(ch, batch[i]);
    EXPECT_TRUE(same_result(results[i], direct)) << "i=" << i;
    (results[i].success ? yes : no)++;
  }
  EXPECT_GT(yes, 0);
  EXPECT_GT(no, 0);
}

TEST(BatchRouter, RebindRoutesOnTheNewSubstrate) {
  const auto ch = gen::staggered_segmentation(6, 32, 8);
  std::mt19937_64 rng(90);
  const auto cs = gen::routable_workload(ch, 10, 5.0, rng);

  BatchRouter router(ch);
  const std::uint64_t base_fp = router.fingerprint();
  const auto base = router.route(cs);
  ASSERT_TRUE(base.success);

  // Degrade the channel and rebind: the engine must route on the
  // degraded substrate and match the direct path bit for bit.
  const auto degraded = harness::apply(
      ch, {{harness::Fault::Kind::kSegmentDead, 0, 1}});
  ASSERT_TRUE(degraded.has_value());
  router.rebind(degraded->channel);
  const std::uint64_t deg_fp = router.fingerprint();
  EXPECT_NE(deg_fp, base_fp);
  const auto on_degraded = router.route(cs);
  EXPECT_TRUE(
      same_result(on_degraded, alg::dp_route_unlimited(degraded->channel, cs)));

  // Rebinding back serves the base entry from the memo cache: the cache
  // key carries the substrate fingerprint, so the degraded result can
  // never shadow the base one.
  router.rebind(ch);
  const auto back = router.route(cs);
  EXPECT_TRUE(same_result(back, base));
  EXPECT_EQ(router.cache_stats().hits, 1u);
}

TEST(BatchRouter, InvalidateEvictsOnlyTheMatchingFingerprint) {
  const auto ch = gen::staggered_segmentation(6, 32, 8);
  std::mt19937_64 rng(91);
  const auto cs = gen::routable_workload(ch, 10, 5.0, rng);

  BatchRouter router(ch);
  const std::uint64_t base_fp = router.fingerprint();
  (void)router.route(cs);  // base entry

  const auto degraded = harness::apply(
      ch, {{harness::Fault::Kind::kSegmentDead, 0, 1}});
  ASSERT_TRUE(degraded.has_value());
  router.rebind(degraded->channel);
  const std::uint64_t deg_fp = router.fingerprint();
  (void)router.route(cs);  // degraded entry
  EXPECT_EQ(router.cache_stats().size, 2u);

  // Evict the degraded substrate's entries; the base entry stays hot.
  router.invalidate(deg_fp);
  EXPECT_EQ(router.cache_stats().size, 1u);
  EXPECT_EQ(router.cache_stats().invalidations, 1u);

  router.rebind(ch);
  (void)router.route(cs);
  EXPECT_EQ(router.cache_stats().hits, 1u);  // base entry survived

  // Invalidating the base fingerprint empties the cache; an unknown
  // fingerprint is a no-op.
  router.invalidate(base_fp);
  EXPECT_EQ(router.cache_stats().size, 0u);
  router.invalidate(0xdeadbeef);
  EXPECT_EQ(router.cache_stats().invalidations, 2u);
}

TEST(BatchRouter, UnknownRouterIsInvalidInputNotACrash) {
  const auto ch = gen::staggered_segmentation(4, 16, 4);
  std::mt19937_64 rng(92);
  const auto cs = gen::routable_workload(ch, 4, 4.0, rng);
  BatchRouter router(ch);
  EngineRouteOptions eo;
  eo.router = "no-such-router";
  const auto r = router.route(cs, eo);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, alg::FailureKind::kInvalidInput);
  EXPECT_NE(r.note.find("no-such-router"), std::string::npos);
}

}  // namespace
}  // namespace segroute::engine
