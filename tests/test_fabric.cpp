#include "fpga/fabric.h"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include "alg/decompose.h"
#include "alg/registry.h"
#include "core/router.h"
#include "core/routing.h"
#include "engine/batch.h"
#include "fpga/netlist.h"
#include "fpga/place.h"
#include "gen/segmentation.h"

namespace segroute::fpga {
namespace {

// A random but reproducible fabric scenario: device, netlist, placement.
struct Scenario {
  DeviceSpec dev;
  Netlist nl;
  Placement p;
};

Scenario make_scenario(std::uint64_t seed, int rows = 3, int slots = 8,
                       int nets = 14) {
  std::mt19937_64 rng(seed);
  DeviceSpec dev;
  dev.rows = rows;
  dev.slots_per_row = slots;
  dev.cell_width = 2;
  Netlist nl = random_netlist(rows * slots, nets, 4, slots, rng);
  Placement p = random_placement(nl, rows, slots, rng);
  return Scenario{dev, std::move(nl), std::move(p)};
}

std::function<SegmentedChannel(int, Column)> staggered_factory(Column seglen) {
  return [seglen](int tracks, Column width) {
    return gen::staggered_segmentation(tracks, width, seglen);
  };
}

// Every channel's routing must independently re-validate on the substrate.
void expect_valid(const FabricRouter& fr, const FabricResult& res, int tracks,
                  const std::function<SegmentedChannel(int, Column)>& make) {
  const SegmentedChannel sub = make(tracks, fr.device().columns());
  for (std::size_t c = 0; c < res.per_channel.size(); ++c) {
    const auto v = validate(sub, res.per_channel[c], res.routings[c]);
    EXPECT_TRUE(v.ok) << "channel " << c << ": " << v.error;
  }
}

TEST(Fabric, BitIdenticalAcrossThreadCountsAndCacheModes) {
  for (std::uint64_t seed : {7u, 21u, 99u}) {
    const Scenario sc = make_scenario(seed);
    const auto make = staggered_factory(6);
    const FabricRouter fr(sc.dev, sc.nl, sc.p, make);

    FabricOptions base;
    base.max_iterations = 8;
    const int tracks = 6;

    std::optional<FabricResult> reference;
    for (int threads : {1, 2, 8}) {
      for (bool cache : {true, false}) {
        FabricOptions o = base;
        o.threads = threads;
        o.use_cache = cache;
        const FabricResult r = fr.route(tracks, o);
        if (!reference) {
          reference = r;
          continue;
        }
        EXPECT_EQ(r.digest, reference->digest)
            << "seed " << seed << " threads " << threads << " cache " << cache;
        EXPECT_EQ(r.success, reference->success);
        EXPECT_EQ(r.iterations, reference->iterations);
        EXPECT_EQ(r.channel_of_net, reference->channel_of_net);
        for (std::size_t c = 0; c < r.routings.size(); ++c) {
          EXPECT_EQ(r.routings[c], reference->routings[c]) << "channel " << c;
        }
      }
    }
    if (reference->success) expect_valid(fr, *reference, tracks, make);
  }
}

TEST(Fabric, ConvergesOnKnownFeasibleFixture) {
  // Fully segmented tracks make a channel conventional: density <= tracks
  // is routable, so a generous track count must converge — and validate.
  const Scenario sc = make_scenario(42, /*rows=*/2, /*slots=*/6, /*nets=*/8);
  const auto make = [](int tracks, Column width) {
    return SegmentedChannel::fully_segmented(tracks, width);
  };
  const FabricRouter fr(sc.dev, sc.nl, sc.p, make);

  FabricOptions o;
  o.max_iterations = 8;
  const FabricResult res = fr.route(/*tracks=*/8, o);
  ASSERT_TRUE(res.success) << res.note;
  EXPECT_EQ(res.iterations, 1);  // no contention at 8 tracks: greedy wins
  expect_valid(fr, res, 8, make);
  for (const auto& rep : res.channels) {
    EXPECT_TRUE(rep.routed);
    EXPECT_EQ(rep.failure, alg::FailureKind::kNone);
  }
}

TEST(Fabric, NegotiationMovesNetsWhereGreedyFails) {
  // Three nets, three channels, one full-width single-segment track each:
  // every channel holds exactly one net. A[1,3] and B[5,7] sit in row 0
  // (channels {0,1}); C[1,7] sits in row 1 (channels {1,2}). The greedy
  // assignment collides (extended spans make A and B conflict everywhere),
  // so only negotiation — history pricing the failed channel — can spread
  // the three nets over the three channels.
  DeviceSpec dev;
  dev.rows = 2;
  dev.slots_per_row = 4;
  dev.cell_width = 2;  // pins at columns 1, 3, 5, 7; width 8
  const Netlist nl(8, {CellNet{{0, 1}, "A"}, CellNet{{2, 3}, "B"},
                       CellNet{{4, 7}, "C"}});
  const Placement p = sequential_placement(nl, dev.rows, dev.slots_per_row);
  const auto make = [](int tracks, Column width) {
    return SegmentedChannel::unsegmented(tracks, width);
  };
  const FabricRouter fr(dev, nl, p, make);

  FabricOptions o;
  o.max_iterations = 8;
  const FabricResult independent = fr.route_independent(1, o);
  EXPECT_FALSE(independent.success);
  EXPECT_EQ(independent.iterations, 1);

  const FabricResult res = fr.route(1, o);
  ASSERT_TRUE(res.success) << res.note;
  EXPECT_GT(res.iterations, 1);  // greedy alone was not enough
  expect_valid(fr, res, 1, make);
  const std::set<int> used(res.channel_of_net.begin(),
                           res.channel_of_net.end());
  EXPECT_EQ(used.size(), 3u);  // all three nets in distinct channels
}

TEST(Fabric, NegotiatedNeverNeedsMoreTracksThanIndependent) {
  for (std::uint64_t seed : {3u, 11u}) {
    const Scenario sc = make_scenario(seed);
    const auto make = staggered_factory(5);
    const FabricRouter fr(sc.dev, sc.nl, sc.p, make);
    FabricOptions o;
    o.max_iterations = 8;
    FabricOptions ind = o;
    ind.max_iterations = 1;
    const auto negotiated = fr.min_fabric_tracks(16, o);
    const auto independent = fr.min_fabric_tracks(16, ind);
    ASSERT_TRUE(negotiated.has_value());
    ASSERT_TRUE(independent.has_value());
    EXPECT_LE(*negotiated, *independent) << "seed " << seed;
  }
}

TEST(Fabric, BudgetExhaustionReportsPerChannelFailure) {
  const Scenario sc = make_scenario(5, /*rows=*/3, /*slots=*/8, /*nets=*/18);
  const FabricRouter fr(sc.dev, sc.nl, sc.p, staggered_factory(6));

  FabricOptions o;
  o.max_iterations = 4;
  o.budget = harness::Budget::with_ticks(o.max_iterations *
                                         sc.dev.num_channels());  // 1 tick each
  const FabricResult res = fr.route(/*tracks=*/6, o);
  EXPECT_FALSE(res.success);
  EXPECT_NE(res.note.find("budget"), std::string::npos) << res.note;
  bool saw_budget = false;
  for (const auto& rep : res.channels) {
    if (rep.failure == alg::FailureKind::kBudgetExhausted) saw_budget = true;
  }
  EXPECT_TRUE(saw_budget);

  // Tick budgets stay deterministic: same starved run, same digest.
  const FabricResult res2 = fr.route(/*tracks=*/6, o);
  EXPECT_EQ(res.digest, res2.digest);
}

// A fabric deadline is one end time for the whole search, not a per-part
// slice with a floor: a 1 ms deadline stops well before the unlimited run
// does. The scenario's unlimited search routes 10 tracks in 6 iterations
// and takes about 50 ms on a 4-thread host, so the bound keeps a margin of
// tens of milliseconds under a loaded parallel test run; a ratio keeps the
// test meaningful under the sanitizers' slowdowns.
TEST(Fabric, DeadlineBoundsTheWholeSearch) {
  using Clock = std::chrono::steady_clock;
  const Scenario sc = make_scenario(304, /*rows=*/6, /*slots=*/20,
                                    /*nets=*/90);
  const FabricRouter fr(sc.dev, sc.nl, sc.p, staggered_factory(6));
  const auto ms_of = [&fr](const FabricOptions& o, FabricResult& res) {
    const auto t0 = Clock::now();
    res = fr.route(/*tracks=*/10, o);
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };
  FabricResult unlimited, bounded;
  const double unlimited_ms = ms_of(FabricOptions{}, unlimited);
  EXPECT_TRUE(unlimited.success) << unlimited.note;
  FabricOptions o;
  o.budget = harness::Budget::with_deadline(std::chrono::milliseconds(1));
  const double bounded_ms = ms_of(o, bounded);
  EXPECT_FALSE(bounded.success);
  EXPECT_NE(bounded.note.find("budget"), std::string::npos) << bounded.note;
  EXPECT_LT(bounded_ms, 0.5 * unlimited_ms)
      << "unlimited: " << unlimited_ms << " ms, " << unlimited.iterations
      << " iterations; 1 ms deadline: " << bounded_ms << " ms, "
      << bounded.iterations << " iterations";
}

TEST(Fabric, OverDensePartIsInfeasibleUnderAOneTickBudget) {
  // MinWidthSearchStartsAtTheHallBound's fixture at one track: three
  // trunks cross column 3 and row 0 reaches two channels, so one channel
  // gets a part of density 2. With one tick per channel the DP stops on
  // its budget (kBudgetExhausted); the density check proves the part
  // infeasible without spending a tick, and a proof wins over a budget
  // stop.
  DeviceSpec dev;
  dev.rows = 2;
  dev.slots_per_row = 4;
  dev.cell_width = 2;
  const Netlist nl(8, {CellNet{{0, 1}, "A"}, CellNet{{0, 2}, "B"},
                       CellNet{{1, 3}, "C"}});
  const Placement p = sequential_placement(nl, dev.rows, dev.slots_per_row);
  const FabricRouter fr(dev, nl, p, [](int tracks, Column width) {
    return SegmentedChannel::unsegmented(tracks, width);
  });
  FabricOptions o;
  o.max_iterations = 1;
  o.budget = harness::Budget::with_ticks(dev.num_channels());  // 1 tick each
  const FabricResult res = fr.route(/*tracks=*/1, o);
  EXPECT_FALSE(res.success);
  EXPECT_EQ(res.note.find("budget"), std::string::npos) << res.note;
  ASSERT_EQ(res.iteration_times.size(), 1u);
  EXPECT_EQ(res.iteration_times[0].over_dense, 1);
  int over_dense = 0;
  for (const auto& rep : res.channels) {
    EXPECT_NE(rep.failure, alg::FailureKind::kBudgetExhausted);
    if (rep.density > 1) {
      ++over_dense;
      EXPECT_FALSE(rep.routed);
      EXPECT_EQ(rep.failure, alg::FailureKind::kInfeasible);
    }
  }
  EXPECT_EQ(over_dense, 1);
}

// Seeded scenarios of MinWidthSearchSkipsOnlyInfeasibleWidths whose
// negotiation overfills channels on the way: routed at their minimum width
// and at the two widths below it, where many parts are over-dense.
struct PinnedRoute {
  std::uint64_t seed;
  int tracks;
  bool success;
  int iterations;
  std::uint64_t digest;
};

Scenario pinned_scenario(std::uint64_t seed) {
  const bool tall = seed % 3 == 0;
  return make_scenario(seed, tall ? 5 : 3, tall ? 10 : 8, tall ? 24 : 14);
}

TEST(Fabric, OverDensePartsKeepEveryOutcome) {
  // Recorded before over-dense parts skipped the DP: each digest covers
  // the assignment, every routing and every channel's failure kind.
  const PinnedRoute pinned[] = {
      {4, 3, true, 4, 0xf996c6fc91478987ull},
      {4, 2, false, 6, 0x5d6a61b87df3dd20ull},
      {4, 1, false, 6, 0x597a5cc9adf4b842ull},
      {15, 4, true, 4, 0x6ef68254ef419d61ull},
      {15, 3, false, 6, 0x40a074a2c237e267ull},
      {15, 2, false, 6, 0xf32a0f4b78bd19c3ull},
      {24, 4, true, 5, 0x6bbdd95df3346f23ull},
      {24, 3, false, 6, 0xe11516c629c574e0ull},
      {24, 2, false, 6, 0xf9840bd2fcba9b25ull},
      {29, 3, true, 3, 0x5a69e97ba18a7341ull},
      {29, 2, false, 6, 0xa33dd1b79f2de221ull},
      {29, 1, false, 6, 0xb644842682e4eac2ull},
  };
  FabricOptions o;
  o.max_iterations = 6;
  int over_dense = 0;
  for (const PinnedRoute& pin : pinned) {
    const Scenario sc = pinned_scenario(pin.seed);
    const FabricRouter fr(sc.dev, sc.nl, sc.p, staggered_factory(5));
    if (pin.success) {
      EXPECT_EQ(fr.min_fabric_tracks(16, o), pin.tracks) << "seed " << pin.seed;
    }
    const FabricResult r = fr.route(pin.tracks, o);
    EXPECT_EQ(r.success, pin.success)
        << "seed " << pin.seed << " tracks " << pin.tracks;
    EXPECT_EQ(r.iterations, pin.iterations)
        << "seed " << pin.seed << " tracks " << pin.tracks;
    EXPECT_EQ(r.digest, pin.digest)
        << "seed " << pin.seed << " tracks " << pin.tracks;
    for (const auto& t : r.iteration_times) over_dense += t.over_dense;
  }
  EXPECT_GT(over_dense, 0);  // the density check answered some parts
}

TEST(Fabric, OverDensePartsAreInfeasibleForTheDp) {
  // Re-derive each iteration's parts: a route capped at k iterations runs
  // the first k iterations of the uncapped one and stops with iteration
  // k's assignment. Every part over the track count must be one the
  // registry's DP proves infeasible, and the counts must match the
  // fabric's per-iteration report.
  FabricOptions o;
  o.max_iterations = 6;
  int checked = 0;
  for (const std::uint64_t seed : {4u, 29u}) {
    const Scenario sc = pinned_scenario(seed);
    const auto make = staggered_factory(5);
    const FabricRouter fr(sc.dev, sc.nl, sc.p, make);
    for (const int tracks : {2, 3}) {
      const FabricResult full = fr.route(tracks, o);
      const SegmentedChannel sub = make(tracks, sc.dev.columns());
      for (int k = 1; k <= full.iterations; ++k) {
        FabricOptions ok = o;
        ok.max_iterations = k;
        const FabricResult r = fr.route(tracks, ok);
        int parts = 0;
        int over_dense = 0;
        for (const ConnectionSet& cs : r.per_channel) {
          if (cs.empty()) continue;
          for (const auto& part : alg::split_parts(sub, cs)) {
            ConnectionSet pcs;
            for (ConnId id : part) pcs.add(cs[id].left, cs[id].right);
            if (pcs.density() <= tracks) {
              ++parts;
              continue;
            }
            ++over_dense;
            RouteRequest req;
            req.channel = &sub;
            req.connections = &pcs;
            EXPECT_EQ(alg::route("dp", req).failure,
                      alg::FailureKind::kInfeasible)
                << "seed " << seed << " tracks " << tracks
                << " iteration " << k;
          }
        }
        const auto& t = full.iteration_times[static_cast<std::size_t>(k - 1)];
        EXPECT_EQ(over_dense, t.over_dense)
            << "seed " << seed << " tracks " << tracks << " iteration " << k;
        EXPECT_EQ(parts, t.parts)
            << "seed " << seed << " tracks " << tracks << " iteration " << k;
        checked += over_dense;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(Fabric, ShardedCacheStatsMatchUnshardedOnReplay) {
  // The same fabric routed twice warms the memo cache; the merged stats
  // of a 16-way sharded cache must equal the single-shard totals when the
  // workload fits in capacity (the global-equivalent bound).
  const Scenario sc = make_scenario(13);
  const FabricRouter fr(sc.dev, sc.nl, sc.p, staggered_factory(6));

  auto stats_after_replay = [&](int shards) {
    FabricOptions o;
    o.max_iterations = 8;
    o.threads = 1;  // serial: hit/miss counters are deterministic
    o.cache_shards = shards;
    o.cache_capacity = 4096;
    // route() builds a fresh engine per call, so replay the workload
    // within one call's negotiation loop and compare its cache snapshot.
    // Tracks are kept scarce so the loop iterates and re-routes channels
    // whose assignment did not change — the replayed (cache-hitting) part.
    return fr.route(/*tracks=*/4, o).cache;
  };
  const engine::CacheStats one = stats_after_replay(1);
  const engine::CacheStats sharded = stats_after_replay(16);
  EXPECT_GT(one.hits + one.misses, 0u);
  EXPECT_EQ(one.hits, sharded.hits);
  EXPECT_EQ(one.misses, sharded.misses);
  EXPECT_EQ(one.size, sharded.size);
  EXPECT_EQ(one.evictions, 0u);
  EXPECT_EQ(sharded.evictions, 0u);
}

TEST(Fabric, AutoThreadsMatchesExplicit) {
  // threads = 0 resolves to util::hardware_threads(); the result must be
  // bit-identical to any explicit count (the library-wide contract).
  const Scenario sc = make_scenario(31);
  const FabricRouter fr(sc.dev, sc.nl, sc.p, staggered_factory(6));
  FabricOptions serial;
  serial.max_iterations = 6;
  serial.threads = 1;
  FabricOptions autod = serial;
  autod.threads = 0;
  EXPECT_EQ(fr.route(6, serial).digest, fr.route(6, autod).digest);
}

TEST(Fabric, MinWidthSearchSkipsOnlyInfeasibleWidths) {
  // The search starts at its Hall bound, not at width 1: it must still
  // find what a scan from width 1 finds, and the width just below its
  // first probe must fail.
  int skipped = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const bool tall = seed % 3 == 0;
    const Scenario sc = make_scenario(seed, tall ? 5 : 3, tall ? 10 : 8,
                                      tall ? 24 : 14);
    std::vector<int> probed;  // widths the factory was asked for, in order
    const auto base = staggered_factory(5);
    const FabricRouter fr(sc.dev, sc.nl, sc.p,
                          [&probed, base](int tracks, Column width) {
                            probed.push_back(tracks);
                            return base(tracks, width);
                          });
    FabricOptions o;
    o.max_iterations = 6;
    const auto found = fr.min_fabric_tracks(16, o);
    ASSERT_FALSE(probed.empty()) << "seed " << seed;
    const int first = probed.front();

    std::optional<int> reference;
    for (int t = 1; t <= 16 && !reference; ++t) {
      if (fr.route(t, o).success) reference = t;
    }
    EXPECT_EQ(found, reference) << "seed " << seed;
    if (found) {
      EXPECT_LE(first, *found) << "seed " << seed;
    }
    if (first > 1) {
      EXPECT_FALSE(fr.route(first - 1, o).success) << "seed " << seed;
      ++skipped;
    }
  }
  EXPECT_GT(skipped, 0);  // the bound skipped widths somewhere
}

TEST(Fabric, MinWidthSearchStartsAtTheHallBound) {
  // Three nets in row 0 of a two-row device all cross column 3. Row 0
  // reaches channels 0 and 1 only, so the three trunks need
  // ceil(3 / 2) = 2 tracks. Counted against all three channels, or
  // averaged over the columns as a wire-capacity bound does (13 columns
  // of trunk over 3 channels x 8 columns), they would need only 1.
  DeviceSpec dev;
  dev.rows = 2;
  dev.slots_per_row = 4;
  dev.cell_width = 2;  // pins at columns 1, 3, 5, 7; width 8
  const Netlist nl(8, {CellNet{{0, 1}, "A"}, CellNet{{0, 2}, "B"},
                       CellNet{{1, 3}, "C"}});
  const Placement p = sequential_placement(nl, dev.rows, dev.slots_per_row);
  std::vector<int> probed;
  const FabricRouter fr(dev, nl, p, [&probed](int tracks, Column width) {
    probed.push_back(tracks);
    return SegmentedChannel::unsegmented(tracks, width);
  });
  EXPECT_FALSE(fr.route(1).success);
  probed.clear();
  EXPECT_EQ(fr.min_fabric_tracks(8), 2);
  EXPECT_EQ(probed, std::vector<int>{2});  // one probe, at the bound
}

TEST(Fabric, RejectsMalformedInputs) {
  const Scenario sc = make_scenario(1);
  const FabricRouter fr(sc.dev, sc.nl, sc.p, staggered_factory(6));
  EXPECT_FALSE(fr.route(0).success);

  // Each malformed placement is rejected by route() with its note and by
  // min_fabric_tracks() with nullopt, before any pin is read.
  const auto expect_rejected = [&](const Placement& bad_p, const char* what) {
    const FabricRouter bad(sc.dev, sc.nl, bad_p, staggered_factory(6));
    const FabricResult res = bad.route(4);
    EXPECT_FALSE(res.success) << what;
    EXPECT_NE(res.note.find("placement"), std::string::npos) << what;
    EXPECT_EQ(bad.min_fabric_tracks(16), std::nullopt) << what;
  };
  Placement wrong = sc.p;
  wrong.rows = sc.dev.rows + 1;
  expect_rejected(wrong, "grid rows");

  // A fresh vector: a shrunk one keeps its capacity, and ASan would not
  // flag a read past its end.
  Placement short_pos = sc.p;
  short_pos.pos = std::vector<std::pair<int, int>>(sc.p.pos.begin(),
                                                   sc.p.pos.end() - 1);
  expect_rejected(short_pos, "short pos");

  Placement bad_row = sc.p;
  bad_row.pos[0].first = sc.dev.rows;
  expect_rejected(bad_row, "row past the device");
  bad_row.pos[0].first = -1;
  expect_rejected(bad_row, "negative row");

  Placement bad_slot = sc.p;
  bad_slot.pos[0].second = sc.dev.slots_per_row;
  expect_rejected(bad_slot, "slot past the device");
}

}  // namespace
}  // namespace segroute::fpga
