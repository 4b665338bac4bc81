#include "alg/dp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <compare>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "alg/exhaustive.h"
#include "core/routing.h"
#include "core/weights.h"
#include "gen/fixtures.h"
#include "gen/segmentation.h"
#include "gen/suite.h"
#include "gen/workload.h"
#include "obs/instrument.h"
#include "obs/metrics.h"

namespace segroute::alg {
namespace {

std::uint64_t factorial(int n) {
  std::uint64_t f = 1;
  for (int i = 2; i <= n; ++i) f *= static_cast<std::uint64_t>(i);
  return f;
}

std::uint64_t ipow(std::uint64_t b, int e) {
  std::uint64_t r = 1;
  while (e-- > 0) r *= b;
  return r;
}

std::uint64_t choose(int n, int k) {
  std::uint64_t r = 1;
  for (int i = 1; i <= k; ++i) {
    r = r * static_cast<std::uint64_t>(n - k + i) / static_cast<std::uint64_t>(i);
  }
  return r;
}

// Options that make dp_route build the whole assignment graph: unit
// weights put it on the level sweep, which keeps every level (Problems 1
// and 2 alone search depth-first and visit only the states they need).
// The weight only picks parents, so the graph is the same one.
DpOptions full_graph() {
  DpOptions o;
  o.weight = weights::unit();
  return o;
}

// Every level of `r`'s assignment graph holds at most `bound` frontiers.
void expect_levels_within(const RouteResult& r, std::uint64_t bound,
                          const std::string& where) {
  for (std::size_t lvl = 0; lvl < r.stats.nodes_per_level.size(); ++lvl) {
    EXPECT_LE(r.stats.nodes_per_level[lvl], bound)
        << where << " level " << lvl;
  }
}

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

TEST(Dp, RoutesFig3) {
  const auto ch = gen::fixtures::fig3_channel();
  const auto cs = gen::fixtures::fig3_connections();
  const auto r = dp_route_unlimited(ch, cs);
  ASSERT_TRUE(r.success) << r.note;
  EXPECT_TRUE(validate(ch, cs, r.routing));
}

TEST(Dp, FeasibilityMatchesExhaustiveOnRandomInstances) {
  std::mt19937_64 rng(61);
  int yes = 0, no = 0;
  for (int iter = 0; iter < 120; ++iter) {
    const auto ch = random_channel(3, 14, 3, rng);
    const auto cs = gen::geometric_workload(
        2 + static_cast<int>(rng() % 6), 14, 4.0, rng);
    const auto d = dp_route_unlimited(ch, cs);
    const auto e = exhaustive_route(ch, cs);
    ASSERT_EQ(d.success, e.success) << "iter " << iter;
    if (d.success) {
      EXPECT_TRUE(validate(ch, cs, d.routing)) << "iter " << iter;
      ++yes;
    } else {
      ++no;
    }
  }
  EXPECT_GT(yes, 0);
  EXPECT_GT(no, 0);
}

TEST(Dp, KSegmentFeasibilityMatchesExhaustive) {
  std::mt19937_64 rng(62);
  for (int iter = 0; iter < 80; ++iter) {
    const auto ch = random_channel(3, 14, 4, rng);
    const auto cs = gen::geometric_workload(
        2 + static_cast<int>(rng() % 5), 14, 4.0, rng);
    const int k = 1 + static_cast<int>(rng() % 3);
    ExhaustiveOptions eo;
    eo.max_segments = k;
    const auto d = dp_route_ksegment(ch, cs, k);
    const auto e = exhaustive_route(ch, cs, eo);
    ASSERT_EQ(d.success, e.success) << "iter " << iter << " k=" << k;
    if (d.success) {
      EXPECT_TRUE(validate(ch, cs, d.routing, k)) << "iter " << iter;
    }
  }
}

TEST(Dp, KSegmentSuccessIsMonotoneInK) {
  std::mt19937_64 rng(63);
  for (int iter = 0; iter < 40; ++iter) {
    const auto ch = random_channel(3, 16, 4, rng);
    const auto cs = gen::geometric_workload(
        2 + static_cast<int>(rng() % 6), 16, 4.0, rng);
    bool prev = false;
    for (int k = 1; k <= 5; ++k) {
      const bool ok = dp_route_ksegment(ch, cs, k).success;
      EXPECT_TRUE(!prev || ok) << "success lost when K grew, iter " << iter;
      prev = ok;
    }
    EXPECT_EQ(prev, dp_route_unlimited(ch, cs).success) << "iter " << iter;
  }
}

TEST(Dp, OptimalWeightMatchesExhaustiveBranchAndBound) {
  std::mt19937_64 rng(64);
  const auto w = weights::occupied_length();
  for (int iter = 0; iter < 60; ++iter) {
    const auto ch = random_channel(3, 12, 3, rng);
    const auto cs = gen::geometric_workload(
        2 + static_cast<int>(rng() % 4), 12, 3.5, rng);
    ExhaustiveOptions eo;
    eo.weight = w;
    const auto d = dp_route_optimal(ch, cs, w);
    const auto e = exhaustive_route(ch, cs, eo);
    ASSERT_EQ(d.success, e.success) << "iter " << iter;
    if (d.success) {
      EXPECT_NEAR(d.weight, e.weight, 1e-9) << "iter " << iter;
      EXPECT_NEAR(total_weight(ch, cs, d.routing, w), d.weight, 1e-9);
    }
  }
}

TEST(Dp, CanonicalizationDoesNotChangeTheAnswer) {
  std::mt19937_64 rng(65);
  for (int iter = 0; iter < 60; ++iter) {
    // Channels with repeated track types so canonicalization has bite.
    const auto ch = gen::staggered_segmentation(4, 16, 4);
    const auto cs = gen::geometric_workload(
        3 + static_cast<int>(rng() % 6), 16, 4.0, rng);
    DpOptions with, without;
    with.canonicalize_types = true;
    without.canonicalize_types = false;
    const auto a = dp_route(ch, cs, with);
    const auto b = dp_route(ch, cs, without);
    EXPECT_EQ(a.success, b.success) << "iter " << iter;
    // Merged states can never outnumber raw states.
    DpOptions with_full = full_graph(), without_full = full_graph();
    without_full.canonicalize_types = false;
    EXPECT_LE(dp_route(ch, cs, with_full).stats.max_level_nodes,
              dp_route(ch, cs, without_full).stats.max_level_nodes)
        << "iter " << iter;
  }
}

TEST(Dp, Theorem5FrontierBoundHolds) {
  // Unlimited segment routing: at most 2 * T! distinct frontiers/level.
  std::mt19937_64 rng(66);
  for (int iter = 0; iter < 25; ++iter) {
    const int T = 2 + static_cast<int>(rng() % 3);  // 2..4
    const auto ch = random_channel(T, 14, 3, rng);
    const auto cs = gen::geometric_workload(8, 14, 4.0, rng);
    DpOptions o = full_graph();
    o.canonicalize_types = false;  // the theorem counts raw frontiers
    const auto r = dp_route(ch, cs, o);
    EXPECT_LE(r.stats.max_level_nodes, 2 * factorial(T))
        << "T=" << T << " iter=" << iter;
  }
  for (const auto& inst : gen::standard_suite()) {
    const int T = inst.channel.num_tracks();
    if (T > 20) continue;  // 21! overflows uint64_t
    DpOptions o = full_graph();
    o.canonicalize_types = false;
    expect_levels_within(dp_route(inst.channel, inst.connections, o),
                         2 * factorial(T), inst.name);
  }
}

TEST(Dp, Theorem6FrontierBoundHolds) {
  // K-segment routing: at most (K+1)^T distinct frontiers per level.
  std::mt19937_64 rng(67);
  for (int iter = 0; iter < 25; ++iter) {
    const int T = 2 + static_cast<int>(rng() % 3);
    const int K = 1 + static_cast<int>(rng() % 3);
    const auto ch = random_channel(T, 14, 4, rng);
    const auto cs = gen::geometric_workload(8, 14, 4.0, rng);
    DpOptions o = full_graph();
    o.canonicalize_types = false;
    o.max_segments = K;
    const auto r = dp_route(ch, cs, o);
    EXPECT_LE(r.stats.max_level_nodes, ipow(static_cast<std::uint64_t>(K + 1), T))
        << "T=" << T << " K=" << K << " iter=" << iter;
  }
  for (const auto& inst : gen::standard_suite()) {
    const int T = inst.channel.num_tracks();
    if (T > 40) continue;  // 3^41 overflows uint64_t
    for (int K : {1, 2}) {
      DpOptions o = full_graph();
      o.canonicalize_types = false;
      o.max_segments = K;
      expect_levels_within(dp_route(inst.channel, inst.connections, o),
                           ipow(static_cast<std::uint64_t>(K + 1), T),
                           inst.name + " K=" + std::to_string(K));
    }
  }
}

TEST(Dp, Theorem7CanonicalFrontierBoundHolds) {
  // Two track types (alternating cut grids every 4 and every 7, as in
  // bench_frontier_counts). With type canonicalization a K-segment
  // frontier is a multiset of per-track states in 0..K for each type, so
  // a level holds at most C(T1+K, K) * C(T2+K, K) distinct frontiers.
  std::mt19937_64 rng(70);
  for (int T = 4; T <= 8; ++T) {
    std::vector<Track> tracks;
    for (int j = 0; j < T; ++j) {
      tracks.push_back(j % 2 == 0 ? Track(28, {4, 8, 12, 16, 20, 24})
                                  : Track(28, {7, 14, 21}));
    }
    const SegmentedChannel ch(std::move(tracks));
    const int t1 = (T + 1) / 2, t2 = T / 2;
    for (int K = 1; K <= 3; ++K) {
      const std::uint64_t bound = choose(t1 + K, K) * choose(t2 + K, K);
      for (int trial = 0; trial < 10; ++trial) {
        const auto cs = gen::geometric_workload(14, 28, 5.0, rng);
        DpOptions o = full_graph();  // default: canonicalize_types
        o.max_segments = K;
        expect_levels_within(dp_route(ch, cs, o), bound,
                             "T=" + std::to_string(T) + " K=" +
                                 std::to_string(K) + " trial=" +
                                 std::to_string(trial));
      }
    }
  }
}

TEST(Dp, IdenticalTracksCollapseToLinearStates) {
  // With full canonicalization and identical tracks, the frontier is a
  // sorted multiset: levels stay tiny even for many tracks.
  const auto ch = SegmentedChannel::identical(8, 24, {6, 12, 18});
  std::mt19937_64 rng(68);
  const auto cs = gen::geometric_workload(16, 24, 4.0, rng);
  const auto r = dp_route(ch, cs, full_graph());
  // Theorem 7 with one type: O(T^K)-ish; assert a generous concrete cap.
  EXPECT_LE(r.stats.max_level_nodes, 512u);
}

TEST(Dp, InfeasibleInstanceReportsEmptyLevel) {
  const auto ch = SegmentedChannel::identical(1, 9, {4});
  ConnectionSet cs;
  cs.add(1, 2);
  cs.add(3, 4);  // same segment
  const auto r = dp_route_unlimited(ch, cs);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.note.find("empty"), std::string::npos);
  EXPECT_EQ(r.stats.nodes_per_level.back(), 0u);
}

TEST(Dp, EmptyConnectionSetSucceeds) {
  const auto ch = SegmentedChannel::identical(2, 5, {});
  const auto r = dp_route_unlimited(ch, ConnectionSet{});
  EXPECT_TRUE(r.success);
}

TEST(Dp, ConnectionsBeyondWidthFailGracefully) {
  const auto ch = SegmentedChannel::identical(2, 5, {});
  ConnectionSet cs;
  cs.add(1, 9);
  EXPECT_FALSE(dp_route_unlimited(ch, cs).success);
}

TEST(Dp, NodeLimitAbortsCleanly) {
  std::mt19937_64 rng(69);
  const auto ch = random_channel(5, 30, 6, rng);
  const auto cs = gen::geometric_workload(20, 30, 6.0, rng);
  DpOptions o;
  o.canonicalize_types = false;
  o.max_total_nodes = 4;  // absurdly small
  const auto r = dp_route(ch, cs, o);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, FailureKind::kBudgetExhausted);
  EXPECT_NE(r.note.find("node limit"), std::string::npos);
}

TEST(Dp, WeightsRespectKSegmentCap) {
  // segments_capped(K) as a weight forbids >K-segment assignments, so the
  // result must equal plain K-segment routing (Problem 3 subsumes
  // Problem 2).
  std::mt19937_64 rng(70);
  for (int iter = 0; iter < 40; ++iter) {
    const auto ch = random_channel(3, 14, 4, rng);
    const auto cs = gen::geometric_workload(
        2 + static_cast<int>(rng() % 5), 14, 4.0, rng);
    const auto via_weight =
        dp_route_optimal(ch, cs, weights::segments_capped(2));
    const auto via_k = dp_route_ksegment(ch, cs, 2);
    EXPECT_EQ(via_weight.success, via_k.success) << "iter " << iter;
    if (via_weight.success) {
      EXPECT_TRUE(validate(ch, cs, via_weight.routing, 2)) << "iter " << iter;
    }
  }
}

TEST(Dp, StatsLevelsCountConnectionsPlusRoot) {
  const auto ch = gen::fixtures::fig3_channel();
  const auto cs = gen::fixtures::fig3_connections();
  const auto r = dp_route_unlimited(ch, cs);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.stats.nodes_per_level.size(),
            static_cast<std::size_t>(cs.size()) + 1);
  EXPECT_EQ(r.stats.nodes_per_level.front(), 1u);
  // All frontiers collapse at the final level.
  EXPECT_EQ(r.stats.nodes_per_level.back(), 1u);
}

// A WeightFn may itself call dp_route. The outer call holds the thread's
// workspace, so the nested call must run on its own: both results equal
// their plain, un-nested counterparts. The inner instance is the larger
// one, so sharing a workspace would regrow the arena under the outer call.
TEST(Dp, NestedCallFromAWeightFnMatchesPlainCalls) {
  const auto outer_ch = gen::staggered_segmentation(4, 16, 4);
  std::mt19937_64 outer_rng(91);
  const auto outer_cs = gen::routable_workload(outer_ch, 6, 4.0, outer_rng);
  const auto inner_ch = gen::staggered_segmentation(6, 32, 8);
  std::mt19937_64 inner_rng(92);
  const auto inner_cs = gen::routable_workload(inner_ch, 12, 5.0, inner_rng);

  const WeightFn base = weights::occupied_length();
  DpOptions inner_opts;
  inner_opts.weight = base;
  const RouteResult inner_plain = dp_route(inner_ch, inner_cs, inner_opts);
  ASSERT_TRUE(inner_plain.success);

  int nested_calls = 0;
  DpOptions outer_opts;
  outer_opts.weight = [&](const SegmentedChannel& ch, const Connection& c,
                          TrackId t) {
    const RouteResult inner = dp_route(inner_ch, inner_cs, inner_opts);
    ++nested_calls;
    EXPECT_EQ(inner.success, inner_plain.success);
    EXPECT_EQ(inner.weight, inner_plain.weight);
    EXPECT_TRUE(inner.routing == inner_plain.routing);
    EXPECT_EQ(inner.stats.total_nodes, inner_plain.stats.total_nodes);
    EXPECT_EQ(inner.stats.nodes_per_level, inner_plain.stats.nodes_per_level);
    return base(ch, c, t);
  };
  const RouteResult outer = dp_route(outer_ch, outer_cs, outer_opts);
  ASSERT_GT(nested_calls, 0);

  DpOptions plain_opts;
  plain_opts.weight = base;
  const RouteResult outer_plain = dp_route(outer_ch, outer_cs, plain_opts);
  ASSERT_TRUE(outer_plain.success);
  EXPECT_EQ(outer.success, outer_plain.success);
  EXPECT_EQ(outer.weight, outer_plain.weight);
  EXPECT_TRUE(outer.routing == outer_plain.routing);
  EXPECT_EQ(outer.stats.total_nodes, outer_plain.stats.total_nodes);
  EXPECT_EQ(outer.stats.nodes_per_level, outer_plain.stats.nodes_per_level);
}

// Independent breadth-first search over normalized frontiers, the paper's
// Section IV-B DP written plainly: a frontier is a vector of per-track
// next-free columns, normalized to at least the next connection's left
// end and sorted within each class of identically segmented tracks (or
// per track, without canonicalization). Each level maps its distinct
// frontiers to their least path weight (0 without a weight) and to the
// lexicographically smallest class sequence reaching them. Returns the
// level sizes, the least final weight, and the routing that replays the
// smallest complete class sequence.
struct BfsProblem {
  const WeightFn* weight = nullptr;  // Problem 3
  int max_segments = 0;              // Problem 2 when > 0
  bool canonicalize = true;
};

struct BfsLevels {
  std::vector<std::size_t> sizes;
  double weight = 0.0;
  bool feasible = false;
  // Classes are numbered in first-appearance order of their tracks;
  // each connection, by left end, takes the lowest-numbered free track
  // of its class.
  Routing first_routing;
};

BfsLevels frontier_bfs(const SegmentedChannel& ch, const ConnectionSet& cs,
                       const BfsProblem& pb = {}) {
  // Positions grouped by class: pos_track[p] is the track at position p,
  // [class_lo[p], class_hi[p]) the class range that p belongs to, and
  // class_of[p] that class's number.
  const auto T = static_cast<std::size_t>(ch.num_tracks());
  std::vector<TrackId> pos_track;
  std::vector<std::size_t> class_lo(T), class_hi(T);
  std::vector<int> class_of(T);
  std::vector<char> placed(T, 0);
  int classes = 0;
  for (std::size_t t = 0; t < T; ++t) {
    if (placed[t]) continue;
    const std::size_t lo = pos_track.size();
    for (std::size_t u = t; u < T; ++u) {
      if (!placed[u] && (u == t || (pb.canonicalize &&
                                    ch.track(static_cast<TrackId>(u)) ==
                                        ch.track(static_cast<TrackId>(t))))) {
        placed[u] = 1;
        pos_track.push_back(static_cast<TrackId>(u));
      }
    }
    for (std::size_t p = lo; p < pos_track.size(); ++p) {
      class_lo[p] = lo;
      class_hi[p] = pos_track.size();
      class_of[p] = classes;
    }
    ++classes;
  }
  std::vector<ConnId> order(static_cast<std::size_t>(cs.size()));
  for (ConnId i = 0; i < cs.size(); ++i) order[static_cast<std::size_t>(i)] = i;
  std::stable_sort(order.begin(), order.end(), [&](ConnId a, ConnId b) {
    return cs[a].left < cs[b].left;
  });

  using Frontier = std::vector<Column>;
  struct Paths {
    double weight = 0.0;
    std::vector<int> first;  // smallest class sequence reaching the frontier
  };
  const auto left_of = [&](std::size_t step) {
    return step < order.size() ? cs[order[step]].left : ch.width() + 1;
  };
  std::map<Frontier, Paths> level{{Frontier(T, left_of(0)), Paths{}}};
  BfsLevels out;
  out.sizes.push_back(1);
  for (std::size_t step = 0; step < order.size() && !level.empty(); ++step) {
    const Connection& c = cs[order[step]];
    const Column next_left = left_of(step + 1);
    std::map<Frontier, Paths> next;
    for (const auto& [x, from] : level) {
      for (std::size_t p = 0; p < T; ++p) {
        if (x[p] > c.left) continue;  // track busy at the left end
        const Track& tr = ch.track(pos_track[p]);
        if (pb.max_segments > 0 &&
            tr.segments_spanned(c.left, c.right) > pb.max_segments) {
          continue;
        }
        const double cost =
            pb.weight ? from.weight + (*pb.weight)(ch, c, pos_track[p]) : 0.0;
        if (std::isinf(cost)) continue;
        Frontier y = x;
        y[p] = tr.segment(tr.segment_at(c.right)).right + 1;
        for (Column& v : y) v = std::max(v, next_left);
        std::sort(y.begin() + static_cast<std::ptrdiff_t>(class_lo[p]),
                  y.begin() + static_cast<std::ptrdiff_t>(class_hi[p]));
        const auto [it, fresh] = next.try_emplace(std::move(y));
        Paths& to = it->second;
        // Is from.first + [class_of[p]] smaller than to.first? Both have
        // step + 1 entries.
        const auto smaller = [&] {
          const auto cmp = std::lexicographical_compare_three_way(
              from.first.begin(), from.first.end(), to.first.begin(),
              to.first.begin() + static_cast<std::ptrdiff_t>(step));
          return cmp < 0 || (cmp == 0 && class_of[p] < to.first.back());
        };
        if (fresh || smaller()) {
          to.first = from.first;
          to.first.push_back(class_of[p]);
        }
        to.weight = fresh ? cost : std::min(to.weight, cost);
      }
    }
    level = std::move(next);
    out.sizes.push_back(level.size());
  }
  out.feasible = !level.empty();
  out.weight = std::numeric_limits<double>::infinity();
  for (const auto& [x, paths] : level) {
    out.weight = std::min(out.weight, paths.weight);
  }
  if (!out.feasible) return out;

  // Replay the smallest complete class sequence against real tracks.
  const std::vector<int>& seq = level.begin()->second.first;
  std::vector<Column> next_free(T, 0);
  out.first_routing = Routing(cs.size());
  for (std::size_t step = 0; step < order.size(); ++step) {
    const Connection& c = cs[order[step]];
    for (std::size_t p = 0; p < T; ++p) {
      const auto t = static_cast<std::size_t>(pos_track[p]);
      if (class_of[p] != seq[step] || next_free[t] > c.left) continue;
      const Track& tr = ch.track(pos_track[p]);
      next_free[t] = tr.segment(tr.segment_at(c.right)).right + 1;
      out.first_routing.assign(order[step], pos_track[p]);
      break;
    }
  }
  return out;
}

// dp_route's dedup table, replayed from its level sizes: the slot array
// size in bytes at every resize, and whether probes were being batched
// (slot array >= kProbeBatchMinBytes) when it happened. Mirrors the
// sizing rule in dp.cpp: at least 4x the level being expanded at a level
// start, doubled mid-level once half full.
struct TableGrowth {
  std::size_t max_bytes = 0;
  // A mid-level resize reached the threshold.
  bool crossed_mid_level = false;
  // A mid-level resize happened in the batched regime.
  bool resized_while_batched = false;
};

TableGrowth replay_table(const SegmentedChannel& ch,
                         const std::vector<std::size_t>& nodes_per_level) {
  bits::FrontierCodec codec;
  codec.init_uniform(static_cast<std::size_t>(ch.num_tracks()),
                     static_cast<std::uint32_t>(ch.width() + 1));
  const std::size_t slot_bytes = (codec.words() + 1) * sizeof(std::uint64_t);
  TableGrowth g;
  std::size_t cap = 0;
  for (std::size_t i = 1; i < nodes_per_level.size(); ++i) {
    std::size_t c = cap != 0 ? cap : 64;
    while (c < nodes_per_level[i - 1] * 4) c <<= 1;
    cap = std::max(cap, c);
    while (cap / 2 <= nodes_per_level[i]) {
      const bool batched = cap * slot_bytes >= kProbeBatchMinBytes;
      g.resized_while_batched |= batched;
      g.crossed_mid_level |=
          !batched && 2 * cap * slot_bytes >= kProbeBatchMinBytes;
      cap *= 2;
    }
    g.max_bytes = std::max(g.max_bytes, cap * slot_bytes);
  }
  return g;
}

// `full` is dp_route(ch, cs, full_graph()); Problem 3 is routed here.
void expect_levels_match_bfs(const SegmentedChannel& ch,
                             const ConnectionSet& cs,
                             const RouteResult& full) {
  const WeightFn w = weights::occupied_length();
  const BfsLevels plain = frontier_bfs(ch, cs);
  EXPECT_EQ(full.stats.nodes_per_level, plain.sizes);
  // The depth-first search reads the same routing off the same graph.
  EXPECT_TRUE(dp_route_unlimited(ch, cs).routing == plain.first_routing);
  EXPECT_TRUE(full.routing == plain.first_routing);

  const RouteResult opt = dp_route_optimal(ch, cs, w);
  ASSERT_TRUE(opt.success) << opt.note;
  const BfsLevels bfs = frontier_bfs(ch, cs, {&w});
  EXPECT_EQ(opt.stats.nodes_per_level, bfs.sizes);
  EXPECT_EQ(opt.weight, bfs.weight);
  EXPECT_EQ(total_weight(ch, cs, opt.routing, w), opt.weight);
}

// The level sweep's dedup probes resolve immediately below
// kProbeBatchMinBytes and through the staged batch above it. Both
// regimes, on the one-word and the multi-word path, must build exactly
// the frontiers of an independent search, level by level, under unit
// weights (the whole graph, first-discoverer parents) and under Problem
// 3's min-weight updates.
TEST(Dp, CacheResidentLevelsMatchAnIndependentFrontierSearch) {
  // Repeated track types, so canonicalization merges frontiers: one
  // packed word per frontier (4 types), then two (6 types).
  for (const auto& [ch, m, seed] :
       {std::tuple{gen::staggered_segmentation(8, 96, 4), 40, 2001},
        std::tuple{gen::staggered_segmentation(12, 48, 6), 24, 5}}) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
    const auto cs = gen::routable_workload(ch, m, 7.0, rng);
    const RouteResult r = dp_route(ch, cs, full_graph());
    ASSERT_TRUE(r.success);
    EXPECT_LT(ch.num_types(), ch.num_tracks());
    EXPECT_LT(replay_table(ch, r.stats.nodes_per_level).max_bytes,
              kProbeBatchMinBytes);
    expect_levels_match_bfs(ch, cs, r);
  }
}

TEST(Dp, BatchedProbeLevelsMatchAnIndependentFrontierSearch) {
  // Two packed words per frontier: a 76k-node level grows the slot array
  // from 1.5 MB through the threshold to 6 MB mid-level.
  {
    const auto ch = gen::staggered_segmentation(12, 48, 12);
    std::mt19937_64 rng(23);
    const auto cs = gen::routable_workload(ch, 18, 7.0, rng);
    const RouteResult r = dp_route(ch, cs, full_graph());
    ASSERT_TRUE(r.success);
    const TableGrowth g = replay_table(ch, r.stats.nodes_per_level);
    EXPECT_TRUE(g.crossed_mid_level);
    EXPECT_TRUE(g.resized_while_batched);
    expect_levels_match_bfs(ch, cs, r);
  }
  // One packed word: a 74k-node level starts batched at 2 MB and grows
  // to 4 MB mid-level.
  {
    const auto ch = gen::staggered_segmentation(10, 40, 10);
    std::mt19937_64 rng(10);
    const auto cs = gen::routable_workload(ch, 16, 10.0, rng);
    const RouteResult r = dp_route(ch, cs, full_graph());
    ASSERT_TRUE(r.success);
    EXPECT_TRUE(
        replay_table(ch, r.stats.nodes_per_level).resized_while_batched);
    expect_levels_match_bfs(ch, cs, r);
  }
}

// One seeded instance for the depth-first tests: random cuts or
// staggered (repeated) types, one or two packed words per frontier, and
// workloads dense enough that a good share are infeasible.
std::pair<SegmentedChannel, ConnectionSet> seeded_instance(int seed) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
  const bool wide = seed % 10 == 0;  // 11 tracks: two packed words
  const auto T = static_cast<TrackId>(wide ? 11 : 2 + rng() % 5);
  const auto width =
      static_cast<Column>(wide ? 32 + rng() % 14 : 12 + rng() % 13);
  SegmentedChannel ch =
      seed % 2 == 0
          ? random_channel(T, width, 1 + static_cast<int>(rng() % 4), rng)
          : gen::staggered_segmentation(T, width,
                                        2 + static_cast<int>(rng() % 4));
  const int m = 3 + static_cast<int>(rng() % (wide ? 6 : 10));
  ConnectionSet cs = gen::geometric_workload(m, width, wide ? 6.0 : 4.0, rng);
  return {std::move(ch), std::move(cs)};
}

// Problems 1 and 2 search depth-first and must return exactly the level
// sweep's routing: the replay of the lexicographically smallest complete
// class sequence, read off an independent frontier search.
TEST(Dp, DepthFirstReturnsTheSweepRouting) {
  int feasible = 0, infeasible = 0, wide = 0;
  const auto check = [&](const SegmentedChannel& ch, const ConnectionSet& cs,
                         const std::string& where) {
    for (const int k : {0, 2}) {
      for (const bool canon : {true, false}) {
        DpOptions o;
        o.max_segments = k;
        o.canonicalize_types = canon;
        const RouteResult r = dp_route(ch, cs, o);
        const BfsLevels bfs = frontier_bfs(ch, cs, {nullptr, k, canon});
        const std::string at = where + " k=" + std::to_string(k) +
                               (canon ? " canonical" : " raw");
        ASSERT_EQ(r.success, bfs.feasible) << at;
        if (r.success) {
          EXPECT_TRUE(r.routing == bfs.first_routing) << at;
          ++feasible;
        } else {
          EXPECT_EQ(r.failure, FailureKind::kInfeasible) << at;
          ++infeasible;
        }
      }
    }
  };
  for (const auto& inst : gen::standard_suite()) {
    check(inst.channel, inst.connections, inst.name);
  }
  for (int seed = 0; seed < 2000; ++seed) {
    const auto [ch, cs] = seeded_instance(seed);
    bits::FrontierCodec codec;
    codec.init_uniform(static_cast<std::size_t>(ch.num_tracks()),
                       static_cast<std::uint32_t>(ch.width() + 1));
    wide += codec.words() > 1;
    check(ch, cs, "seed " + std::to_string(seed));
  }
  EXPECT_GT(feasible, 1000);
  EXPECT_GT(infeasible, 1000);
  EXPECT_GE(wide, 200);
}

// Every state the depth-first search expands is a node of the full
// graph, and none twice: it reaches no level the sweep does not, and per
// level it visits at most the graph's nodes (column density may skip dead
// ones, so an infeasible instance can stop short), so a tick budget or
// node limit the sweep fits in never stops it, and it still returns the
// sweep's routing.
TEST(Dp, DepthFirstNeverOutspendsTheSweep) {
  const auto check = [&](const SegmentedChannel& ch, const ConnectionSet& cs,
                         const std::string& where) {
    for (const int k : {0, 2}) {
      for (const bool canon : {true, false}) {
        DpOptions o;
        o.max_segments = k;
        o.canonicalize_types = canon;
        DpOptions full = full_graph();
        full.max_segments = k;
        full.canonicalize_types = canon;
        const RouteResult r = dp_route(ch, cs, o);
        const RouteResult g = dp_route(ch, cs, full);
        const std::string at = where + " k=" + std::to_string(k) +
                               (canon ? " canonical" : " raw");
        ASSERT_EQ(r.success, g.success) << at;
        const auto& dl = r.stats.nodes_per_level;
        const auto& gl = g.stats.nodes_per_level;
        ASSERT_LE(dl.size(), gl.size()) << at;
        if (r.success) {
          EXPECT_EQ(dl.size(), gl.size()) << at;
        }
        for (std::size_t i = 0; i < dl.size(); ++i) {
          EXPECT_LE(dl[i], gl[i]) << at << " level " << i;
        }
        EXPECT_LE(r.stats.total_nodes, g.stats.total_nodes) << at;

        // The sweep spends one tick per (node, class) below the last level.
        std::uint64_t expansions = 0;
        const auto m = static_cast<std::size_t>(cs.size());
        for (std::size_t i = 0; i < gl.size() && i < m; ++i) {
          expansions += gl[i];
        }
        const auto classes =
            static_cast<std::uint64_t>(canon ? ch.num_types() : ch.num_tracks());
        DpOptions tight = o;
        tight.budget = harness::Budget::with_ticks(expansions * classes);
        tight.max_total_nodes = g.stats.total_nodes;
        const RouteResult b = dp_route(ch, cs, tight);
        EXPECT_EQ(b.success, g.success) << at << ": " << b.note;
        if (g.success) {
          EXPECT_TRUE(b.routing == g.routing) << at;
        } else {
          EXPECT_EQ(b.failure, FailureKind::kInfeasible) << at;
        }
      }
    }
  };
  for (const auto& inst : gen::standard_suite()) {
    check(inst.channel, inst.connections, inst.name);
  }
  for (int seed = 0; seed < 2000; ++seed) {
    const auto [ch, cs] = seeded_instance(seed);
    check(ch, cs, "seed " + std::to_string(seed));
  }
}

// An edit session's live set: m connections at uniform left ends, 1-16
// columns long, clipped to the channel.
ConnectionSet live_set(int m, Column width, Column max_len,
                       std::mt19937_64& rng) {
  ConnectionSet cs;
  for (int i = 0; i < m; ++i) {
    const Column l = 1 + static_cast<Column>(rng() % width);
    const Column len =
        1 + static_cast<Column>(rng() % static_cast<std::uint64_t>(max_len));
    cs.add(l, std::min<Column>(width, l + len - 1));
  }
  return cs;
}

// Once a call has proven a state dead, the depth-first search skips the
// children that column density proves dead. Only dead states go, so on
// instances where that prune fires the routing and the failure kind stay
// the unit-weight sweep's; dp.pruned_states shows it fired.
TEST(Dp, DensityPruneKeepsTheRouting) {
  obs::Counter& pruned = obs::Registry::instance().counter("dp.pruned_states");
  obs::Counter& dead = obs::Registry::instance().counter("dp.dead_states");
  struct Tally {
    int feasible = 0;
    int infeasible = 0;
    std::uint64_t pruned = 0;
  };
  const auto check = [&](const SegmentedChannel& ch, const ConnectionSet& cs,
                         int k, Tally& tally, const std::string& where) {
    DpOptions o;
    o.max_segments = k;
    DpOptions full = full_graph();
    full.max_segments = k;
    const std::uint64_t p0 = pruned.value();
    const RouteResult r = dp_route(ch, cs, o);
    tally.pruned += pruned.value() - p0;
    const RouteResult g = dp_route(ch, cs, full);
    const std::string at = where + " k=" + std::to_string(k);
    ASSERT_EQ(r.success, g.success) << at << ": " << r.note;
    if (r.success) {
      EXPECT_TRUE(r.routing == g.routing) << at;
      ++tally.feasible;
    } else {
      EXPECT_EQ(r.failure, FailureKind::kInfeasible) << at << ": " << r.note;
      EXPECT_EQ(g.failure, FailureKind::kInfeasible) << at;
      ++tally.infeasible;
    }
    EXPECT_LE(r.stats.total_nodes, g.stats.total_nodes) << at;
  };

  // Staggered 8x64 live sets near capacity, as edit sessions build them,
  // at K = 0, 1 and 2.
  const auto edit_ch = gen::staggered_segmentation(8, 64, 8);
  Tally by_k[3];
  for (int seed = 0; seed < 200; ++seed) {
    for (int k = 0; k < 3; ++k) {
      std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
      const ConnectionSet cs =
          k == 1 ? live_set(28 + static_cast<int>(rng() % 9), 64, 8, rng)
                 : live_set(22 + static_cast<int>(rng() % 9), 64, 16, rng);
      check(edit_ch, cs, k, by_k[k], "edit seed " + std::to_string(seed));
    }
  }
  // Two packed words per state: 11 tracks of 6-bit fields.
  const auto wide_ch = gen::staggered_segmentation(11, 40, 6);
  Tally wide;
  for (int seed = 0; seed < 40; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(1000 + seed));
    const ConnectionSet cs =
        live_set(30 + static_cast<int>(rng() % 9), 40, 16, rng);
    check(wide_ch, cs, 0, wide, "wide seed " + std::to_string(seed));
  }
  for (const Tally& t : by_k) {
    EXPECT_GE(t.feasible, 30);
    EXPECT_GE(t.infeasible, 30);
  }
  EXPECT_GE(wide.feasible, 10);
  EXPECT_GE(wide.infeasible, 10);

  // Over-dense: a routable body, then T + 1 connections on the last
  // column. The root fails the test, so the search ends on the first
  // proven-dead state, the one that builds the thresholds: it never
  // backtracks, and every state on its one path is dead.
  Tally dense;
  {
    std::mt19937_64 rng(7);
    ConnectionSet cs = gen::routable_workload(edit_ch, 20, 7.0, rng);
    for (int i = 0; i <= 8; ++i) cs.add(64, 64);
    const std::uint64_t d0 = dead.value();
    check(edit_ch, cs, 0, dense, "over-dense");
    const std::uint64_t dense_dead = dead.value() - d0;
    EXPECT_EQ(dense.infeasible, 1);
    const RouteResult r = dp_route(edit_ch, cs);
    EXPECT_EQ(r.stats.max_level_nodes, 1u);
    EXPECT_GT(r.stats.total_nodes, 10u);  // the body routes deep first
#if SEGROUTE_OBS_ENABLED
    EXPECT_EQ(dense.pruned, 1u);  // the root
    EXPECT_EQ(dense_dead, r.stats.total_nodes);
#else
    EXPECT_EQ(dense.pruned + dense_dead, 0u);
#endif
  }
#if SEGROUTE_OBS_ENABLED
  for (const Tally& t : by_k) EXPECT_GT(t.pruned, 0u);
  EXPECT_GT(wide.pruned, 0u);
#endif
}

}  // namespace
}  // namespace segroute::alg
