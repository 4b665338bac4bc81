// Registry-driven property tests (the router contract, checked for every
// registered router at once) plus the bit-identity guard pinning the
// registry adapters to the legacy free functions.
//
// The properties:
//   - enumeration: names are unique, find_router round-trips, unknown
//     names come back kInvalidInput (never a throw);
//   - uniform pre-checks: null channel/connections, negative K, weight
//     mismatches are kInvalidInput for every router;
//   - capability envelopes are enforced: a channel outside a router's
//     accepted shape (needs_identical_tracks, needs_le2...) is rejected
//     as kInvalidInput, and inside the envelope no router ever reports
//     kInvalidInput on a well-formed request;
//   - every successful routing, from every router, on every fixture,
//     passes the independent RouteVerifier;
//   - exact routers agree on the success bit (dp is the oracle; the
//     K=1 specialists agree with each other).
#include "alg/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "alg/anneal_route.h"
#include "alg/branch_bound.h"
#include "alg/delta.h"
#include "alg/dp.h"
#include "alg/exhaustive.h"
#include "alg/greedy1.h"
#include "alg/left_edge.h"
#include "alg/lp_route.h"
#include "alg/match1.h"
#include "core/router.h"
#include "core/routing.h"
#include "core/weights.h"
#include "gen/segmentation.h"
#include "gen/suite.h"
#include "gen/workload.h"
#include "harness/verify.h"

namespace segroute::alg {
namespace {

struct Fixture {
  std::string name;
  SegmentedChannel channel;
  ConnectionSet connections;
};

/// Random fixtures spanning the capability envelopes: identical 2-segment
/// channels (every router's domain), identical many-segment channels
/// (outside greedy2track's), and staggered channels (outside left_edge's
/// and greedy2track's). Deterministic seeds; small enough that even the
/// exhaustive oracle finishes instantly.
std::vector<Fixture> fixtures() {
  std::vector<Fixture> out;
  {
    const auto ch = SegmentedChannel::identical(3, 12, {6});
    std::mt19937_64 rng(101);
    out.push_back({"identical-2seg", ch, gen::routable_workload(ch, 5, 4.0, rng)});
  }
  {
    const auto ch = SegmentedChannel::identical(4, 16, {4, 8, 12});
    std::mt19937_64 rng(102);
    out.push_back({"identical-4seg", ch, gen::routable_workload(ch, 6, 4.0, rng)});
  }
  {
    const auto ch = gen::staggered_segmentation(4, 18, 5);
    std::mt19937_64 rng(103);
    out.push_back({"staggered", ch, gen::routable_workload(ch, 6, 4.0, rng)});
  }
  {
    // Overloaded: more nets in one column than tracks — unroutable, so
    // exact routers must prove infeasibility, not misreport it.
    const auto ch = SegmentedChannel::identical(2, 10, {5});
    ConnectionSet cs;
    cs.add(2, 4);
    cs.add(2, 4);
    cs.add(3, 4);
    out.push_back({"overloaded", ch, cs});
  }
  return out;
}

/// In-envelope request for `e` on the fixture (a weight only when the
/// router demands one).
RouteRequest make_request(const RouterEntry& e, const Fixture& f,
                          const std::optional<WeightFn>& w) {
  RouteRequest rq;
  rq.channel = &f.channel;
  rq.connections = &f.connections;
  if (e.caps.requires_weight) rq.options.weight = w;
  return rq;
}

bool in_envelope(const RouterEntry& e, const SegmentedChannel& ch) {
  if (e.caps.needs_identical_tracks && !ch.identically_segmented()) {
    return false;
  }
  if (e.caps.needs_le2_segments_per_track && ch.max_segments_per_track() > 2) {
    return false;
  }
  return true;
}

TEST(Registry, EnumerationAndLookup) {
  const auto& entries = registry();
  ASSERT_GE(entries.size(), 11u);
  std::set<std::string> names;
  for (const RouterEntry& e : entries) {
    ASSERT_NE(e.name, nullptr);
    ASSERT_NE(e.route, nullptr);
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate name " << e.name;
    const RouterEntry* found = find_router(e.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found, &e);
  }
  // The routers the paper's consumers hard-code by name must exist.
  for (const char* required :
       {"dp", "greedy1", "match1", "greedy2track", "left_edge", "lp", "anneal",
        "branch_bound", "exhaustive", "online", "express", "partial"}) {
    EXPECT_NE(find_router(required), nullptr) << required;
  }
  EXPECT_EQ(find_router("no-such-router"), nullptr);
}

TEST(Registry, UnknownNameIsInvalidInputNotAThrow) {
  const auto f = fixtures().front();
  RouteRequest rq;
  rq.channel = &f.channel;
  rq.connections = &f.connections;
  const auto r = route("no-such-router", rq);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, FailureKind::kInvalidInput);
  EXPECT_NE(r.note.find("no-such-router"), std::string::npos);
  // The note names the known routers, so a typo is self-diagnosing.
  EXPECT_NE(r.note.find("known:"), std::string::npos);
  EXPECT_NE(r.note.find("dp"), std::string::npos);
}

TEST(Registry, UniformPreChecksRejectMalformedRequests) {
  const auto f = fixtures().front();
  const auto w = weights::occupied_length();
  for (const RouterEntry& e : registry()) {
    {
      RouteRequest rq;  // null channel and connections
      const auto r = route(e, rq);
      EXPECT_EQ(r.failure, FailureKind::kInvalidInput) << e.name;
    }
    {
      RouteRequest rq = make_request(e, f, w);
      rq.connections = nullptr;
      const auto r = route(e, rq);
      EXPECT_EQ(r.failure, FailureKind::kInvalidInput) << e.name;
    }
    {
      RouteRequest rq = make_request(e, f, w);
      rq.options.max_segments = -1;
      const auto r = route(e, rq);
      EXPECT_EQ(r.failure, FailureKind::kInvalidInput) << e.name;
    }
    if (!e.caps.supports_weight) {
      RouteRequest rq = make_request(e, f, w);
      rq.options.weight = w;
      const auto r = route(e, rq);
      EXPECT_EQ(r.failure, FailureKind::kInvalidInput) << e.name;
    }
    if (e.caps.requires_weight) {
      RouteRequest rq = make_request(e, f, w);
      rq.options.weight.reset();
      const auto r = route(e, rq);
      EXPECT_EQ(r.failure, FailureKind::kInvalidInput) << e.name;
    }
  }
}

// The central property: over every fixture x every router,
//   - out-of-envelope channels are kInvalidInput;
//   - in-envelope requests never are;
//   - every success passes independent verification;
//   - exact unlimited routers agree with the DP oracle, and the K=1
//     specialists agree with each other.
TEST(Registry, PropertySweepHonorsCapabilitiesAndVerifies) {
  const auto w = weights::occupied_length();
  for (const Fixture& f : fixtures()) {
    const harness::RouteVerifier v(f.channel, f.connections);
    const bool oracle =
        dp_route_unlimited(f.channel, f.connections).success;
    const bool oracle_k1 =
        dp_route_ksegment(f.channel, f.connections, 1).success;
    for (const RouterEntry& e : registry()) {
      const RouteRequest rq = make_request(e, f, w);
      const RouteResult r = route(e, rq);
      if (!in_envelope(e, f.channel)) {
        EXPECT_EQ(r.failure, FailureKind::kInvalidInput)
            << f.name << " / " << e.name;
        continue;
      }
      EXPECT_NE(r.failure, FailureKind::kInvalidInput)
          << f.name << " / " << e.name << ": " << r.note;
      EXPECT_NE(r.failure, FailureKind::kInternal)
          << f.name << " / " << e.name << ": " << r.note;
      if (r.success) {
        const auto check = v.check(r);
        EXPECT_TRUE(check) << f.name << " / " << e.name << ": "
                           << check.detail;
        // A success from anyone refutes an infeasibility claim by an
        // exact router; covered below by the oracle comparison.
        EXPECT_FALSE(e.caps.exact && !e.caps.k1_only && !oracle)
            << f.name << " / " << e.name << " routed an instance the DP "
            << "oracle proves infeasible";
      } else if (e.caps.exact && r.failure == FailureKind::kInfeasible) {
        // Exact + completed search = proof of infeasibility on the
        // router's domain: unlimited for the general routers, K=1 for
        // the specialists.
        if (e.caps.k1_only) {
          EXPECT_FALSE(oracle_k1) << f.name << " / " << e.name;
        } else {
          EXPECT_FALSE(oracle) << f.name << " / " << e.name;
        }
      }
      // Exact routers of the full problem must match the oracle's
      // success bit exactly (anytime routers could in principle stop
      // early, but these fixtures are far below their default budgets).
      if (e.caps.exact && !e.caps.k1_only) {
        EXPECT_EQ(r.success, oracle) << f.name << " / " << e.name;
      }
      if (e.caps.exact && e.caps.k1_only) {
        EXPECT_EQ(r.success, oracle_k1) << f.name << " / " << e.name;
      }
    }
  }
}

// Satellite guard: the registry path must be bit-identical to the legacy
// free functions — same success, failure kind, routing, and weight — on
// the frozen suite plus the local fixtures. Each direct call runs with
// its router's default options, so this also pins the defaults the
// registry adapters route with; any drift breaks it.
TEST(Registry, BitIdenticalToLegacyWrappers) {
  const auto w = weights::occupied_length();
  const auto same = [](const RouteResult& a, const RouteResult& b) {
    return a.success == b.success && a.failure == b.failure &&
           a.weight == b.weight && a.routing == b.routing;
  };

  std::vector<Fixture> all = fixtures();
  for (auto& inst : gen::standard_suite()) {
    all.push_back({inst.name, inst.channel, inst.connections});
  }

  for (const Fixture& f : all) {
    RouteRequest rq;
    rq.channel = &f.channel;
    rq.connections = &f.connections;

    EXPECT_TRUE(same(route("dp", rq),
                     dp_route_unlimited(f.channel, f.connections)))
        << f.name << " / dp";
    EXPECT_TRUE(same(route("greedy1", rq),
                     greedy1_route(f.channel, f.connections)))
        << f.name << " / greedy1";
    EXPECT_TRUE(same(route("match1", rq),
                     match1_route(f.channel, f.connections)))
        << f.name << " / match1";
    EXPECT_TRUE(same(route("left_edge", rq),
                     left_edge_route(f.channel, f.connections)))
        << f.name << " / left_edge";
    EXPECT_TRUE(same(route("lp", rq), lp_route(f.channel, f.connections)))
        << f.name << " / lp";
    EXPECT_TRUE(same(route("anneal", rq),
                     anneal_route(f.channel, f.connections)))
        << f.name << " / anneal";
    EXPECT_TRUE(same(route("online", rq),
                     from_scratch(f.channel, f.connections, true, 0).result))
        << f.name << " / online";

    RouteRequest k2 = rq;
    k2.options.max_segments = 2;
    EXPECT_TRUE(same(route("dp", k2),
                     dp_route_ksegment(f.channel, f.connections, 2)))
        << f.name << " / dp k2";
    EXPECT_TRUE(same(route("online", k2),
                     from_scratch(f.channel, f.connections, true, 2).result))
        << f.name << " / online k2";

    RouteRequest wd = rq;
    wd.options.weight = w;
    EXPECT_TRUE(same(route("dp", wd),
                     dp_route_optimal(f.channel, f.connections, w)))
        << f.name << " / dp weighted";
    EXPECT_TRUE(same(route("match1", wd),
                     match1_route_optimal(f.channel, f.connections, w)))
        << f.name << " / match1 weighted";
    EXPECT_TRUE(same(route("lp", wd),
                     lp_route_optimal(f.channel, f.connections, w)))
        << f.name << " / lp weighted";
    EXPECT_TRUE(same(route("branch_bound", wd),
                     branch_bound_route(f.channel, f.connections, w)))
        << f.name << " / branch_bound weighted";
  }

  // The exhaustive oracle is exponential: the small fixtures only.
  for (const Fixture& f : fixtures()) {
    RouteRequest rq;
    rq.channel = &f.channel;
    rq.connections = &f.connections;
    EXPECT_TRUE(same(route("exhaustive", rq),
                     exhaustive_route(f.channel, f.connections)))
        << f.name << " / exhaustive";
    ExhaustiveOptions eo;
    eo.weight = w;
    rq.options.weight = w;
    EXPECT_TRUE(same(route("exhaustive", rq),
                     exhaustive_route(f.channel, f.connections, eo)))
        << f.name << " / exhaustive weighted";
  }
}

// Routers keep their scratch in a per-thread workspace (core/thread_scratch.h)
// that outlives each call. Reusing it must never show in a result: one
// thread routes every fixture with each scratch-keeping router, sizes
// alternating largest/smallest so the workspace grows and shrinks between
// calls, and each result must equal the same request on a fresh thread,
// whose workspace has never been used.
TEST(Registry, ThreadScratchMatchesAFreshThread) {
  std::vector<Fixture> all = fixtures();
  for (auto& inst : gen::standard_suite()) {
    all.push_back({inst.name, inst.channel, inst.connections});
  }
  const auto size_of = [](const Fixture& f) {
    return static_cast<long>(f.channel.num_tracks()) * f.channel.width();
  };
  std::stable_sort(all.begin(), all.end(),
                   [&](const Fixture& a, const Fixture& b) {
                     return size_of(a) < size_of(b);
                   });
  std::vector<const Fixture*> order;
  for (std::size_t lo = 0, hi = all.size(); lo < hi;) {
    order.push_back(&all[--hi]);
    if (lo < hi) order.push_back(&all[lo++]);
  }

  const auto w = weights::occupied_length();
  for (const Fixture* f : order) {
    for (const char* name : {"dp", "greedy1", "left_edge", "express",
                             "partial"}) {
      RouteRequest rq;
      rq.channel = &f->channel;
      rq.connections = &f->connections;
      if (std::string(name) == "dp") rq.options.weight = w;
      const RouteResult a = route(name, rq);
      RouteResult b;
      std::thread([&] { b = route(name, rq); }).join();
      const std::string at = f->name + " / " + name;
      EXPECT_EQ(a.success, b.success) << at;
      EXPECT_EQ(a.failure, b.failure) << at;
      EXPECT_EQ(a.weight, b.weight) << at;
      EXPECT_TRUE(a.routing == b.routing) << at;
      ASSERT_EQ(a.unrouted.size(), b.unrouted.size()) << at;
      for (std::size_t u = 0; u < a.unrouted.size(); ++u) {
        EXPECT_EQ(a.unrouted[u].conn, b.unrouted[u].conn) << at;
        EXPECT_EQ(a.unrouted[u].kind, b.unrouted[u].kind) << at;
      }
    }
  }
}

TEST(Registry, CapabilityTableCoversEveryRouter) {
  const std::string table = capability_table().str();
  for (const RouterEntry& e : registry()) {
    EXPECT_NE(table.find(e.name), std::string::npos) << e.name;
  }
}

}  // namespace
}  // namespace segroute::alg
