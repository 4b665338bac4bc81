// Deterministic chaos harness: seeded fault storms driving the batch
// engine through degrade -> reroute -> recover cycles.
//
// A survivability claim is only as good as the torture test behind it.
// run_chaos() routes the workload once on the base channel, verifies
// that baseline, and keeps it as the one rollback target. It then drives
// one BatchRouter session through `cycles` storms:
//
//   degrade — a FaultPlan storm (severity ramping over 16 cycles, then
//     resetting) is sampled from a per-cycle seed, canonicalised, and
//     applied to the base channel. A total outage rolls the session back
//     to the baseline and skips the cycle.
//   reroute — the engine is rebound to the degraded substrate and routes
//     the workload batch with the "dp" router. A complete routing is
//     re-verified and mapped back to original-track coordinates as the
//     live routing; a failure triggers the partial fallback (maximal
//     verified subset, unrouted connections enumerated) and then a
//     rollback of the live routing to the baseline.
//   recover — the engine is rebound to the base channel and re-routes
//     the workload (a memo-cache hit: base entries survive degradation
//     because cache keys carry the substrate fingerprint). The result
//     must equal the baseline bit for bit (`restore_mismatches` counts
//     violations), and the degraded substrate's cache entries — and only
//     those — are invalidated (fingerprint-delta-aware).
//
// Determinism contract: the harness never reads a clock or an unseeded
// RNG; storm seeds come from one master mt19937_64, the routers run
// unlimited budgets, and route_many() partitions statically. The report
// digest (an FNV-1a over every cycle's outcome and the final live
// routing) is therefore bit-identical across thread counts — the soak
// test pins digests at 1, 2, and 8 threads against each other. Cache
// *counters* may legally vary with thread interleaving (two threads can
// both miss the same key); they are reported but excluded from the
// digest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/channel.h"
#include "core/connection.h"
#include "core/routing.h"
#include "engine/batch.h"

namespace segroute::harness {

/// The settable part of a soak. The rest is fixed (constants in
/// chaos.cpp): the "dp" router with unlimited segments, peak per-switch /
/// per-segment failure probabilities of 0.35 / 0.15 reached at the end of
/// every 16-cycle ramp, the partial fallback on every failed reroute, and
/// a 256-entry engine memo cache.
struct ChaosOptions {
  /// Master seed: everything (storm severities, fault sets) derives from
  /// it. Equal seeds => equal reports, for any thread count.
  std::uint64_t seed = 1;

  /// Degrade -> reroute -> recover cycles to run.
  int cycles = 200;

  /// Worker threads for the engine's route_many (<= 0: hardware).
  int threads = 1;

  /// Interleave this many seeded ChannelEdits (add/remove/move through
  /// OnlineRouter::apply) into every cycle, run against the base channel
  /// between the storm and the recover check. Each cycle the edit
  /// session's snapshot is diffed bit-for-bit against
  /// alg::from_scratch() (edit_mismatches counts violations) and the
  /// session routing is folded into the digest. 0 (the default)
  /// disables the edit stream entirely and reproduces the pre-edit
  /// digests exactly.
  int edits_per_cycle = 0;
};

/// What one cycle did (everything deterministic; digested).
struct ChaosCycle {
  std::uint64_t storm_seed = 0;
  std::uint64_t fingerprint = 0;  // degraded substrate (base fp on outage)
  int faults = 0;                 // canonical faults applied
  int switches_fused = 0;
  int tracks_lost = 0;
  bool outage = false;       // storm removed every track
  bool rerouted = false;     // complete verified routing on the substrate
  bool partial = false;      // partial fallback produced a verified subset
  bool rolled_back = false;  // live routing rolled back to the baseline
  int routed = 0;            // connections routed in the degrade phase
  int edits = 0;             // edits applied this cycle (edits_per_cycle > 0)
  // ... of which the canonical greedy placed every connection
  // (RepairOutcome::Path::kRepair)
  int edit_repairs = 0;
};

struct ChaosReport {
  bool ok = false;  // baseline routed, no verify failures, no mismatches
  int cycles = 0;
  int storms = 0;             // cycles with a non-empty canonical fault set
  std::uint64_t faults_applied = 0;
  int reroutes = 0;
  int partials = 0;
  int rollbacks = 0;
  int outages = 0;
  int restore_mismatches = 0;  // recover phase disagreed with baseline
  int verify_failures = 0;     // any phase produced an unverifiable routing

  // Edit-stream summary (all zero when edits_per_cycle == 0).
  int edits = 0;             // ChannelEdits applied across all cycles
  // ... where the canonical greedy placed every connection
  // (RepairOutcome::Path::kRepair)
  int edit_repairs = 0;
  int edit_dp_fallbacks = 0; // ... that needed the full-DP fallback
  int edits_rejected = 0;    // ... rejected (infeasible edit; state kept)
  int edit_mismatches = 0;   // session snapshot != from_scratch reference
  std::uint64_t digest = 0;    // FNV-1a over cycle outcomes + live routing
  engine::CacheStats cache;    // counters only; excluded from the digest
  std::vector<ChaosCycle> history;  // one record per cycle
  std::string note;
};

/// Runs the chaos schedule against (ch, cs). The workload batch is the
/// full set plus its 2/3 and 1/3 prefixes (distinct memo entries per
/// substrate). Requires a routable baseline; an unroutable one fails
/// fast with ok = false.
ChaosReport run_chaos(const SegmentedChannel& ch, const ConnectionSet& cs,
                      const ChaosOptions& opts = {});

}  // namespace segroute::harness
