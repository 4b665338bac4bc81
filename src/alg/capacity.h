// Channel-capacity analysis utilities: the questions an FPGA architect
// asks of a segmentation scheme ("how many tracks does this workload
// need?", "how much load does this channel take?") — the engineering
// loop behind the companion papers [10], [11] and this paper's Fig. 2.
//
// Every probe is a direct call of the registry "dp" (exact), so each
// answer is a true capacity. min_tracks and max_routable_prefix probe
// serially; routability evaluates its trials on a thread pool with a
// strict determinism contract: for a fixed master RNG state the result
// is bit-identical for every thread count, including 1. The master RNG
// emits exactly one seed per trial (in trial order) and each trial
// draws from its own seeded stream, so the sampled workloads do not
// depend on how trials are scheduled.
#pragma once

#include <functional>
#include <optional>
#include <random>

#include "alg/result.h"
#include "core/channel.h"
#include "core/connection.h"

namespace segroute::alg {

/// Builds a channel with the given number of tracks (and this library's
/// fixed width per scheme). Used by the capacity searches below.
using ChannelFactory = std::function<SegmentedChannel(int tracks)>;

struct CapacityOptions {
  /// K-segment limit (0 = unlimited).
  int max_segments = 0;
  /// Upper bound on tracks tried before giving up.
  int track_limit = 128;
  /// Worker threads for routability's trials. The library-wide
  /// convention (shared with engine::BatchOptions::threads,
  /// fpga::FabricOptions::threads and svc::SvcOptions::threads):
  /// 1 = serial, N > 1 = fixed, and <= 0 = "auto" — resolved to
  /// util::hardware_threads(), the clamped hardware concurrency.
  /// Results are bit-identical across all values (see file comment).
  int threads = 1;
};

/// Smallest track count for which `make(t)` routes `cs`, or nullopt if
/// none within opts.track_limit. A linear scan up from the density (no
/// channel with fewer tracks routes): routability is monotone in the
/// track count for the factories of gen/segmentation.h, but not for an
/// arbitrary factory (one may re-segment existing tracks as t grows), so
/// the scan does not bisect.
std::optional<int> min_tracks(const ConnectionSet& cs, const ChannelFactory& make,
                              const CapacityOptions& opts = {});

/// Largest prefix (in the given order) of `cs` that routes in `ch`.
/// Monotone by construction — removing the last connection keeps the
/// remaining prefix routable — so it bisects. Each probe's prefix is
/// sliced in one bulk construction from the stored connection vector
/// (not rebuilt add-by-add).
int max_routable_prefix(const SegmentedChannel& ch, const ConnectionSet& cs,
                        const CapacityOptions& opts = {});

/// Monte-Carlo routability estimate: fraction of `trials` workloads drawn
/// from `draw` that route in `ch`. The master `rng` is consumed exactly
/// `trials` times (one seed per trial) and each trial's workload is drawn
/// from its own per-trial stream, so the estimate is a deterministic
/// function of (rng state, trials) regardless of opts.threads.
double routability(const SegmentedChannel& ch,
                   const std::function<ConnectionSet(std::mt19937_64&)>& draw,
                   int trials, std::mt19937_64& rng,
                   const CapacityOptions& opts = {});

}  // namespace segroute::alg
