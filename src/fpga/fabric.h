// FabricRouter: parallel multi-channel routing with negotiated
// congestion — the whole channeled-FPGA fabric of Fig. 1 as one routing
// problem instead of one channel at a time.
//
// A placed netlist induces one horizontal trunk per net, and every trunk
// can live in any channel adjacent to its pin rows (pins reach the
// channels directly above and below through dedicated verticals;
// feedthroughs cross further rows for free). The channels therefore
// *compete*: moving a net into a channel consumes that channel's track
// capacity everywhere the net spans. The paper routes each channel in
// isolation; this router closes the loop across channels with the
// relaxation schema of the sub-gradient / PathFinder family of parallel
// FPGA routers:
//
//   repeat (bounded by FabricOptions::max_iterations):
//     1. ASSIGN   every net to the cheapest adjacent channel under the
//                 current congestion costs (serial, deterministic);
//     2. ROUTE    all channels concurrently — each channel's connection
//                 set is split at safe columns (alg/decompose) and every
//                 part is a batch instance of one shared
//                 engine::BatchRouter over the common substrate,
//                 routed by the exact DP (registry "dp"); a part whose
//                 column density exceeds the track count is reported
//                 kInfeasible without routing (no track assignment
//                 exists), which is what the DP would prove;
//     3. PRICE    update the congestion costs from the outcome:
//                 column history for overused spans, per-(channel,
//                 track-class) Lagrangian multipliers for scarce
//                 segment classes — folded into the next iteration's
//                 detailed routing through the registry's weight hook;
//   until every channel routes (congestion-free) or the iteration cap
//   or budget is hit.
//
// Cost model. Capacity is measured in *extended spans* (Section IV-A):
// a net's span is widened to the segment boundaries of its
// best-fitting track class, so two nets that share no column but would
// occupy the same segment still see each other in the assignment cost.
// The assignment cost of net n in channel c is
//
//     sum over cols of ext(n):  (1 + h[c][col]) * (1 + P * over(col))
//   + len(n) * mean-lambda[c]
//
// where h is accumulated history, over(col) the would-be overuse versus
// the track count, P = 2 the present-congestion factor, and lambda the
// per-(channel, class) multipliers. Detailed routing minimizes
// sum lambda[c][class(track)] over the chosen tracks whenever the
// multipliers differentiate the classes — the Lagrangian term of the
// relaxed class-capacity constraint — so successive iterations steer
// nets away from scarce long segments before they fail.
//
// Determinism contract. For a fixed input and fixed options, the result
// — assignment, routings, iteration count, digest — is bit-identical
// for every thread count and with the engine cache on or off.
// Assignment and pricing are serial; routing goes through
// BatchRouter::route_many, whose results are thread-count and
// cache-mode invariant; budget *tick* slices are a function of the
// iteration cap and channel count only. A wall-clock deadline in
// FabricOptions::budget keeps the bound but (like every deadline)
// trades the bit-identity guarantee for timeliness.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "alg/result.h"
#include "core/channel.h"
#include "core/connection.h"
#include "core/routing.h"
#include "engine/batch.h"
#include "fpga/device.h"
#include "fpga/netlist.h"
#include "fpga/place.h"
#include "harness/budget.h"

namespace segroute::fpga {

struct FabricOptions {
  /// Worker threads for the concurrent channel sweep. Library-wide
  /// convention: 1 = serial, N > 1 = fixed, <= 0 = auto
  /// (util::hardware_threads()). Results are bit-identical across all
  /// values.
  int threads = 1;

  /// Negotiation iteration cap. Iteration 0 uses the uncongested greedy
  /// assignment (identical to route_independent), so a fabric that
  /// routes without negotiation converges in one iteration.
  int max_iterations = 16;

  /// Engine memo cache over the shared substrate.
  bool use_cache = true;
  std::size_t cache_capacity = 1024;
  int cache_shards = 16;

  /// Whole-fabric resource bounds. max_ticks is divided into
  /// deterministic per-instance slices: max_ticks / (max_iterations *
  /// num_channels), at least 1. A deadline is sliced the same way but
  /// is inherently wall-clock-jittery (see the determinism contract).
  /// A part whose column density exceeds the track count spends none of
  /// its slice: it reports kInfeasible even under a 1-tick budget or a
  /// cancelled one, because a proof wins over a budget stop.
  harness::Budget budget;
};

/// Per-channel outcome of a fabric route.
struct FabricChannelReport {
  int channel = 0;
  int connections = 0;
  int density = 0;  // plain column density of the final assignment
  bool routed = false;
  alg::FailureKind failure = alg::FailureKind::kNone;  // kNone iff routed
  double weight = 0.0;  // total Lagrangian price paid (0 when unpriced)
};

/// Outcome of a fabric route: the negotiated assignment, one routing per
/// channel, per-channel reports, and a deterministic digest for
/// bit-identity checks across thread counts and cache modes.
struct FabricResult {
  bool success = false;  // every channel routed (congestion-free)
  int iterations = 0;    // negotiation iterations executed (>= 1)

  std::vector<int> channel_of_net;            // per net; -1 = empty net
  std::vector<ConnectionSet> per_channel;     // trunk connections
  std::vector<std::vector<int>> net_of_conn;  // per channel: conn -> net
  std::vector<Routing> routings;              // per channel (ids match
                                              // per_channel)
  std::vector<FabricChannelReport> channels;

  /// Per negotiation iteration: the channel parts it routed through
  /// route_many, the parts it certified infeasible by column density
  /// without routing them (not counted in `parts`), the routed parts'
  /// summed wall-clock route time, and the largest single part's — the
  /// iteration's critical path, which no route_many parallelism can
  /// shorten. Excluded from the digest.
  struct IterationTime {
    int parts = 0;
    int over_dense = 0;
    std::uint64_t parts_ns = 0;
    std::uint64_t critical_ns = 0;
  };
  std::vector<IterationTime> iteration_times;

  engine::CacheStats cache;  // engine counters (excluded from digest)
  std::uint64_t digest = 0;  // FNV over assignment + routings + outcome
  std::string note;

  explicit operator bool() const { return success; }
};

/// Routes a placed netlist over the channel fabric of a DeviceSpec. The
/// netlist and placement are borrowed and must outlive the router; the
/// factory builds the per-channel substrate (all channels of a fabric
/// share one segmentation, so one SegmentedChannel — and one
/// BatchRouter, one ChannelIndex, one sharded memo cache — serves every
/// channel).
class FabricRouter {
 public:
  FabricRouter(const DeviceSpec& dev, const Netlist& nl, const Placement& p,
               std::function<SegmentedChannel(int tracks, Column width)>
                   make_channel);

  /// Negotiated fabric routing at the given per-channel track count.
  [[nodiscard]] FabricResult route(int tracks,
                                   const FabricOptions& opts = {}) const;

  /// The non-negotiated baseline: the iteration-0 greedy assignment,
  /// each channel routed once, no cost updates. Exactly route() with
  /// max_iterations = 1 — which is why the negotiated result can never
  /// need more tracks than the independent one.
  [[nodiscard]] FabricResult route_independent(
      int tracks, const FabricOptions& opts = {}) const;

  /// Smallest track count for which route() succeeds, or nullopt if none
  /// within track_limit, if a route() call exhausts opts.budget, or if
  /// the placement does not fit the device (route()'s placement check).
  /// The scan starts at a per-column Hall bound: for every column x and
  /// channel interval [a, b], the trunks over x whose adjacent-channel
  /// range lies inside [a, b] need ceil(count / (b - a + 1)) tracks. No
  /// width below that bound can route, so the answer is the one a scan
  /// from width 1 would find, without routing the widths in between.
  [[nodiscard]] std::optional<int> min_fabric_tracks(
      int track_limit, const FabricOptions& opts = {}) const;

  [[nodiscard]] const DeviceSpec& device() const { return dev_; }

 private:
  DeviceSpec dev_;
  const Netlist* nl_;
  const Placement* p_;
  std::function<SegmentedChannel(int, Column)> make_channel_;
};

}  // namespace segroute::fpga
