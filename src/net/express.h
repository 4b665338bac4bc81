// Segmented channels as a multiprocessor interconnect — the paper's
// concluding remark: "The routing scheme using segmented channels may
// also be considered as a model for a communication network in a
// multiprocessor architecture. The logic modules in Fig. 1 can be
// replaced by processing elements (PE's) ... In [8] a preliminary
// network model that uses specially segmented channels (referred to as
// express channels) has already been proposed."
//
// Model: P processing elements sit at columns 1..P of a segmented
// channel. A message from PE a to PE b claims the segments spanning
// [min(a,b), max(a,b)] on one track (programmed-switch circuit
// switching). Latency is the Elmore delay of the claimed path — long
// express segments give long-haul messages few switches; short local
// segments serve neighbor traffic without wasting wire.
#pragma once

#include <random>
#include <string>
#include <vector>

#include "alg/result.h"
#include "core/channel.h"
#include "core/connection.h"
#include "core/routing.h"
#include "fpga/delay.h"

namespace segroute::net {

/// A point-to-point message between two processing elements (1-based
/// PE indices == columns).
struct Message {
  int src = 0;
  int dst = 0;

  [[nodiscard]] int distance() const { return std::abs(dst - src); }
};

/// Traffic patterns from the interconnection-network literature.
/// Throw contract: all throw std::invalid_argument on nonsensical
/// parameters (fewer than 2 PEs, negative message count).
std::vector<Message> uniform_traffic(int pes, int count, std::mt19937_64& rng);
std::vector<Message> neighbor_traffic(int pes, int count, std::mt19937_64& rng);
std::vector<Message> bit_reversal_traffic(int pes);

/// Channel organizations to compare (all with `tracks` tracks over `pes`
/// columns).
SegmentedChannel local_channel(int tracks, int pes);            // unit segments
SegmentedChannel bus_channel(int tracks, int pes);              // unsegmented
/// Express organization: half the tracks carry unit ("local") segments,
/// the other half express segments of length `express_len`, staggered.
/// Throws std::invalid_argument when tracks < 2, pes < 2, or
/// express_len < 1.
SegmentedChannel express_channel(int tracks, int pes, Column express_len);

/// Outcome of offering a batch of messages to the network.
struct NetworkReport {
  int offered = 0;
  int delivered = 0;                 // messages that got a track
  double mean_latency = 0.0;         // Elmore delay over delivered
  double max_latency = 0.0;
  double mean_switches = 0.0;        // programmed switches per delivered msg
  /// kInvalidInput when a message references a PE outside the channel's
  /// columns (nothing is offered then); kNone otherwise.
  alg::FailureKind failure = alg::FailureKind::kNone;
  std::string note;  // human-readable detail when failure != kNone

  explicit operator bool() const { return failure == alg::FailureKind::kNone; }
};

/// Greedy circuit switching: messages are sorted by left end and each is
/// assigned to the feasible track minimizing occupied segment count,
/// then occupied length (an express lane for long-haul, a local lane for
/// neighbors); undeliverable messages are dropped and counted. A message
/// referencing a PE outside the channel's columns yields a report with
/// failure == kInvalidInput instead of a throw.
NetworkReport offer_traffic(const SegmentedChannel& ch,
                            const std::vector<Message>& msgs,
                            const fpga::DelayParams& params = {});

/// The express assignment policy as a batch router: routes a
/// ConnectionSet by left-end order, placing each connection on the
/// feasible track with the fewest occupied segments (ties: shortest
/// occupied length, then lowest track). With `max_segments` > 0,
/// assignments occupying more segments are not considered. Heuristic —
/// a kInfeasible failure means "gave up", not a proof. `ctx` optionally
/// supplies a reusable Occupancy (reset here); results are bit-identical
/// with and without it. Registered in alg::registry() as "express".
alg::RouteResult express_route(const SegmentedChannel& ch,
                               const ConnectionSet& cs, int max_segments = 0,
                               const RouteContext& ctx = {});

}  // namespace segroute::net
