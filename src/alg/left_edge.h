// Left-edge routing (Section IV-A, "Identically Segmented Tracks"; also
// the conventional-channel baseline of Fig. 2(b)).
#pragma once

#include "alg/result.h"
#include "core/channel.h"
#include "core/connection.h"
#include "core/routing.h"

namespace segroute::alg {

/// Routes in an identically segmented channel with the left-edge
/// algorithm: process connections by increasing left end, assign each to
/// the first track where none of the segments it would occupy is taken.
/// Solves Problems 1 and 2 for this special case in O(M*T) track scans.
/// If `max_segments` > 0, assignments that would occupy more segments are
/// not considered (K-segment routing).
///
/// Requires ch.identically_segmented(): the algorithm runs on any
/// channel, but its exactness guarantee requires identical tracks, so a
/// mixed channel is rejected with FailureKind::kInvalidInput.
///
/// `ctx` optionally supplies a reusable Occupancy (reset here); results
/// are bit-identical with and without it.
RouteResult left_edge_route(const SegmentedChannel& ch, const ConnectionSet& cs,
                            int max_segments = 0,
                            const RouteContext& ctx = {});

/// Conventional (freely customized) channel routing baseline: the number
/// of tracks the left-edge algorithm needs with no segmentation
/// constraints, which — absent vertical constraints — equals the density.
/// Returns the per-connection track assignment using exactly density(cs)
/// tracks (Fig. 2(b)).
RouteResult left_edge_unconstrained(const ConnectionSet& cs);

/// Minimum number of tracks for an unconstrained channel == density.
int unconstrained_tracks_needed(const ConnectionSet& cs);

}  // namespace segroute::alg
