// Routing: an assignment of connections to tracks, plus validation
// (Definition 1 of the paper) and occupancy/weight queries.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/channel.h"
#include "core/connection.h"
#include "core/types.h"

namespace segroute {

/// A (possibly partial) routing: track_of(i) is the track connection i is
/// assigned to, or kNoTrack. A *complete* routing assigns every connection.
class Routing {
 public:
  Routing() = default;
  explicit Routing(ConnId num_connections)
      : track_of_(static_cast<std::size_t>(num_connections), kNoTrack) {}

  [[nodiscard]] ConnId size() const {
    return static_cast<ConnId>(track_of_.size());
  }
  [[nodiscard]] TrackId track_of(ConnId c) const { return track_of_[c]; }
  void assign(ConnId c, TrackId t) { track_of_[c] = t; }
  void unassign(ConnId c) { track_of_[c] = kNoTrack; }
  [[nodiscard]] bool is_assigned(ConnId c) const {
    return track_of_[c] != kNoTrack;
  }
  [[nodiscard]] bool is_complete() const;

  /// Number of assigned connections.
  [[nodiscard]] ConnId num_assigned() const;

  friend bool operator==(const Routing&, const Routing&) = default;

 private:
  std::vector<TrackId> track_of_;
};

/// Outcome of validating a routing against a channel and connection set.
struct ValidationResult {
  bool ok = true;
  std::string error;  // human-readable description of the first violation

  explicit operator bool() const { return ok; }
};

/// Checks Definition 1: every assigned connection's occupied segments are
/// disjoint from every other assigned connection's. If `max_segments` is
/// given, also checks the K-segment condition (each connection occupies at
/// most K segments). Unassigned connections are permitted (use
/// `require_complete` to reject them). Sizes must match.
ValidationResult validate(const SegmentedChannel& ch, const ConnectionSet& cs,
                          const Routing& r,
                          std::optional<int> max_segments = std::nullopt,
                          bool require_complete = true);

/// Number of segments connection `c` occupies when assigned to track `t`.
int segments_used(const SegmentedChannel& ch, const Connection& c, TrackId t);

/// Per-track occupancy bitmap utility used by routers and the validator:
/// marks the segments each assigned connection occupies; returns false and
/// sets `conflict` on the first doubly-occupied segment.
class Occupancy {
 public:
  explicit Occupancy(const SegmentedChannel& ch);

  /// Clears every segment to unoccupied in place, without reallocating.
  /// Lets a caller that routes repeatedly on one channel reuse a single
  /// workspace instead of constructing a fresh Occupancy per attempt.
  void reset();

  /// Points the workspace at `ch` and clears it. Per-row incremental:
  /// each row whose segment count already matches `ch` is reused in
  /// place (the steady-state, allocation-free path of the engine's
  /// per-thread scratch), and only mismatched rows are rebuilt — so an
  /// edit that resegments one track touches one row.
  void rebind(const SegmentedChannel& ch);

  /// True if connection span [lo, hi] can be placed on track t without
  /// touching an occupied segment.
  [[nodiscard]] bool fits(TrackId t, Column lo, Column hi) const;

  /// Marks the segments spanned by [lo, hi] on track t as occupied by
  /// connection `c`. Returns false (and changes nothing) on conflict.
  bool place(TrackId t, Column lo, Column hi, ConnId c);

  /// Releases the segments spanned by [lo, hi] on track t.
  void remove(TrackId t, Column lo, Column hi);

  /// Occupant of segment `s` of track `t`, or kNoConn.
  [[nodiscard]] ConnId occupant(TrackId t, SegId s) const {
    return occ_[static_cast<std::size_t>(t)][static_cast<std::size_t>(s)];
  }

  /// Heap bytes retained by the workspace (row capacities, not sizes) —
  /// observability for long-lived reusable instances.
  [[nodiscard]] std::size_t bytes_held() const {
    std::size_t bytes = occ_.capacity() * sizeof(occ_[0]);
    for (const auto& row : occ_) bytes += row.capacity() * sizeof(ConnId);
    return bytes;
  }

 private:
  const SegmentedChannel* ch_;
  std::vector<std::vector<ConnId>> occ_;  // per track, per segment
};

/// Shared routing scratch threaded through the occupancy-based routers: a
/// reusable Occupancy, borrowed, which must have been constructed (or
/// rebound) for the channel being routed. Default (null) builds a
/// call-local Occupancy; results are identical either way.
struct RouteContext {
  Occupancy* occupancy = nullptr;
};

}  // namespace segroute
