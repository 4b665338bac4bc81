// ChannelIndex: an immutable, hash-fingerprinted side structure over one
// SegmentedChannel, owned by the stateful components that need its
// fingerprint or its O(1) tables.
//
// The stateless routers read SegmentedChannel/Track directly; an index is
// built only where it is kept and read:
//
//  - BatchRouter and CheckpointStore key their caches by fingerprint();
//  - OnlineRouter and robust_route's repair pre-stage use the O(1)
//    span() / occupied_length() lookups in their best-fit scans;
//  - the fabric router reads the type classes.
//
// Tables:
//
//  - seg_of_col: an O(1) (track, column) -> segment-id table (the
//    replacement for Track::segment_at's binary search);
//  - flat segment tables: every segment of every track in one pair of
//    left[]/right[] arrays, track t's segments starting at a per-track
//    offset;
//  - type classes: the channel's identical-segmentation partition with a
//    representative track and the member list per type.
//
// The fingerprint is an FNV-1a hash of the full channel structure (width,
// track count, every segment boundary). It keys the engine's per-thread
// scratch arenas and the BatchRouter memo cache: two channels with equal
// fingerprints are structurally identical for routing purposes (collisions
// are possible in principle but need 2^32-scale channel populations), and
// any structural edit — including a FaultPlan-materialized degraded
// channel — changes the fingerprint, so caches keyed by it cannot serve
// stale answers across hardware faults.
//
// Lifetime: the index borrows the channel; the channel must outlive it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/channel.h"
#include "core/types.h"

namespace segroute {

class ChannelIndex {
 public:
  explicit ChannelIndex(const SegmentedChannel& ch);

  [[nodiscard]] const SegmentedChannel& channel() const { return *ch_; }
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }
  [[nodiscard]] TrackId num_tracks() const { return num_tracks_; }

  /// O(1): segment of track `t` containing column `c` (1 <= c <= width).
  [[nodiscard]] SegId segment_at(TrackId t, Column c) const {
    return seg_of_col_[static_cast<std::size_t>(t) * cols_ +
                       static_cast<std::size_t>(c)];
  }

  /// O(1): segment range [first, last] a span [lo, hi] occupies in track t.
  [[nodiscard]] std::pair<SegId, SegId> span(TrackId t, Column lo,
                                             Column hi) const {
    return {segment_at(t, lo), segment_at(t, hi)};
  }

  /// Sum of the lengths of the segments a span [lo, hi] occupies in t.
  [[nodiscard]] Column occupied_length(TrackId t, Column lo, Column hi) const {
    return seg_right(t, segment_at(t, hi)) - seg_left(t, segment_at(t, lo)) + 1;
  }

  /// Ends of segment s of track t.
  [[nodiscard]] Column seg_left(TrackId t, SegId s) const {
    return seg_left_[flat(t, s)];
  }
  [[nodiscard]] Column seg_right(TrackId t, SegId s) const {
    return seg_right_[flat(t, s)];
  }

  // Identical-segmentation type classes (mirrors SegmentedChannel but adds
  // the per-type member lists and representatives).
  [[nodiscard]] int num_types() const { return num_types_; }
  [[nodiscard]] const std::vector<int>& type_of() const { return type_of_; }
  [[nodiscard]] const std::vector<TrackId>& tracks_of_type(int type) const {
    return type_members_[static_cast<std::size_t>(type)];
  }
  /// Lowest-indexed track of the type (its segmentation stands for all).
  [[nodiscard]] TrackId representative(int type) const {
    return type_members_[static_cast<std::size_t>(type)].front();
  }

 private:
  [[nodiscard]] std::size_t flat(TrackId t, SegId s) const {
    return static_cast<std::size_t>(seg_base_[static_cast<std::size_t>(t)] + s);
  }

  const SegmentedChannel* ch_;
  std::uint64_t fingerprint_ = 0;
  TrackId num_tracks_ = 0;
  std::size_t cols_ = 0;  // width + 1 (column 0 unused; columns 1-based)

  std::vector<SegId> seg_of_col_;   // T x (width+1), row-major by track
  std::vector<int> seg_base_;      // per-track offsets into flat tables
  std::vector<Column> seg_left_;   // flat, by seg_base_[t] + s
  std::vector<Column> seg_right_;  // flat, by seg_base_[t] + s

  int num_types_ = 0;
  std::vector<int> type_of_;
  std::vector<std::vector<TrackId>> type_members_;
};

}  // namespace segroute
