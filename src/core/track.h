// Track: one horizontal wiring track of a segmented channel, divided into
// contiguous segments by switches.
#pragma once

#include <vector>

#include "core/segment.h"
#include "core/types.h"

namespace segroute {

/// A track spanning columns 1..N, partitioned into one or more segments.
///
/// Invariants (enforced at construction):
///  - segments are contiguous: seg[0].left == 1, seg[k+1].left ==
///    seg[k].right + 1, seg.back().right == N;
///  - every segment is non-empty.
///
/// The canonical constructor takes the *switch positions*: a sorted list of
/// columns `c` such that a switch separates column `c` from column `c+1`
/// (1 <= c < N). An empty list yields a single full-width segment.
class Track {
 public:
  /// Builds a track over columns 1..`width` with switches after each column
  /// in `switches_after`. Throws std::invalid_argument on out-of-range or
  /// duplicate switch positions or non-positive width.
  Track(Column width, std::vector<Column> switches_after);

  /// Builds a track directly from a contiguous segment list (validates).
  static Track from_segments(std::vector<Segment> segments);

  /// Convenience: a track that is one single segment (unsegmented).
  static Track unsegmented(Column width);

  /// Convenience: a switch between every pair of adjacent columns
  /// (fully segmented: every segment has length 1).
  static Track fully_segmented(Column width);

  [[nodiscard]] Column width() const { return width_; }
  [[nodiscard]] SegId num_segments() const {
    return static_cast<SegId>(segments_.size());
  }
  [[nodiscard]] const Segment& segment(SegId i) const { return segments_[i]; }
  [[nodiscard]] const std::vector<Segment>& segments() const { return segments_; }

  /// Index of the segment containing column `c` (1 <= c <= width).
  /// Branchless binary search over the segment list, O(log S) with no
  /// per-column lookup table. The stateful owners of a ChannelIndex
  /// (core/channel_index.h) use its O(1) per-column table instead.
  [[nodiscard]] SegId segment_at(Column c) const;

  /// Segment-index range [first, last] (inclusive) a connection spanning
  /// columns [lo, hi] would occupy in this track. Per the paper's occupancy
  /// rule this is every segment s with right(s) >= lo and left(s) <= hi,
  /// which — segments being a partition — is segment_at(lo)..segment_at(hi).
  [[nodiscard]] std::pair<SegId, SegId> span(Column lo, Column hi) const;

  /// Number of segments a connection spanning [lo, hi] would occupy.
  [[nodiscard]] int segments_spanned(Column lo, Column hi) const;

  /// Sum of the lengths of the segments a connection spanning [lo, hi]
  /// would occupy (the paper's suggested weight for Problem 3).
  [[nodiscard]] Column occupied_length(Column lo, Column hi) const;

  /// The switch positions this track was built from (sorted). Two tracks
  /// are "identically segmented" iff these lists are equal.
  [[nodiscard]] std::vector<Column> switch_positions() const;

  /// Extends [lo, hi] outward to the nearest segment boundaries: the result
  /// is [left(segment_at(lo)), right(segment_at(hi))]. Used for the
  /// switch-aligned density bound of Section IV-A.
  [[nodiscard]] std::pair<Column, Column> align_to_segments(Column lo,
                                                            Column hi) const;

  friend bool operator==(const Track& a, const Track& b) {
    return a.segments_ == b.segments_;
  }

 private:
  explicit Track(std::vector<Segment> segments);

  Column width_ = 0;
  std::vector<Segment> segments_;
};

}  // namespace segroute
