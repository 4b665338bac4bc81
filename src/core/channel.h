// SegmentedChannel: the routing substrate of the paper — T tracks spanning
// columns 1..N, each divided into fixed segments by switches.
#pragma once

#include <cstdint>
#include <vector>

#include "core/track.h"
#include "core/types.h"

namespace segroute {

/// An immutable segmented routing channel.
///
/// Invariant: at least one track, and all tracks have equal width.
class SegmentedChannel {
 public:
  /// Builds a channel from per-track descriptions. Throws
  /// std::invalid_argument if widths disagree or `tracks` is empty.
  explicit SegmentedChannel(std::vector<Track> tracks);

  /// T identical tracks built from the same switch list.
  static SegmentedChannel identical(TrackId num_tracks, Column width,
                                    const std::vector<Column>& switches_after);

  /// T continuous tracks (Fig. 2(d): unsegmented channel).
  static SegmentedChannel unsegmented(TrackId num_tracks, Column width);

  /// T fully segmented tracks (Fig. 2(c): a switch at every column gap).
  static SegmentedChannel fully_segmented(TrackId num_tracks, Column width);

  [[nodiscard]] TrackId num_tracks() const {
    return static_cast<TrackId>(tracks_.size());
  }
  [[nodiscard]] Column width() const { return width_; }
  [[nodiscard]] const Track& track(TrackId t) const { return tracks_[t]; }
  [[nodiscard]] const std::vector<Track>& tracks() const { return tracks_; }

  /// Total number of segments across all tracks.
  [[nodiscard]] int total_segments() const;

  /// True if all tracks are identically segmented (Section IV-A's
  /// "identically segmented tracks" special case).
  [[nodiscard]] bool identically_segmented() const;

  /// Maximum number of segments in any single track. 1 means the channel is
  /// unsegmented; <= 2 enables the Theorem-4 greedy algorithm.
  [[nodiscard]] int max_segments_per_track() const;

  /// Partition of tracks into identical-segmentation classes: type_of()[t]
  /// is a dense type id in [0, num_types()). Tracks of the same type are
  /// interchangeable for routing purposes (Theorem 7).
  [[nodiscard]] const std::vector<int>& type_of() const { return type_of_; }
  [[nodiscard]] int num_types() const { return num_types_; }

 private:
  std::vector<Track> tracks_;
  Column width_ = 0;
  std::vector<int> type_of_;
  int num_types_ = 0;
};

/// FNV-1a hash of the full channel structure (width, track count, every
/// segment boundary). It keys the BatchRouter memo cache and its targeted
/// invalidation: two channels with equal fingerprints are structurally
/// identical for routing purposes (collisions are possible in principle
/// but need 2^32-scale channel populations), and any structural edit —
/// including a FaultPlan-materialized degraded channel — changes it, so
/// caches keyed by it cannot serve stale answers across hardware faults.
/// O(total segments).
[[nodiscard]] std::uint64_t fingerprint(const SegmentedChannel& ch);

}  // namespace segroute
