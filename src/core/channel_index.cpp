#include "core/channel_index.h"

namespace segroute {

ChannelIndex::ChannelIndex(const SegmentedChannel& ch)
    : ch_(&ch),
      num_tracks_(ch.num_tracks()),
      cols_(static_cast<std::size_t>(ch.width()) + 1),
      num_types_(ch.num_types()),
      type_of_(ch.type_of()) {
  const std::size_t Ts = static_cast<std::size_t>(num_tracks_);

  seg_base_.reserve(Ts);
  seg_of_col_.assign(Ts * cols_, 0);
  for (TrackId t = 0; t < num_tracks_; ++t) {
    const Track& tr = ch.track(t);
    seg_base_.push_back(static_cast<int>(seg_left_.size()));
    SegId* row = seg_of_col_.data() + static_cast<std::size_t>(t) * cols_;
    for (SegId s = 0; s < tr.num_segments(); ++s) {
      const Segment& seg = tr.segment(s);
      seg_left_.push_back(seg.left);
      seg_right_.push_back(seg.right);
      for (Column c = seg.left; c <= seg.right; ++c) {
        row[static_cast<std::size_t>(c)] = s;
      }
    }
  }

  type_members_.resize(static_cast<std::size_t>(num_types_));
  for (TrackId t = 0; t < num_tracks_; ++t) {
    type_members_[static_cast<std::size_t>(type_of_[static_cast<std::size_t>(t)])]
        .push_back(t);
  }
}

}  // namespace segroute
