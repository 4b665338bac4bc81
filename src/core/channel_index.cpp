#include "core/channel_index.h"

namespace segroute {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  // Mix 64 bits byte-wise so column values with equal low bytes still
  // diffuse (plain 64-bit xor-multiply weakens small-integer inputs).
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= kFnvPrime;
  }
}

}  // namespace

ChannelIndex::ChannelIndex(const SegmentedChannel& ch)
    : ch_(&ch),
      num_tracks_(ch.num_tracks()),
      cols_(static_cast<std::size_t>(ch.width()) + 1),
      num_types_(ch.num_types()),
      type_of_(ch.type_of()) {
  const std::size_t Ts = static_cast<std::size_t>(num_tracks_);

  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(ch.width()));
  fnv_mix(h, static_cast<std::uint64_t>(num_tracks_));

  seg_base_.reserve(Ts);
  seg_of_col_.assign(Ts * cols_, 0);
  for (TrackId t = 0; t < num_tracks_; ++t) {
    const Track& tr = ch.track(t);
    seg_base_.push_back(static_cast<int>(seg_left_.size()));
    fnv_mix(h, static_cast<std::uint64_t>(tr.num_segments()));
    SegId* row = seg_of_col_.data() + static_cast<std::size_t>(t) * cols_;
    for (SegId s = 0; s < tr.num_segments(); ++s) {
      const Segment& seg = tr.segment(s);
      seg_left_.push_back(seg.left);
      seg_right_.push_back(seg.right);
      fnv_mix(h, static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(seg.right)));
      for (Column c = seg.left; c <= seg.right; ++c) {
        row[static_cast<std::size_t>(c)] = s;
      }
    }
  }
  fingerprint_ = h;

  type_members_.resize(static_cast<std::size_t>(num_types_));
  for (TrackId t = 0; t < num_tracks_; ++t) {
    type_members_[static_cast<std::size_t>(type_of_[static_cast<std::size_t>(t)])]
        .push_back(t);
  }
}

}  // namespace segroute
