#include "core/channel.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace segroute {

SegmentedChannel::SegmentedChannel(std::vector<Track> tracks)
    : tracks_(std::move(tracks)) {
  if (tracks_.empty()) {
    throw std::invalid_argument("SegmentedChannel: need at least one track");
  }
  width_ = tracks_.front().width();
  for (const Track& t : tracks_) {
    if (t.width() != width_) {
      throw std::invalid_argument(
          "SegmentedChannel: all tracks must span the same columns");
    }
  }
  // Classify tracks into identical-segmentation types, in order of first
  // appearance so type ids are deterministic.
  std::map<std::vector<Column>, int> seen;
  type_of_.reserve(tracks_.size());
  for (const Track& t : tracks_) {
    auto [it, inserted] = seen.try_emplace(t.switch_positions(), num_types_);
    if (inserted) ++num_types_;
    type_of_.push_back(it->second);
  }
}

SegmentedChannel SegmentedChannel::identical(
    TrackId num_tracks, Column width, const std::vector<Column>& switches_after) {
  if (num_tracks <= 0) {
    throw std::invalid_argument("SegmentedChannel: need at least one track");
  }
  std::vector<Track> tracks;
  tracks.reserve(static_cast<std::size_t>(num_tracks));
  for (TrackId t = 0; t < num_tracks; ++t) {
    tracks.emplace_back(width, switches_after);
  }
  return SegmentedChannel(std::move(tracks));
}

SegmentedChannel SegmentedChannel::unsegmented(TrackId num_tracks, Column width) {
  return identical(num_tracks, width, {});
}

SegmentedChannel SegmentedChannel::fully_segmented(TrackId num_tracks,
                                                   Column width) {
  std::vector<Column> sw;
  for (Column c = 1; c < width; ++c) sw.push_back(c);
  return identical(num_tracks, width, sw);
}

int SegmentedChannel::total_segments() const {
  int n = 0;
  for (const Track& t : tracks_) n += t.num_segments();
  return n;
}

bool SegmentedChannel::identically_segmented() const { return num_types_ == 1; }

int SegmentedChannel::max_segments_per_track() const {
  int m = 0;
  for (const Track& t : tracks_) m = std::max(m, static_cast<int>(t.num_segments()));
  return m;
}

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

std::uint64_t fingerprint(const SegmentedChannel& ch) {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(ch.width()));
  fnv_mix(h, static_cast<std::uint64_t>(ch.num_tracks()));
  for (const Track& tr : ch.tracks()) {
    fnv_mix(h, static_cast<std::uint64_t>(tr.num_segments()));
    for (const Segment& seg : tr.segments()) {
      fnv_mix(h, static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(seg.right)));
    }
  }
  return h;
}

}  // namespace segroute
