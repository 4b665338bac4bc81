#include "core/routing.h"

#include <algorithm>

namespace segroute {

bool Routing::is_complete() const {
  return std::all_of(track_of_.begin(), track_of_.end(),
                     [](TrackId t) { return t != kNoTrack; });
}

ConnId Routing::num_assigned() const {
  return static_cast<ConnId>(std::count_if(
      track_of_.begin(), track_of_.end(),
      [](TrackId t) { return t != kNoTrack; }));
}

int segments_used(const SegmentedChannel& ch, const Connection& c, TrackId t) {
  return ch.track(t).segments_spanned(c.left, c.right);
}

Occupancy::Occupancy(const SegmentedChannel& ch) : ch_(&ch) {
  occ_.resize(static_cast<std::size_t>(ch.num_tracks()));
  for (TrackId t = 0; t < ch.num_tracks(); ++t) {
    occ_[static_cast<std::size_t>(t)].assign(
        static_cast<std::size_t>(ch.track(t).num_segments()), kNoConn);
  }
}

void Occupancy::reset() {
  for (auto& row : occ_) std::fill(row.begin(), row.end(), kNoConn);
}

void Occupancy::rebind(const SegmentedChannel& ch) {
  // Per-row incremental: a row whose segment count already matches is
  // cleared in place, so a single-track edit (the delta layer's common
  // case) reallocates only the row it changed instead of rebuilding the
  // whole workspace.
  ch_ = &ch;
  occ_.resize(static_cast<std::size_t>(ch.num_tracks()));
  for (TrackId t = 0; t < ch.num_tracks(); ++t) {
    auto& row = occ_[static_cast<std::size_t>(t)];
    const auto want = static_cast<std::size_t>(ch.track(t).num_segments());
    if (row.size() == want) {
      std::fill(row.begin(), row.end(), kNoConn);
    } else {
      row.assign(want, kNoConn);
    }
  }
}

bool Occupancy::fits(TrackId t, Column lo, Column hi) const {
  auto [a, b] = ch_->track(t).span(lo, hi);
  const auto& row = occ_[static_cast<std::size_t>(t)];
  for (SegId s = a; s <= b; ++s) {
    if (row[static_cast<std::size_t>(s)] != kNoConn) return false;
  }
  return true;
}

bool Occupancy::place(TrackId t, Column lo, Column hi, ConnId c) {
  if (!fits(t, lo, hi)) return false;
  auto [a, b] = ch_->track(t).span(lo, hi);
  auto& row = occ_[static_cast<std::size_t>(t)];
  for (SegId s = a; s <= b; ++s) row[static_cast<std::size_t>(s)] = c;
  return true;
}

void Occupancy::remove(TrackId t, Column lo, Column hi) {
  auto [a, b] = ch_->track(t).span(lo, hi);
  auto& row = occ_[static_cast<std::size_t>(t)];
  for (SegId s = a; s <= b; ++s) row[static_cast<std::size_t>(s)] = kNoConn;
}

TrackId best_fit_track(const SegmentedChannel& ch, const Occupancy& occ,
                       Column lo, Column hi, int max_segments,
                       FitScore score) {
  TrackId best = kNoTrack;
  Column best_score = 0;
  for (TrackId t = 0; t < ch.num_tracks(); ++t) {
    const Track& tr = ch.track(t);
    const auto [a, b] = tr.span(lo, hi);
    if (max_segments > 0 && b - a + 1 > max_segments) continue;
    Column s = 0;
    if (score == FitScore::kOccupiedLength) {
      s = tr.segment(b).right - tr.segment(a).left + 1;
    } else if (score == FitScore::kSegmentsSpanned) {
      s = b - a + 1;
    }
    // Strict <: a later track must beat the score, so ties stay low.
    if (best != kNoTrack && s >= best_score) continue;
    bool free = true;
    for (SegId g = a; free && g <= b; ++g) {
      free = occ.occupant(t, g) == kNoConn;
    }
    if (!free) continue;
    best = t;
    best_score = s;
    if (score == FitScore::kFirstFit) break;
  }
  return best;
}

ValidationResult validate(const SegmentedChannel& ch, const ConnectionSet& cs,
                          const Routing& r, std::optional<int> max_segments,
                          bool require_complete) {
  auto fail = [](std::string msg) {
    return ValidationResult{false, std::move(msg)};
  };
  if (r.size() != cs.size()) {
    return fail("routing size " + std::to_string(r.size()) +
                " != connection count " + std::to_string(cs.size()));
  }
  if (cs.max_right() > ch.width()) {
    return fail("connections extend past channel width");
  }
  Occupancy occ(ch);
  for (ConnId i = 0; i < cs.size(); ++i) {
    const TrackId t = r.track_of(i);
    if (t == kNoTrack) {
      if (require_complete) {
        return fail("connection " + std::to_string(i) + " unassigned");
      }
      continue;
    }
    if (t < 0 || t >= ch.num_tracks()) {
      return fail("connection " + std::to_string(i) + " assigned to bad track " +
                  std::to_string(t));
    }
    const Connection& c = cs[i];
    if (max_segments && segments_used(ch, c, t) > *max_segments) {
      return fail("connection " + std::to_string(i) + " occupies " +
                  std::to_string(segments_used(ch, c, t)) +
                  " segments, limit " + std::to_string(*max_segments));
    }
    if (!occ.place(t, c.left, c.right, i)) {
      return fail("connection " + std::to_string(i) +
                  " conflicts on track " + std::to_string(t));
    }
  }
  return {};
}

}  // namespace segroute
