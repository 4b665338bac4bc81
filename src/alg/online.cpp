#include "alg/online.h"

#include <algorithm>
#include <string>
#include <utility>

namespace segroute::alg {

OnlineRouter::OnlineRouter(SegmentedChannel channel, Policy policy,
                           int max_segments)
    : channel_(std::make_shared<const SegmentedChannel>(std::move(channel))),
      policy_(policy),
      max_segments_(max_segments),
      occ_(*channel_) {}

RepairOutcome OnlineRouter::apply(const ChannelEdit& edit,
                                  const harness::Budget& budget) {
  RepairOutcome out;
  out.id = edit.id;
  const SegmentedChannel& ch = *channel_;
  if (edit.kind != ChannelEdit::Kind::kRemove &&
      (edit.left < 1 || edit.left > edit.right || edit.right > ch.width())) {
    out.failure = FailureKind::kInvalidInput;
    out.note = std::string("apply: ") + to_string(edit.kind) +
               " with an invalid span";
    return out;
  }
  if (edit.kind != ChannelEdit::Kind::kAdd && !is_placed(edit.id)) {
    out.failure = FailureKind::kInvalidInput;
    out.note = std::string("apply: ") + to_string(edit.kind) +
               " of an unknown or removed id";
    return out;
  }

  // The edited live sequence S' in id order: position p is the edit's, so
  // S' agrees with live_ before p; after p a remove shifts it down one.
  const ConnId target = edit.kind == ChannelEdit::Kind::kAdd
                            ? static_cast<ConnId>(conns_.size())
                            : edit.id;
  const std::size_t n = live_.size();
  const std::size_t p = static_cast<std::size_t>(
      std::lower_bound(live_.begin(), live_.end(), target) - live_.begin());
  std::size_t n_new = n;
  if (edit.kind == ChannelEdit::Kind::kAdd) ++n_new;
  if (edit.kind == ChannelEdit::Kind::kRemove) --n_new;
  const auto id_at = [&](std::size_t j) {
    if (edit.kind == ChannelEdit::Kind::kRemove && j >= p) return live_[j + 1];
    return j < n ? live_[j] : target;
  };
  const auto span_at = [&](std::size_t j) -> std::pair<Column, Column> {
    const ConnId id = id_at(j);
    if (id == target) return {edit.left, edit.right};
    const Connection& c = conns_[static_cast<std::size_t>(id)];
    return {c.left, c.right};
  };
  const auto span_of = [&](ConnId id) {
    const Connection& c = conns_[static_cast<std::size_t>(id)];
    return std::pair<Column, Column>{c.left, c.right};
  };

  // Re-place S' from p when the greedy reached p; a greedy that stranded
  // before p strands S' at the same connection. The old run's placements
  // from p are lifted first. Where S' can see an occupancy the old run
  // did not is kept as segment-closed column ranges (any track): the
  // edited connection's old and new placements, and both placements of
  // any connection that moved. A connection of the old run whose span
  // misses every range sees what it saw then, so it keeps its old track
  // without a best-fit scan.
  const std::size_t placed = greedy_.size();
  suffix_.clear();
  changed_.clear();
  bool greedy_ok = false;
  if (max_segments_ >= 0 && p <= placed) {
    for (std::size_t i = p; i < placed; ++i) {
      const auto [l, r] = span_of(live_[i]);
      occ_.remove(greedy_[i], l, r);
    }
    const auto mark = [&](TrackId t, Column l, Column r) {
      const Track& tr = ch.track(t);
      const auto [a, b] = tr.span(l, r);
      changed_.emplace_back(tr.segment(a).left, tr.segment(b).right);
    };
    const auto unchanged = [&](Column l, Column r) {
      for (const auto& [lo, hi] : changed_) {
        if (l <= hi && lo <= r) return false;
      }
      return true;
    };
    if (p < placed) {
      const auto [l, r] = span_of(live_[p]);
      mark(greedy_[p], l, r);
    }
    const FitScore score = policy_ == Policy::BestFit
                               ? FitScore::kOccupiedLength
                               : FitScore::kFirstFit;
    greedy_ok = true;
    for (std::size_t j = p; j < n_new; ++j) {
      const auto [l, r] = span_at(j);
      const ConnId id = id_at(j);
      // The old run's position of this connection.
      const std::size_t old_j =
          edit.kind == ChannelEdit::Kind::kRemove ? j + 1 : j;
      const bool seen = id != target && old_j < placed;
      TrackId t = seen && unchanged(l, r) ? greedy_[old_j] : kNoTrack;
      if (t == kNoTrack) {
        t = best_fit_track(ch, occ_, l, r, max_segments_, score);
        if (t == kNoTrack) {
          greedy_ok = false;
          break;
        }
        if (!seen || t != greedy_[old_j]) {
          mark(t, l, r);
          if (seen) mark(greedy_[old_j], l, r);
        }
      }
      occ_.place(t, l, r, id);
      suffix_.push_back(t);
    }
  }

  const RouteResult* dp = nullptr;
  CanonicalResult canon;
  if (greedy_ok) {
    out.path = RepairOutcome::Path::kRepair;
  } else {
    ConnectionSet cs;
    for (std::size_t j = 0; j < n_new; ++j) {
      const auto [l, r] = span_at(j);
      cs.add(l, r);
    }
    canon = from_scratch(ch, cs, policy_ == Policy::BestFit, max_segments_,
                         budget);
    out.path = canon.path;
    if (!canon.result.success) {
      out.failure = canon.result.failure == FailureKind::kNone
                        ? FailureKind::kInternal
                        : canon.result.failure;
      out.note = canon.result.note;
      if (edit.kind == ChannelEdit::Kind::kAdd) out.id = kNoConn;
      // Put the greedy's placements from p back as they were.
      if (max_segments_ >= 0 && p <= placed) {
        for (std::size_t k = 0; k < suffix_.size(); ++k) {
          const auto [l, r] = span_at(p + k);
          occ_.remove(suffix_[k], l, r);
        }
        for (std::size_t i = p; i < placed; ++i) {
          const auto [l, r] = span_of(live_[i]);
          occ_.place(greedy_[i], l, r, live_[i]);
        }
      }
      return out;
    }
    dp = &canon.result;
  }

  // Commit. In the greedy regime, positions before p keep their tracks
  // unless the old state was the DP's.
  switch (edit.kind) {
    case ChannelEdit::Kind::kAdd:
      conns_.push_back(Connection{edit.left, edit.right, edit.name});
      track_of_.push_back(kNoTrack);
      break;
    case ChannelEdit::Kind::kRemove:
      track_of_[static_cast<std::size_t>(target)] = kNoTrack;
      break;
    case ChannelEdit::Kind::kMove:
      conns_[static_cast<std::size_t>(target)].left = edit.left;
      conns_[static_cast<std::size_t>(target)].right = edit.right;
      break;
  }
  for (std::size_t j = dp == nullptr && placed == n ? p : 0; j < n_new; ++j) {
    track_of_[static_cast<std::size_t>(id_at(j))] =
        dp != nullptr ? dp->routing.track_of(static_cast<ConnId>(j))
                      : (j < p ? greedy_[j] : suffix_[j - p]);
  }
  if (max_segments_ >= 0 && p <= placed) {
    greedy_.resize(p);
    greedy_.insert(greedy_.end(), suffix_.begin(), suffix_.end());
  }
  if (edit.kind == ChannelEdit::Kind::kAdd) live_.push_back(target);
  if (edit.kind == ChannelEdit::Kind::kRemove) {
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(p));
  }
  out.id = target;
  out.success = true;
  return out;
}

int OnlineRouter::num_placed() const {
  return static_cast<int>(live_.size());
}

bool OnlineRouter::is_placed(ConnId id) const {
  return id >= 0 && id < static_cast<ConnId>(conns_.size()) &&
         track_of_[static_cast<std::size_t>(id)] != kNoTrack;
}

TrackId OnlineRouter::track_of(ConnId id) const {
  if (!is_placed(id)) return kNoTrack;
  return track_of_[static_cast<std::size_t>(id)];
}

const Connection& OnlineRouter::connection(ConnId id) const {
  // Precondition: is_placed(id) — documented in the header.
  return conns_[static_cast<std::size_t>(id)];
}

std::pair<ConnectionSet, Routing> OnlineRouter::snapshot() const {
  ConnectionSet cs;
  std::vector<TrackId> tracks;
  for (const ConnId id : live_) {
    const Connection& c = conns_[static_cast<std::size_t>(id)];
    cs.add(c.left, c.right, c.name);
    tracks.push_back(track_of_[static_cast<std::size_t>(id)]);
  }
  Routing r(cs.size());
  for (ConnId i = 0; i < cs.size(); ++i) {
    r.assign(i, tracks[static_cast<std::size_t>(i)]);
  }
  return {std::move(cs), std::move(r)};
}

}  // namespace segroute::alg
