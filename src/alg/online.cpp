#include "alg/online.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "alg/registry.h"

namespace segroute::alg {

OnlineRouter::OnlineRouter(SegmentedChannel channel, Policy policy,
                           int max_segments)
    : channel_(std::move(channel)),
      index_(channel_),
      policy_(policy),
      max_segments_(max_segments),
      occ_(channel_) {}

bool OnlineRouter::feasible_on(const Connection& c, TrackId t) const {
  const auto [a, b] = index_.span(t, c.left, c.right);
  if (max_segments_ > 0 && b - a + 1 > max_segments_) return false;
  for (SegId s = a; s <= b; ++s) {
    if (occ_.occupant(t, s) != kNoConn) return false;
  }
  return true;
}

std::optional<TrackId> OnlineRouter::pick_track(const Connection& c) const {
  std::optional<TrackId> best;
  Column best_len = std::numeric_limits<Column>::max();
  for (TrackId t = 0; t < channel_.num_tracks(); ++t) {
    if (!feasible_on(c, t)) continue;
    if (policy_ == Policy::FirstFit) return t;
    const Column len = index_.occupied_length(t, c.left, c.right);
    if (len < best_len) {
      best_len = len;
      best = t;
    }
  }
  return best;
}

std::optional<ConnId> OnlineRouter::insert(Column left, Column right,
                                           std::string name) {
  Connection c{left, right, std::move(name)};
  if (c.left < 1 || c.left > c.right || c.right > channel_.width()) {
    last_failure_ = FailureKind::kInvalidInput;
    return std::nullopt;
  }
  const auto t = pick_track(c);
  if (!t) {
    last_failure_ = FailureKind::kInfeasible;
    return std::nullopt;
  }
  last_failure_ = FailureKind::kNone;
  const ConnId id = static_cast<ConnId>(conns_.size());
  occ_.place(*t, c.left, c.right, id);
  conns_.push_back(std::move(c));
  track_of_.push_back(*t);
  live_.push_back(true);
  ++num_placed_;
  // A greedy append in id order IS the canonical construction step, so
  // a canonical state stays canonical (and a non-canonical one stays
  // whatever it was).
  return id;
}

std::optional<ConnId> OnlineRouter::insert_with_ripup(Column left, Column right,
                                                      std::string name) {
  if (auto id = insert(left, right, name)) return id;
  if (last_failure_ == FailureKind::kInvalidInput) return std::nullopt;
  const Connection c{left, right, name};
  // Try evicting, per track, every live connection that occupies one of
  // the segments c would need; c must then fit the track and the victim
  // must fit somewhere else.
  for (TrackId t = 0; t < channel_.num_tracks(); ++t) {
    const auto [a, b] = index_.span(t, c.left, c.right);
    if (max_segments_ > 0 && b - a + 1 > max_segments_) continue;
    // Collect distinct blockers on this track.
    std::vector<ConnId> blockers;
    for (SegId s = a; s <= b; ++s) {
      const ConnId o = occ_.occupant(t, s);
      if (o != kNoConn &&
          (blockers.empty() || blockers.back() != o)) {
        blockers.push_back(o);
      }
    }
    if (blockers.size() != 1) continue;  // single-victim rip-up only
    const ConnId victim = blockers.front();
    const Connection vc = conns_[static_cast<std::size_t>(victim)];
    // Tentatively evict.
    occ_.remove(track_of_[static_cast<std::size_t>(victim)], vc.left, vc.right);
    if (feasible_on(c, t)) {
      // Place the new connection, then find the victim a new home.
      const ConnId id = static_cast<ConnId>(conns_.size());
      occ_.place(t, c.left, c.right, id);
      const auto new_home = pick_track(vc);
      if (new_home) {
        conns_.push_back(c);
        track_of_.push_back(t);
        live_.push_back(true);
        ++num_placed_;
        occ_.place(*new_home, vc.left, vc.right, victim);
        track_of_[static_cast<std::size_t>(victim)] = *new_home;
        last_failure_ = FailureKind::kNone;
        greedy_canonical_ = false;  // eviction breaks the id-order build
        return id;
      }
      occ_.remove(t, c.left, c.right);  // undo the tentative placement
    }
    // Restore the victim.
    occ_.place(track_of_[static_cast<std::size_t>(victim)], vc.left, vc.right,
               victim);
  }
  return std::nullopt;
}

bool OnlineRouter::remove(ConnId id) {
  if (!is_placed(id)) return false;
  const Connection& c = conns_[static_cast<std::size_t>(id)];
  occ_.remove(track_of_[static_cast<std::size_t>(id)], c.left, c.right);
  live_[static_cast<std::size_t>(id)] = false;
  track_of_[static_cast<std::size_t>(id)] = kNoTrack;
  --num_placed_;
  last_failure_ = FailureKind::kNone;
  greedy_canonical_ = false;  // survivors were placed around the hole
  return true;
}

TrackId OnlineRouter::reroute(ConnId id) {
  if (!is_placed(id)) return kNoTrack;
  const Connection c = conns_[static_cast<std::size_t>(id)];
  const TrackId old = track_of_[static_cast<std::size_t>(id)];
  occ_.remove(old, c.left, c.right);
  const auto t = pick_track(c);  // old track is free again, so always set
  occ_.place(*t, c.left, c.right, id);
  track_of_[static_cast<std::size_t>(id)] = *t;
  last_failure_ = FailureKind::kNone;
  greedy_canonical_ = false;  // out-of-order re-placement
  return *t;
}

void OnlineRouter::close_over_segments(Column& lo, Column& hi) const {
  lo = std::max<Column>(1, lo);
  hi = std::min(channel_.width(), hi);
  bool changed = true;
  while (changed) {
    changed = false;
    for (TrackId t = 0; t < index_.num_tracks(); ++t) {
      const Column l = index_.seg_left(t, index_.segment_at(t, lo));
      const Column r = index_.seg_right(t, index_.segment_at(t, hi));
      if (l < lo) {
        lo = l;
        changed = true;
      }
      if (r > hi) {
        hi = r;
        changed = true;
      }
    }
  }
}

bool OnlineRouter::repair_window(Column lo, Column hi, RepairOutcome& out) {
  close_over_segments(lo, hi);
  // Cascade: the window must contain the full span of every connection
  // it touches (so their candidate segments all lie inside it), and stay
  // segment-closed. Grow to the joint fixpoint.
  bool grew = true;
  while (grew) {
    grew = false;
    for (ConnId id = 0; id < static_cast<ConnId>(conns_.size()); ++id) {
      if (!live_[static_cast<std::size_t>(id)]) continue;
      const Connection& c = conns_[static_cast<std::size_t>(id)];
      if (c.left > hi || c.right < lo) continue;
      if (c.left < lo) {
        lo = c.left;
        grew = true;
      }
      if (c.right > hi) {
        hi = c.right;
        grew = true;
      }
    }
    if (grew) close_over_segments(lo, hi);
  }
  out.affected_lo = lo;
  out.affected_hi = hi;

  // Affected = live connections inside the closed window. Everything
  // else provably keeps its canonical placement: its candidate segments
  // are disjoint from the window (the window is segment-closed), and
  // affected connections only ever occupy segments inside it.
  std::vector<ConnId> affected;
  std::vector<TrackId> prev;
  for (ConnId id = 0; id < static_cast<ConnId>(conns_.size()); ++id) {
    if (!live_[static_cast<std::size_t>(id)]) continue;
    const Connection& c = conns_[static_cast<std::size_t>(id)];
    if (c.left > hi || c.right < lo) continue;
    affected.push_back(id);
    prev.push_back(track_of_[static_cast<std::size_t>(id)]);
  }
  for (std::size_t i = 0; i < affected.size(); ++i) {
    const ConnId id = affected[i];
    if (prev[i] == kNoTrack) continue;  // the edited conn, not yet placed
    const Connection& c = conns_[static_cast<std::size_t>(id)];
    occ_.remove(prev[i], c.left, c.right);
    track_of_[static_cast<std::size_t>(id)] = kNoTrack;
    --num_placed_;
  }
  // Re-place in increasing id order — exactly the canonical greedy
  // replay, restricted to the window.
  for (std::size_t i = 0; i < affected.size(); ++i) {
    const ConnId id = affected[i];
    const Connection& c = conns_[static_cast<std::size_t>(id)];
    ++out.reconsidered;
    const auto t = pick_track(c);
    if (!t) return false;
    occ_.place(*t, c.left, c.right, id);
    track_of_[static_cast<std::size_t>(id)] = *t;
    ++num_placed_;
    if (prev[i] != kNoTrack && prev[i] != *t) ++out.moved;
  }
  return true;
}

bool OnlineRouter::full_dp(const harness::Budget& budget, RepairOutcome& out) {
  ConnectionSet cs;
  std::vector<ConnId> ids;
  for (ConnId id = 0; id < static_cast<ConnId>(conns_.size()); ++id) {
    if (!live_[static_cast<std::size_t>(id)]) continue;
    const Connection& c = conns_[static_cast<std::size_t>(id)];
    cs.add(c.left, c.right, c.name);
    ids.push_back(id);
  }
  RouteRequest rq;
  rq.channel = &channel_;
  rq.connections = &cs;
  rq.options.max_segments = max_segments_;
  rq.budget = budget;
  const RouteResult res = route("dp", rq);
  if (!res.success) {
    out.failure = res.failure == FailureKind::kNone ? FailureKind::kInternal
                                                    : res.failure;
    out.note = res.note;
    return false;
  }
  occ_.reset();
  num_placed_ = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const ConnId id = ids[i];
    const Connection& c = conns_[static_cast<std::size_t>(id)];
    const TrackId t = res.routing.track_of(static_cast<ConnId>(i));
    occ_.place(t, c.left, c.right, id);
    track_of_[static_cast<std::size_t>(id)] = t;
    ++num_placed_;
  }
  greedy_canonical_ = false;
  out.success = true;
  out.path = RepairOutcome::Path::kFullDp;
  out.affected_lo = 1;
  out.affected_hi = channel_.width();
  out.reconsidered = static_cast<int>(ids.size());
  return true;
}

OnlineRouter::Memento OnlineRouter::save_state() const {
  return Memento{conns_, track_of_, live_, occ_, num_placed_,
                 greedy_canonical_};
}

void OnlineRouter::restore_state(Memento&& m) {
  conns_ = std::move(m.conns);
  track_of_ = std::move(m.track_of);
  live_ = std::move(m.live);
  occ_ = std::move(m.occ);
  num_placed_ = m.num_placed;
  greedy_canonical_ = m.greedy_canonical;
}

RepairOutcome OnlineRouter::apply(const ChannelEdit& edit,
                                  const harness::Budget& budget) {
  RepairOutcome out;
  out.id = edit.id;
  if (edit.kind != ChannelEdit::Kind::kRemove &&
      (edit.left < 1 || edit.left > edit.right ||
       edit.right > channel_.width())) {
    out.failure = FailureKind::kInvalidInput;
    out.note = std::string("apply: ") + to_string(edit.kind) +
               " with an invalid span";
    last_failure_ = FailureKind::kInvalidInput;
    return out;
  }
  if (edit.kind != ChannelEdit::Kind::kAdd && !is_placed(edit.id)) {
    out.failure = FailureKind::kInvalidInput;
    out.note = std::string("apply: ") + to_string(edit.kind) +
               " of an unknown or removed id";
    last_failure_ = FailureKind::kInvalidInput;
    return out;
  }

  // Fast path: appending to a canonical greedy state IS one canonical
  // construction step — nothing else can be affected.
  if (edit.kind == ChannelEdit::Kind::kAdd && greedy_canonical_) {
    Connection c{edit.left, edit.right, edit.name};
    if (const auto t = pick_track(c)) {
      const ConnId id = static_cast<ConnId>(conns_.size());
      occ_.place(*t, c.left, c.right, id);
      conns_.push_back(std::move(c));
      track_of_.push_back(*t);
      live_.push_back(true);
      ++num_placed_;
      out.id = id;
      out.success = true;
      out.path = RepairOutcome::Path::kRepair;
      Column lo = edit.left;
      Column hi = edit.right;
      close_over_segments(lo, hi);
      out.affected_lo = lo;
      out.affected_hi = hi;
      out.reconsidered = 1;
      last_failure_ = FailureKind::kNone;
      return out;
    }
    // Greedy fails on the appended sequence, so canonical(S') is the
    // DP's answer (or the edit is infeasible).
  }

  Memento snap = save_state();

  // Apply the structural edit; remember which columns it dirtied.
  Column lo = 1;
  Column hi = channel_.width();
  switch (edit.kind) {
    case ChannelEdit::Kind::kAdd: {
      out.id = static_cast<ConnId>(conns_.size());
      conns_.push_back(Connection{edit.left, edit.right, edit.name});
      track_of_.push_back(kNoTrack);
      live_.push_back(true);
      lo = edit.left;
      hi = edit.right;
      break;
    }
    case ChannelEdit::Kind::kRemove: {
      const Connection c = conns_[static_cast<std::size_t>(edit.id)];
      occ_.remove(track_of_[static_cast<std::size_t>(edit.id)], c.left,
                  c.right);
      track_of_[static_cast<std::size_t>(edit.id)] = kNoTrack;
      live_[static_cast<std::size_t>(edit.id)] = false;
      --num_placed_;
      lo = c.left;
      hi = c.right;
      break;
    }
    case ChannelEdit::Kind::kMove: {
      const Connection old = conns_[static_cast<std::size_t>(edit.id)];
      occ_.remove(track_of_[static_cast<std::size_t>(edit.id)], old.left,
                  old.right);
      track_of_[static_cast<std::size_t>(edit.id)] = kNoTrack;
      --num_placed_;
      conns_[static_cast<std::size_t>(edit.id)].left = edit.left;
      conns_[static_cast<std::size_t>(edit.id)].right = edit.right;
      lo = std::min(old.left, edit.left);
      hi = std::max(old.right, edit.right);
      break;
    }
  }
  // A non-canonical state (DP regime, or legacy mutators ran) gives the
  // localized argument nothing to stand on: renormalize over the full
  // width — still the greedy path, just with an everything-window.
  if (!greedy_canonical_) {
    lo = 1;
    hi = channel_.width();
  }

  if (repair_window(lo, hi, out)) {
    greedy_canonical_ = true;
    out.success = true;
    out.path = RepairOutcome::Path::kRepair;
    last_failure_ = FailureKind::kNone;
    return out;
  }
  // The localized replay reproduces the canonical greedy decisions
  // exactly, so its failure proves the full greedy replay fails too:
  // canonical(S') is the DP regime.
  if (full_dp(budget, out)) {
    last_failure_ = FailureKind::kNone;
    return out;
  }
  restore_state(std::move(snap));
  out.success = false;
  out.path = RepairOutcome::Path::kFullDp;
  if (edit.kind == ChannelEdit::Kind::kAdd) out.id = kNoConn;
  last_failure_ = out.failure;
  return out;
}

bool OnlineRouter::is_placed(ConnId id) const {
  return id >= 0 && id < static_cast<ConnId>(conns_.size()) &&
         live_[static_cast<std::size_t>(id)];
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
  for (ConnId id = 0; id < static_cast<ConnId>(conns_.size()); ++id) {
    if (!live_[static_cast<std::size_t>(id)]) continue;
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
