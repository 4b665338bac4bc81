#include "alg/online.h"

#include <algorithm>
#include <string>
#include <utility>

namespace segroute::alg {

OnlineRouter::OnlineRouter(SegmentedChannel channel, Policy policy,
                           int max_segments)
    : channel_(std::move(channel)),
      policy_(policy),
      max_segments_(max_segments) {}

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
    return out;
  }
  if (edit.kind != ChannelEdit::Kind::kAdd && !is_placed(edit.id)) {
    out.failure = FailureKind::kInvalidInput;
    out.note = std::string("apply: ") + to_string(edit.kind) +
               " of an unknown or removed id";
    return out;
  }

  // The edited live sequence in id order; ids[i] is the id of cs[i].
  const ConnId target = edit.kind == ChannelEdit::Kind::kAdd
                            ? static_cast<ConnId>(conns_.size())
                            : edit.id;
  ConnectionSet cs;
  std::vector<ConnId> ids;
  for (ConnId id = 0; id < static_cast<ConnId>(conns_.size()); ++id) {
    if (!is_placed(id)) continue;
    if (id == target) {
      if (edit.kind == ChannelEdit::Kind::kRemove) continue;
      cs.add(edit.left, edit.right);
    } else {
      const Connection& c = conns_[static_cast<std::size_t>(id)];
      cs.add(c.left, c.right);
    }
    ids.push_back(id);
  }
  if (edit.kind == ChannelEdit::Kind::kAdd) {
    cs.add(edit.left, edit.right);
    ids.push_back(target);
  }

  const CanonicalResult canon = from_scratch(
      channel_, cs, policy_ == Policy::BestFit, max_segments_, budget);
  if (!canon.result.success) {
    out.path = RepairOutcome::Path::kFullDp;
    out.failure = canon.result.failure == FailureKind::kNone
                      ? FailureKind::kInternal
                      : canon.result.failure;
    out.note = canon.result.note;
    if (edit.kind == ChannelEdit::Kind::kAdd) out.id = kNoConn;
    return out;
  }

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
  for (std::size_t i = 0; i < ids.size(); ++i) {
    track_of_[static_cast<std::size_t>(ids[i])] =
        canon.result.routing.track_of(static_cast<ConnId>(i));
  }
  out.id = target;
  out.success = true;
  out.path = canon.regime == CanonicalRegime::kGreedy
                 ? RepairOutcome::Path::kRepair
                 : RepairOutcome::Path::kFullDp;
  return out;
}

int OnlineRouter::num_placed() const {
  return static_cast<int>(std::count_if(
      track_of_.begin(), track_of_.end(),
      [](TrackId t) { return t != kNoTrack; }));
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
  for (ConnId id = 0; id < static_cast<ConnId>(conns_.size()); ++id) {
    if (!is_placed(id)) continue;
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
