#include "harness/verify.h"

#include <cmath>
#include <vector>

namespace segroute::harness {

const char* to_string(VerifyError e) {
  switch (e) {
    case VerifyError::kOk:
      return "ok";
    case VerifyError::kSizeMismatch:
      return "size-mismatch";
    case VerifyError::kIncomplete:
      return "incomplete";
    case VerifyError::kBadTrack:
      return "bad-track";
    case VerifyError::kUncoveredSpan:
      return "uncovered-span";
    case VerifyError::kOverlap:
      return "overlap";
    case VerifyError::kSegmentLimit:
      return "segment-limit";
    case VerifyError::kWeightMismatch:
      return "weight-mismatch";
  }
  return "?";
}

RouteVerifier::RouteVerifier(const SegmentedChannel& ch,
                             const ConnectionSet& cs)
    : ch_(&ch), cs_(&cs) {}

VerifyResult RouteVerifier::check(const Routing& r,
                                  const VerifyOptions& opts) const {
  auto fail = [](VerifyError e, std::string detail) {
    return VerifyResult{e, std::move(detail)};
  };
  const SegmentedChannel& ch = *ch_;
  const ConnectionSet& cs = *cs_;

  if (r.size() != cs.size()) {
    return fail(VerifyError::kSizeMismatch,
                "routing holds " + std::to_string(r.size()) +
                    " entries for " + std::to_string(cs.size()) +
                    " connections");
  }

  // Independent occupancy: per track, the connection claiming each
  // segment. Deliberately rebuilt here from segment interval arithmetic
  // rather than core's Occupancy.
  std::vector<std::vector<ConnId>> claimed(
      static_cast<std::size_t>(ch.num_tracks()));
  for (TrackId t = 0; t < ch.num_tracks(); ++t) {
    claimed[static_cast<std::size_t>(t)].assign(
        static_cast<std::size_t>(ch.track(t).num_segments()), kNoConn);
  }

  double recomputed_weight = 0.0;
  for (ConnId i = 0; i < cs.size(); ++i) {
    const TrackId t = r.track_of(i);
    if (t == kNoTrack) {
      if (opts.require_complete) {
        return fail(VerifyError::kIncomplete,
                    "connection " + std::to_string(i) + " unassigned");
      }
      continue;
    }
    if (t < 0 || t >= ch.num_tracks()) {
      return fail(VerifyError::kBadTrack,
                  "connection " + std::to_string(i) +
                      " assigned to nonexistent track " + std::to_string(t));
    }
    const Connection& c = cs[i];
    if (c.left < 1 || c.left > c.right || c.right > ch.width()) {
      return fail(VerifyError::kUncoveredSpan,
                  "connection " + std::to_string(i) + " spans [" +
                      std::to_string(c.left) + ", " + std::to_string(c.right) +
                      "] outside channel columns 1.." +
                      std::to_string(ch.width()));
    }
    // Occupied segments: every segment of track t overlapping [l, r].
    // Re-derived by interval scan; also re-checks that they cover the
    // span contiguously (a hole would mean the track cannot carry the
    // connection at all — possible only if the channel's segment
    // invariant broke).
    const Track& tr = ch.track(t);
    int used = 0;
    Column covered_to = c.left - 1;  // columns of [l, r] covered so far
    for (SegId s = 0; s < tr.num_segments(); ++s) {
      const Segment& seg = tr.segment(s);
      if (seg.right < c.left || seg.left > c.right) continue;
      ++used;
      if (seg.left > covered_to + 1) break;  // hole -> caught below
      covered_to = std::max(covered_to, std::min(seg.right, c.right));
      ConnId& owner = claimed[static_cast<std::size_t>(t)]
                             [static_cast<std::size_t>(s)];
      if (owner != kNoConn) {
        return fail(VerifyError::kOverlap,
                    "connections " + std::to_string(owner) + " and " +
                        std::to_string(i) + " both occupy track " +
                        std::to_string(t) + " segment " + std::to_string(s));
      }
      owner = i;
    }
    if (covered_to < c.right) {
      return fail(VerifyError::kUncoveredSpan,
                  "track " + std::to_string(t) + " covers connection " +
                      std::to_string(i) + " only through column " +
                      std::to_string(covered_to) + " of " +
                      std::to_string(c.right));
    }
    if (opts.max_segments > 0 && used > opts.max_segments) {
      return fail(VerifyError::kSegmentLimit,
                  "connection " + std::to_string(i) + " occupies " +
                      std::to_string(used) + " segments, limit " +
                      std::to_string(opts.max_segments));
    }
    if (opts.weight) recomputed_weight += (*opts.weight)(ch, c, t);
  }

  if (opts.weight && opts.expected_weight) {
    if (std::isinf(recomputed_weight) ||
        std::abs(recomputed_weight - *opts.expected_weight) >
            opts.weight_tolerance) {
      return fail(VerifyError::kWeightMismatch,
                  "recomputed weight " + std::to_string(recomputed_weight) +
                      " != reported " + std::to_string(*opts.expected_weight));
    }
  }
  return {};
}

VerifyResult RouteVerifier::check(const alg::RouteResult& r,
                                  VerifyOptions opts) const {
  if (!r.success) {
    return VerifyResult{VerifyError::kIncomplete,
                        "result reports failure (" + std::string(to_string(
                            r.failure)) + "): " + r.note};
  }
  if (opts.weight && !opts.expected_weight) opts.expected_weight = r.weight;
  return check(r.routing, opts);
}

}  // namespace segroute::harness
