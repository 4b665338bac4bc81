#include "net/express.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/routing.h"
#include "core/thread_scratch.h"

namespace segroute::net {

std::vector<Message> uniform_traffic(int pes, int count, std::mt19937_64& rng) {
  if (pes < 2 || count < 0) {
    throw std::invalid_argument("uniform_traffic: bad parameters");
  }
  std::uniform_int_distribution<int> pe(1, pes);
  std::vector<Message> msgs;
  msgs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    int a = pe(rng), b = pe(rng);
    while (b == a) b = pe(rng);
    msgs.push_back(Message{a, b});
  }
  return msgs;
}

std::vector<Message> neighbor_traffic(int pes, int count, std::mt19937_64& rng) {
  if (pes < 2 || count < 0) {
    throw std::invalid_argument("neighbor_traffic: bad parameters");
  }
  std::uniform_int_distribution<int> pe(1, pes - 1);
  std::vector<Message> msgs;
  msgs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int a = pe(rng);
    msgs.push_back(Message{a, a + 1});
  }
  return msgs;
}

std::vector<Message> bit_reversal_traffic(int pes) {
  // Classic permutation: PE i talks to bit-reverse(i) over the largest
  // power of two that fits. Requires pes >= 2.
  if (pes < 2) {
    throw std::invalid_argument("bit_reversal_traffic: need >= 2 PEs");
  }
  int bits = 0;
  while ((2 << bits) <= pes) ++bits;
  const int n = 1 << bits;
  std::vector<Message> msgs;
  for (int i = 0; i < n; ++i) {
    int rev = 0;
    for (int b = 0; b < bits; ++b) {
      if (i & (1 << b)) rev |= 1 << (bits - 1 - b);
    }
    if (rev != i) msgs.push_back(Message{i + 1, rev + 1});
  }
  return msgs;
}

SegmentedChannel local_channel(int tracks, int pes) {
  return SegmentedChannel::fully_segmented(tracks, pes);
}

SegmentedChannel bus_channel(int tracks, int pes) {
  return SegmentedChannel::unsegmented(tracks, pes);
}

SegmentedChannel express_channel(int tracks, int pes, Column express_len) {
  if (tracks < 2 || pes < 2 || express_len < 2) {
    throw std::invalid_argument("express_channel: bad parameters");
  }
  std::vector<Track> ts;
  for (int t = 0; t < tracks; ++t) {
    if (t % 2 == 0) {
      ts.push_back(Track::fully_segmented(pes));  // local lane
    } else {
      // Express lane, staggered across express tracks.
      std::vector<Column> cuts;
      const Column offset =
          static_cast<Column>((t / 2) % express_len) * (express_len / 2) %
              express_len +
          1;
      for (Column c = offset; c < pes; c += express_len) {
        if (c >= 1) cuts.push_back(c);
      }
      ts.emplace_back(pes, std::move(cuts));
    }
  }
  return SegmentedChannel(std::move(ts));
}

NetworkReport offer_traffic(const SegmentedChannel& ch,
                            const std::vector<Message>& msgs,
                            const fpga::DelayParams& params) {
  NetworkReport rep;
  rep.offered = static_cast<int>(msgs.size());
  // Sort by left end (the channel routers' processing order).
  std::vector<Message> sorted = msgs;
  std::sort(sorted.begin(), sorted.end(), [](const Message& a, const Message& b) {
    return std::min(a.src, a.dst) < std::min(b.src, b.dst);
  });
  for (const Message& m : sorted) {
    if (std::min(m.src, m.dst) < 1 ||
        std::max(m.src, m.dst) > static_cast<int>(ch.width())) {
      rep = NetworkReport{};
      rep.offered = static_cast<int>(msgs.size());
      rep.failure = alg::FailureKind::kInvalidInput;
      rep.note = "offer_traffic: message beyond channel";
      return rep;
    }
  }
  Occupancy occ(ch);
  double lat_sum = 0.0, sw_sum = 0.0;
  ConnId next_id = 0;
  for (const Message& m : sorted) {
    const Column lo = static_cast<Column>(std::min(m.src, m.dst));
    const Column hi = static_cast<Column>(std::max(m.src, m.dst));
    // Prefer the track minimizing occupied segment count, then length —
    // an express lane for long-haul, a local lane for neighbors.
    TrackId best = kNoTrack;
    int best_segs = 0;
    Column best_len = 0;
    for (TrackId t = 0; t < ch.num_tracks(); ++t) {
      if (!occ.fits(t, lo, hi)) continue;
      const int segs = ch.track(t).segments_spanned(lo, hi);
      const Column len = ch.track(t).occupied_length(lo, hi);
      if (best == kNoTrack || segs < best_segs ||
          (segs == best_segs && len < best_len)) {
        best = t;
        best_segs = segs;
        best_len = len;
      }
    }
    if (best == kNoTrack) continue;  // dropped
    occ.place(best, lo, hi, next_id++);
    ++rep.delivered;
    const Connection conn{lo, hi, ""};
    lat_sum += fpga::connection_delay(ch, conn, best, params);
    sw_sum += 1.0 + best_segs;  // entry + exit + joins
    rep.max_latency = std::max(
        rep.max_latency, fpga::connection_delay(ch, conn, best, params));
  }
  if (rep.delivered > 0) {
    rep.mean_latency = lat_sum / rep.delivered;
    rep.mean_switches = sw_sum / rep.delivered;
  }
  return rep;
}

alg::RouteResult express_route(const SegmentedChannel& ch,
                               const ConnectionSet& cs, int max_segments) {
  alg::RouteResult res;
  res.routing = Routing(cs.size());
  if (cs.max_right() > ch.width()) {
    res.fail(alg::FailureKind::kInvalidInput,
             "connections exceed channel width");
    return res;
  }
  ThreadScratch<Occupancy> scratch;
  Occupancy& occ = scratch.get();
  occ.rebind(ch);
  for (ConnId i : cs.sorted_by_left()) {
    const Connection& c = cs[i];
    TrackId best = kNoTrack;
    int best_segs = 0;
    Column best_len = 0;
    for (TrackId t = 0; t < ch.num_tracks(); ++t) {
      const Track& tr = ch.track(t);
      const int segs = tr.segments_spanned(c.left, c.right);
      if (max_segments > 0 && segs > max_segments) continue;
      if (!occ.fits(t, c.left, c.right)) continue;
      const Column len = tr.occupied_length(c.left, c.right);
      if (best == kNoTrack || segs < best_segs ||
          (segs == best_segs && len < best_len)) {
        best = t;
        best_segs = segs;
        best_len = len;
      }
    }
    if (best == kNoTrack) {
      res.fail(alg::FailureKind::kInfeasible,
               "no feasible track for connection " + std::to_string(i));
      return res;
    }
    occ.place(best, c.left, c.right, i);
    res.routing.assign(i, best);
  }
  res.success = true;
  return res;
}

}  // namespace segroute::net
