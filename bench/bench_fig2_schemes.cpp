// E1 (Fig. 2): the same four connections routed under every channel
// organization the paper compares: (b) freely customized, (c) fully
// segmented, (d) unsegmented, (e) segmented for 1-segment routing,
// (f) segmented for 2-segment routing.
#include <iostream>

#include "segroute.h"

using namespace segroute;

namespace {

int min_tracks_for(const ConnectionSet& cs, int limit,
                   const alg::ChannelFactory& make, int max_segments = 0) {
  alg::CapacityOptions o;
  o.max_segments = max_segments;
  o.track_limit = limit;
  return alg::min_tracks(cs, make, o).value_or(-1);
}

}  // namespace

int main() {
  const auto cs = gen::fixtures::fig2_connections();
  std::cout << "E1 / Fig. 2 — one workload, five channel organizations\n\n"
            << io::render(cs, 9) << "\n";

  io::Table t({"scheme", "fig", "tracks", "max seg/conn", "note"});

  // (b) freely customized: left-edge uses exactly density tracks.
  t.add_row({"freely customized", "2(b)", io::Table::num(cs.density()), "1",
             "density = " + std::to_string(cs.density())});

  // (c) fully segmented: same track count as (b) but a switch at every
  // column gap — max delay through many switches.
  const int full = min_tracks_for(cs, 16, [](int tt) {
    return SegmentedChannel::fully_segmented(tt, 9);
  });
  int worst_segs = 0;
  {
    const auto ch = SegmentedChannel::fully_segmented(full, 9);
    const auto r = alg::dp_route_unlimited(ch, cs);
    for (ConnId i = 0; i < cs.size(); ++i) {
      worst_segs = std::max(
          worst_segs, segments_used(ch, cs[i], r.routing.track_of(i)));
    }
  }
  t.add_row({"fully segmented", "2(c)", io::Table::num(full),
             io::Table::num(worst_segs), "every cross-point switched"});

  // (d) unsegmented: one net per track.
  const int unseg = min_tracks_for(cs, 16, [](int tt) {
    return SegmentedChannel::unsegmented(tt, 9);
  });
  t.add_row({"unsegmented", "2(d)", io::Table::num(unseg), "1",
             "one net per continuous track"});

  // (e) segmented for 1-segment routing.
  {
    const auto ch = gen::fixtures::fig2_channel_1segment();
    const auto r = alg::greedy1_route(ch, cs);
    t.add_row({"designed, K = 1", "2(e)",
               io::Table::num(static_cast<int>(ch.num_tracks())), "1",
               r.success ? "each net in one segment" : "FAILED"});
  }

  // (f) uniformly segmented, K = 2.
  {
    const auto ch = gen::fixtures::fig2_channel_2segment();
    const auto r = alg::dp_route_ksegment(ch, cs, 2);
    int segs = 0;
    for (ConnId i = 0; i < cs.size(); ++i) {
      segs = std::max(segs, segments_used(ch, cs[i], r.routing.track_of(i)));
    }
    t.add_row({"uniform, K = 2", "2(f)",
               io::Table::num(static_cast<int>(ch.num_tracks())),
               io::Table::num(segs),
               r.success ? "adjacent segments joined by a switch" : "FAILED"});
  }

  std::cout << t.str()
            << "\nShape check (paper): (b) and well-designed (e)/(f) use "
               "density tracks; (d) needs one track per net; (c) matches "
               "(b) in tracks but maximizes switches in series.\n";
  return 0;
}
