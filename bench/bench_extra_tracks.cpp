// E7 (intro claim, via [10], [11]): a well-designed segmented channel
// needs only a few tracks more than a freely customized one. Series:
// average minimum tracks vs workload size for each segmentation scheme,
// with the density (= conventional channel tracks) as the baseline.
#include <iostream>
#include <random>

#include "segroute.h"

using namespace segroute;

namespace {

int min_tracks(const ConnectionSet& cs, int limit,
               const alg::ChannelFactory& make) {
  alg::CapacityOptions o;
  o.track_limit = limit;
  return alg::min_tracks(cs, make, o).value_or(limit + 1);
}

}  // namespace

int main() {
  std::mt19937_64 rng(707);
  const Column width = 48;
  const int trials = 12;

  std::cout << "E7 / [10],[11] — extra tracks over the freely customized "
               "channel (avg over " << trials << " random workloads, "
               "geometric net lengths, mean 6)\n\n";

  // Design samples drawn once, as a designer would.
  std::vector<ConnectionSet> samples;
  for (int s = 0; s < 8; ++s) {
    samples.push_back(gen::geometric_workload(30, width, 6.0, rng));
  }

  io::Table t({"M", "density (=conventional)", "designed", "staggered 8",
               "uniform 8", "unsegmented"});
  for (int m : {8, 12, 16, 20, 24}) {
    double dens = 0, designed = 0, staggered = 0, uniform = 0, unseg = 0;
    for (int i = 0; i < trials; ++i) {
      const auto cs = gen::geometric_workload(m, width, 6.0, rng);
      const int limit = 3 * cs.density() + 8;
      dens += cs.density();
      designed += min_tracks(cs, limit, [&](int tt) {
        return gen::design_segmentation(tt, width, samples);
      });
      staggered += min_tracks(cs, limit, [&](int tt) {
        return gen::staggered_segmentation(tt, width, 8);
      });
      uniform += min_tracks(cs, limit, [&](int tt) {
        return gen::uniform_segmentation(tt, width, 8);
      });
      unseg += min_tracks(cs, m, [&](int tt) {
        return SegmentedChannel::unsegmented(tt, width);
      });
    }
    t.add_row({io::Table::num(m), io::Table::num(dens / trials, 1),
               io::Table::num(designed / trials, 1),
               io::Table::num(staggered / trials, 1),
               io::Table::num(uniform / trials, 1),
               io::Table::num(unseg / trials, 1)});
  }
  std::cout << t.str()
            << "\nShape check (paper): designed/staggered channels track the "
               "density within a few tracks at every M; identical uniform "
               "tracks and unsegmented channels fall far behind.\n";
  return 0;
}
