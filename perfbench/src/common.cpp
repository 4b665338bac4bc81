#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "gen/segmentation.h"
#include "gen/workload.h"

namespace segbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void Samples::add(double value) {
  const std::size_t n = seen_++;
  if (n < kKeep) {
    keep_.push_back(value);
    return;
  }
  rng_ ^= rng_ << 13;  // xorshift64 for the reservoir replacement
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const std::uint64_t j = rng_ % (n + 1);
  if (j < kKeep) keep_[j] = value;
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

SegmentedChannel hot_channel() { return gen::staggered_segmentation(8, 64, 8); }

SegmentedChannel cold_channel() { return gen::staggered_segmentation(8, 96, 8); }

std::vector<ConnectionSet> hot_pool(const SegmentedChannel& ch,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(sub_seed(seed, 1));
  std::vector<ConnectionSet> pool;
  pool.reserve(kHotPool);
  for (int i = 0; i < kHotPool; ++i) {
    pool.push_back(gen::routable_workload(ch, 6, 6.0, rng));
  }
  return pool;
}

std::vector<ConnectionSet> cold_instances(const SegmentedChannel& ch,
                                          std::uint64_t seed, int n) {
  std::mt19937_64 rng(sub_seed(seed, 2));
  std::vector<ConnectionSet> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int m = 24 + static_cast<int>(rng() % 17);
    out.push_back(gen::routable_workload(ch, m, 7.0, rng));
  }
  return out;
}

EditScript::EditScript(std::uint64_t seed, int session, Column width)
    : rng_(sub_seed(seed, 10 + static_cast<std::uint64_t>(session))),
      width_(width) {}

alg::ChannelEdit EditScript::next() {
  const auto span = [&] {
    const Column l = 1 + static_cast<Column>(rng_() % width_);
    const Column len = 1 + static_cast<Column>(rng_() % kEditMaxSpan);
    return std::pair<Column, Column>{l, std::min<Column>(width_, l + len - 1)};
  };
  // Below kEditLiveTarget adds are drawn twice as often as removes, above
  // it removes twice as often as adds, so the live set hovers near the
  // target instead of wandering across [0, cap]: any few hundred edits of
  // any seed see the same fill, which keeps a run's mix of cheap repairs
  // and full-DP fallbacks steady.
  const bool grow = static_cast<int>(live_.size()) < kEditLiveTarget;
  std::uint64_t pick = rng_() % 4;  // 0 add, 1 remove, 2 move, 3 below
  if (pick == 3) pick = grow ? 0 : 1;
  if (live_.empty()) pick = 0;
  if (static_cast<int>(live_.size()) >= kEditLiveCap) pick = 1;
  if (pick == 0) {
    const auto [l, r] = span();
    return alg::ChannelEdit::add(l, r);
  }
  const ConnId victim = live_[rng_() % live_.size()].id;
  if (pick == 1) return alg::ChannelEdit::remove(victim);
  const auto [l, r] = span();
  return alg::ChannelEdit::move(victim, l, r);
}

void EditScript::applied(const alg::ChannelEdit& e,
                         const alg::RepairOutcome& out) {
  if (!out.success) return;
  if (e.kind == alg::ChannelEdit::Kind::kAdd) {
    live_.push_back(Live{out.id, e.left, e.right});
    return;
  }
  const auto it = std::find_if(live_.begin(), live_.end(),
                               [&](const Live& c) { return c.id == e.id; });
  if (e.kind == alg::ChannelEdit::Kind::kRemove) {
    live_.erase(it);
  } else {
    it->left = e.left;
    it->right = e.right;
  }
}

ConnectionSet EditScript::live_set(const alg::ChannelEdit* e) const {
  using Kind = alg::ChannelEdit::Kind;
  ConnectionSet cs;
  for (const Live& c : live_) {
    if (e == nullptr || e->kind == Kind::kAdd || e->id != c.id) {
      cs.add(c.left, c.right);
    } else if (e->kind == Kind::kMove) {
      cs.add(e->left, e->right);
    }
  }
  if (e != nullptr && e->kind == Kind::kAdd) cs.add(e->left, e->right);
  return cs;
}

bool same_spans(const ConnectionSet& a, const ConnectionSet& b) {
  if (a.size() != b.size()) return false;
  for (ConnId i = 0; i < a.size(); ++i) {
    if (a[i].left != b[i].left || a[i].right != b[i].right) return false;
  }
  return true;
}

std::vector<FabricScenario> fabric_scenarios(std::uint64_t seed, int n) {
  std::mt19937_64 rng(sub_seed(seed, 3));
  fpga::DeviceSpec dev;
  dev.rows = 5;
  dev.slots_per_row = 16;
  dev.cell_width = 2;
  std::vector<FabricScenario> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    fpga::Netlist nl = fpga::random_netlist(dev.rows * dev.slots_per_row, 56,
                                            4, dev.slots_per_row, rng);
    fpga::Placement p =
        fpga::random_placement(nl, dev.rows, dev.slots_per_row, rng);
    out.push_back(FabricScenario{dev, std::move(nl), std::move(p)});
  }
  return out;
}

SegmentedChannel fabric_channel(int tracks, Column width) {
  return gen::staggered_segmentation(tracks, width, 6);
}

void Outcome::fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

void metric(const std::string& name, double value, const char* unit,
            std::size_t samples) {
  std::printf("metric\t%s\t%.17g\t%s\t%zu\n", name.c_str(), value, unit,
              samples);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launcher's peak when that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void fact(const std::string& key, const std::string& value) {
  std::printf("fact\t%s\t%s\n", key.c_str(), value.c_str());
}

}  // namespace segbench
