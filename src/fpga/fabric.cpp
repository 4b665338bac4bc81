#include "fpga/fabric.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "alg/decompose.h"
#include "core/channel_index.h"
#include "obs/instrument.h"

namespace segroute::fpga {

namespace {

// Negotiation factors (fabric.h): the present-congestion factor P of the
// assignment cost, the history increment per unit of overuse on a failed
// channel's columns (PathFinder's h_n accumulation), the sub-gradient
// step of the per-(channel, track-class) Lagrangian multipliers, and the
// class utilization above which a routed channel's class is priced
// (fraction of the class's member tracks).
constexpr double kPresentFactor = 2.0;
constexpr double kHistoryGain = 1.0;
constexpr double kLambdaStep = 0.25;
constexpr double kLambdaCapacitySlack = 0.9;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

// One net's trunk: physical span, extended span (the Section IV-A
// capacity coordinates), and the adjacent-channel range it may live in.
struct Trunk {
  int net = -1;
  Column left = 0, right = 0;    // physical span (routed coordinates)
  Column eleft = 0, eright = 0;  // extended to segment boundaries
  int ch_lo = 0, ch_hi = 0;      // candidate channels [ch_lo, ch_hi]
};

// The placement check shared by route() and min_fabric_tracks(): the
// placement's grid is the device's and every netlist cell sits on it, so
// each pin column lies in [1, width] and each channel in [0, rows].
bool placement_fits(const DeviceSpec& dev, const Netlist& nl,
                    const Placement& p) {
  if (dev.cell_width < 1 || p.rows != dev.rows ||
      p.slots_per_row != dev.slots_per_row ||
      static_cast<int>(p.pos.size()) < nl.num_cells()) {
    return false;
  }
  for (int cell = 0; cell < nl.num_cells(); ++cell) {
    const int row = p.row_of(cell);
    const int slot = p.slot_of(cell);
    if (row < 0 || row >= dev.rows || slot < 0 || slot >= dev.slots_per_row) {
      return false;
    }
  }
  return true;
}

// The trunk geometry that depends on the placement alone: physical span
// over the pin columns and the adjacent-channel range. Extended spans
// depend on the substrate; route() fills them in.
std::vector<Trunk> physical_trunks(const DeviceSpec& dev, const Netlist& nl,
                                   const Placement& p) {
  std::vector<Trunk> trunks;
  trunks.reserve(static_cast<std::size_t>(nl.num_nets()));
  for (int n = 0; n < nl.num_nets(); ++n) {
    const CellNet& net = nl.net(n);
    if (net.cells.empty()) continue;  // channel_of_net stays -1
    Trunk t;
    t.net = n;
    t.left = dev.columns();
    t.right = 1;
    t.ch_lo = dev.rows;
    t.ch_hi = 0;
    for (int cell : net.cells) {
      const Column col = dev.pin_column(p.slot_of(cell));
      t.left = std::min(t.left, col);
      t.right = std::max(t.right, col);
      t.ch_lo = std::min(t.ch_lo, p.row_of(cell));
      t.ch_hi = std::max(t.ch_hi, p.row_of(cell));
    }
    t.ch_hi += 1;  // row r touches channels r (above) and r+1 (below)
    trunks.push_back(t);
  }
  return trunks;
}

// Hall's condition per column: a trunk over column x takes a track at x
// in one channel of its range, so the trunks over x whose whole range
// lies inside a channel interval [a, b] need ceil(count / (b - a + 1))
// tracks. Every range is an interval, so checking intervals checks every
// subset. Returns the largest need, at least 1.
int hall_bound(const std::vector<Trunk>& trunks, int channels, Column width) {
  const auto C = static_cast<std::size_t>(channels);
  // cnt[x][lo][hi]: trunks over column x with channel range [lo, hi].
  std::vector<int> cnt((static_cast<std::size_t>(width) + 1) * C * C, 0);
  const auto at = [&](Column x, int lo, int hi) -> int& {
    return cnt[(static_cast<std::size_t>(x) * C + static_cast<std::size_t>(lo)) * C +
               static_cast<std::size_t>(hi)];
  };
  for (const Trunk& t : trunks) {
    for (Column x = t.left; x <= t.right; ++x) ++at(x, t.ch_lo, t.ch_hi);
  }
  int bound = 1;
  for (Column x = 1; x <= width; ++x) {
    // In place, a descending and b ascending, at(x, a, b) becomes the
    // count of ranges inside [a, b] by inclusion-exclusion. Entries with
    // lo > hi (the empty interval [a + 1, a]) are never written: zero.
    for (int a = channels - 1; a >= 0; --a) {
      for (int b = a; b < channels; ++b) {
        int& s = at(x, a, b);
        if (b > a) s += at(x, a + 1, b) + at(x, a, b - 1) - at(x, a + 1, b - 1);
        bound = std::max(bound, (s + b - a) / (b - a + 1));
      }
    }
  }
  return bound;
}

// Fingerprint of a per-track price table, quantized so that bit-equal
// behavior maps to one tag. Never returns 0 (the reserved "untagged"
// value that bypasses the engine cache).
std::uint64_t price_tag(const std::vector<double>& price) {
  std::uint64_t h = kFnvOffset;
  for (double p : price) {
    h = fnv_mix(h, static_cast<std::uint64_t>(std::llround(p * 1e9)));
  }
  return h == 0 ? 1 : h;
}

}  // namespace

FabricRouter::FabricRouter(
    const DeviceSpec& dev, const Netlist& nl, const Placement& p,
    std::function<SegmentedChannel(int tracks, Column width)> make_channel)
    : dev_(dev), nl_(&nl), p_(&p), make_channel_(std::move(make_channel)) {}

FabricResult FabricRouter::route(int tracks, const FabricOptions& opts) const {
  SEGROUTE_SPAN(fabric_span, "fabric.route", "tracks",
                static_cast<std::uint64_t>(tracks > 0 ? tracks : 0));
  SEGROUTE_COUNT("fabric.routes", 1);

  FabricResult res;
  const int C = dev_.num_channels();
  const Column width = dev_.columns();
  res.channel_of_net.assign(static_cast<std::size_t>(nl_->num_nets()), -1);
  res.per_channel.assign(static_cast<std::size_t>(C), {});
  res.net_of_conn.assign(static_cast<std::size_t>(C), {});
  res.routings.assign(static_cast<std::size_t>(C), Routing{});
  res.channels.assign(static_cast<std::size_t>(C), {});
  for (int c = 0; c < C; ++c) res.channels[static_cast<std::size_t>(c)].channel = c;

  if (tracks < 1) {
    res.note = "fabric: tracks must be >= 1";
    return res;
  }
  if (!make_channel_) {
    res.note = "fabric: no channel factory";
    return res;
  }
  if (!placement_fits(dev_, *nl_, *p_)) {
    res.note = "fabric: placement grid != device grid";
    return res;
  }
  const SegmentedChannel sub = make_channel_(tracks, width);
  if (sub.width() != width || sub.num_tracks() != tracks) {
    res.note = "fabric: channel factory shape mismatch";
    return res;
  }

  // --- Trunk geometry (once per route): physical spans and channel
  // ranges from the placement, extended spans from the substrate's
  // segment boundaries.
  const ChannelIndex idx(sub);
  const int ntypes = idx.num_types();
  std::vector<Trunk> trunks = physical_trunks(dev_, *nl_, *p_);
  for (Trunk& t : trunks) {
    // Extended span: widen to the segment boundaries of the track class
    // that extends the net least (ties to the lowest class id).
    Column best_len = std::numeric_limits<Column>::max();
    for (int ty = 0; ty < ntypes; ++ty) {
      const TrackId rep = idx.representative(ty);
      const Column el = idx.seg_left(rep, idx.segment_at(rep, t.left));
      const Column er = idx.seg_right(rep, idx.segment_at(rep, t.right));
      if (er - el < best_len) {
        best_len = er - el;
        t.eleft = el;
        t.eright = er;
      }
    }
  }
  // Assignment order: longest physical span first (fewest good homes),
  // net id breaking ties — fixed across iterations, threads, cache modes.
  std::vector<int> order(trunks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const Trunk& ta = trunks[static_cast<std::size_t>(a)];
    const Trunk& tb = trunks[static_cast<std::size_t>(b)];
    if (ta.right - ta.left != tb.right - tb.left) {
      return ta.right - ta.left > tb.right - tb.left;
    }
    return ta.net < tb.net;
  });

  // --- Negotiation state.
  const int max_iter = std::max(1, opts.max_iterations);
  std::vector<std::vector<double>> h(
      static_cast<std::size_t>(C),
      std::vector<double>(static_cast<std::size_t>(width) + 1, 0.0));
  std::vector<std::vector<double>> lam(
      static_cast<std::size_t>(C),
      std::vector<double>(static_cast<std::size_t>(ntypes), 0.0));
  std::vector<std::vector<int>> demand(
      static_cast<std::size_t>(C),
      std::vector<int>(static_cast<std::size_t>(width) + 1, 0));

  // --- One shared engine for the whole fabric: all channels route on the
  // same substrate, so every part everywhere shares one fingerprint and
  // one sharded memo cache.
  engine::BatchOptions bo;
  bo.threads = opts.threads;
  bo.use_cache = opts.use_cache;
  bo.cache_capacity = opts.cache_capacity;
  bo.cache_shards = opts.cache_shards;
  engine::BatchRouter eng(sub, bo);

  // Deterministic per-channel tick slices: the fabric's tick cap divided
  // by the worst-case number of channel routings. A channel that splits
  // into parts divides its slice further, so the global bound holds. The
  // deadline and cancel flag pass through unsliced: every part stops at
  // the fabric's own end time.
  harness::Budget channel_slice = opts.budget;
  const std::uint64_t denom =
      static_cast<std::uint64_t>(max_iter) * static_cast<std::uint64_t>(C);
  if (opts.budget.max_ticks != 0) {
    channel_slice.max_ticks = std::max<std::uint64_t>(1, opts.budget.max_ticks / denom);
  }

  bool budget_hit = false;
  std::uint64_t failed = 0;  // channels the latest round failed to route
  for (int it = 0; it < max_iter; ++it) {
    SEGROUTE_SPAN(iter_span, "fabric.iteration");
    SEGROUTE_COUNT("fabric.iterations", 1);
    res.iterations = it + 1;

    // 1. ASSIGN (serial, deterministic): cheapest adjacent channel under
    // history + would-be present overuse + Lagrangian channel pressure,
    // all measured on extended spans.
    for (auto& row : demand) std::fill(row.begin(), row.end(), 0);
    std::vector<double> lam_ch(static_cast<std::size_t>(C), 0.0);
    for (int c = 0; c < C; ++c) {
      double sum = 0.0;
      for (int ty = 0; ty < ntypes; ++ty) {
        sum += lam[static_cast<std::size_t>(c)][static_cast<std::size_t>(ty)] *
               static_cast<double>(idx.tracks_of_type(ty).size());
      }
      lam_ch[static_cast<std::size_t>(c)] = sum / static_cast<double>(tracks);
    }
    for (int oi : order) {
      Trunk& t = trunks[static_cast<std::size_t>(oi)];
      int best_c = t.ch_lo;
      double best_cost = std::numeric_limits<double>::max();
      for (int c = t.ch_lo; c <= t.ch_hi; ++c) {
        const auto& hc = h[static_cast<std::size_t>(c)];
        const auto& dc = demand[static_cast<std::size_t>(c)];
        double cost =
            static_cast<double>(t.right - t.left + 1) * lam_ch[static_cast<std::size_t>(c)];
        for (Column col = t.eleft; col <= t.eright; ++col) {
          const int over =
              std::max(0, dc[static_cast<std::size_t>(col)] + 1 - tracks);
          cost += (1.0 + hc[static_cast<std::size_t>(col)]) *
                  (1.0 + kPresentFactor * over);
        }
        if (cost < best_cost) {
          best_cost = cost;
          best_c = c;
        }
      }
      res.channel_of_net[static_cast<std::size_t>(t.net)] = best_c;
      auto& dc = demand[static_cast<std::size_t>(best_c)];
      for (Column col = t.eleft; col <= t.eright; ++col) {
        ++dc[static_cast<std::size_t>(col)];
      }
    }

    // Materialize per-channel connection sets, nets in id order.
    for (int c = 0; c < C; ++c) {
      res.per_channel[static_cast<std::size_t>(c)] = ConnectionSet{};
      res.net_of_conn[static_cast<std::size_t>(c)].clear();
    }
    for (const Trunk& t : trunks) {
      const int c = res.channel_of_net[static_cast<std::size_t>(t.net)];
      res.per_channel[static_cast<std::size_t>(c)].add(t.left, t.right,
                                                       nl_->net(t.net).name);
      res.net_of_conn[static_cast<std::size_t>(c)].push_back(t.net);
    }

    // 2. ROUTE all channels concurrently: decompose each channel at safe
    // columns and feed every part as one instance of a single
    // route_many() sweep with per-instance (λ-priced) options. A part
    // whose plain column density exceeds the track count is certified
    // infeasible instead: more connections cross one of its columns than
    // there are tracks, so no routing exists under any segment limit or
    // weight, and the DP would only rediscover that level by level.
    struct Inst {
      int channel = 0;
      std::vector<ConnId> ids;  // part ids within the channel's set
      bool over_dense = false;  // certified by density, not routed
    };
    std::vector<Inst> inst;
    std::vector<ConnectionSet> batch;
    std::vector<engine::EngineRouteOptions> batch_opts;
    for (int c = 0; c < C; ++c) {
      const ConnectionSet& cs = res.per_channel[static_cast<std::size_t>(c)];
      if (cs.empty()) continue;
      std::vector<std::vector<ConnId>> parts = alg::split_parts(sub, cs);
      // λ pricing only when the multipliers differentiate the classes —
      // a uniform λ shifts every complete routing equally and belongs to
      // the assignment cost alone.
      const auto& lc = lam[static_cast<std::size_t>(c)];
      const auto [lo_it, hi_it] = std::minmax_element(lc.begin(), lc.end());
      const bool priced = ntypes > 1 && *hi_it - *lo_it > 1e-12;
      engine::EngineRouteOptions eo;
      eo.budget = channel_slice;
      if (channel_slice.max_ticks != 0 && parts.size() > 1) {
        eo.budget.max_ticks = std::max<std::uint64_t>(
            1, channel_slice.max_ticks / parts.size());
      }
      if (priced) {
        auto price = std::make_shared<std::vector<double>>(
            static_cast<std::size_t>(tracks));
        for (TrackId tr = 0; tr < tracks; ++tr) {
          (*price)[static_cast<std::size_t>(tr)] =
              lc[static_cast<std::size_t>(idx.type_of()[static_cast<std::size_t>(tr)])];
        }
        eo.weight_tag = price_tag(*price);
        eo.custom_weight = [price](const SegmentedChannel&, const Connection&,
                                   TrackId tr) {
          return (*price)[static_cast<std::size_t>(tr)];
        };
      }
      for (auto& part : parts) {
        ConnectionSet pcs;
        for (ConnId id : part) pcs.add(cs[id].left, cs[id].right, cs[id].name);
        const bool over_dense = pcs.density() > tracks;
        if (!over_dense) {
          batch.push_back(std::move(pcs));
          batch_opts.push_back(eo);
        }
        inst.push_back(Inst{c, std::move(part), over_dense});
      }
    }
    std::vector<std::uint64_t> part_ns;
    const std::vector<alg::RouteResult> routed =
        eng.route_many(batch, batch_opts, &part_ns);
    FabricResult::IterationTime& itime = res.iteration_times.emplace_back();
    itime.parts = static_cast<int>(part_ns.size());
    itime.over_dense = static_cast<int>(inst.size() - batch.size());
    for (const std::uint64_t ns : part_ns) {
      itime.parts_ns += ns;
      itime.critical_ns = std::max(itime.critical_ns, ns);
    }
    // A span keeps one tag (`failed`, below), so the split is instants.
    SEGROUTE_INSTANT("fabric.iteration.routed", "parts",
                     static_cast<std::uint64_t>(itime.parts));
    SEGROUTE_INSTANT("fabric.iteration.over_dense", "parts",
                     static_cast<std::uint64_t>(itime.over_dense));
    SEGROUTE_INSTANT("fabric.iteration.parts_us", "us", itime.parts_ns / 1000);
    SEGROUTE_INSTANT("fabric.iteration.critical_path_us", "us",
                     itime.critical_ns / 1000);

    // 3. STITCH parts back into per-channel routings and reports.
    for (int c = 0; c < C; ++c) {
      auto& rep = res.channels[static_cast<std::size_t>(c)];
      rep.connections = res.per_channel[static_cast<std::size_t>(c)].size();
      rep.density = res.per_channel[static_cast<std::size_t>(c)].density();
      rep.routed = true;
      rep.failure = alg::FailureKind::kNone;
      rep.weight = 0.0;
      res.routings[static_cast<std::size_t>(c)] =
          Routing(res.per_channel[static_cast<std::size_t>(c)].size());
    }
    alg::RouteResult certified;
    certified.fail(alg::FailureKind::kInfeasible,
                   "column density exceeds the track count");
    std::size_t next = 0;  // routed results, in part order
    for (std::size_t i = 0; i < inst.size(); ++i) {
      auto& rep = res.channels[static_cast<std::size_t>(inst[i].channel)];
      const alg::RouteResult& pr =
          inst[i].over_dense ? certified : routed[next++];
      if (pr.success) {
        Routing& r = res.routings[static_cast<std::size_t>(inst[i].channel)];
        for (std::size_t j = 0; j < inst[i].ids.size(); ++j) {
          r.assign(inst[i].ids[j], pr.routing.track_of(static_cast<ConnId>(j)));
        }
        rep.weight += pr.weight;
      } else if (rep.routed) {
        rep.routed = false;
        rep.failure = pr.failure;  // first failing part, part order fixed
      }
    }
    failed = 0;
    budget_hit = false;
    for (const auto& rep : res.channels) {
      failed += rep.routed ? 0 : 1;
      budget_hit =
          budget_hit || rep.failure == alg::FailureKind::kBudgetExhausted;
    }
    SEGROUTE_SPAN_TAG(iter_span, "failed", failed);
    if (failed == 0) {
      res.success = true;
      break;
    }
    if (budget_hit || it + 1 == max_iter) break;

    // 4. PRICE: history on the failed channels' congested columns,
    // λ sub-gradient per (channel, class) — scarce classes on routed
    // channels get priced, relaxed classes decay toward free.
    for (int c = 0; c < C; ++c) {
      auto& lc = lam[static_cast<std::size_t>(c)];
      const auto& rep = res.channels[static_cast<std::size_t>(c)];
      if (rep.routed) {
        std::vector<int> use(static_cast<std::size_t>(ntypes), 0);
        const Routing& r = res.routings[static_cast<std::size_t>(c)];
        for (ConnId i = 0; i < r.size(); ++i) {
          ++use[static_cast<std::size_t>(
              idx.type_of()[static_cast<std::size_t>(r.track_of(i))])];
        }
        for (int ty = 0; ty < ntypes; ++ty) {
          const double members =
              static_cast<double>(idx.tracks_of_type(ty).size());
          const double cap = kLambdaCapacitySlack * members;
          double& l = lc[static_cast<std::size_t>(ty)];
          if (use[static_cast<std::size_t>(ty)] > cap) {
            l += kLambdaStep *
                 (use[static_cast<std::size_t>(ty)] - cap) / members;
          } else {
            l = std::max(0.0, l - 0.5 * kLambdaStep);
          }
        }
      } else {
        auto& hc = h[static_cast<std::size_t>(c)];
        const auto& dc = demand[static_cast<std::size_t>(c)];
        bool had_over = false;
        int maxd = 0;
        for (Column col = 1; col <= width; ++col) {
          const int over = dc[static_cast<std::size_t>(col)] - tracks;
          maxd = std::max(maxd, dc[static_cast<std::size_t>(col)]);
          if (over > 0) {
            hc[static_cast<std::size_t>(col)] += kHistoryGain * over;
            had_over = true;
          }
        }
        if (!had_over && maxd > 0) {
          // Segmentation-induced shortfall: no column is over capacity
          // yet routing failed, so pressure the densest window.
          for (Column col = 1; col <= width; ++col) {
            if (dc[static_cast<std::size_t>(col)] == maxd) {
              hc[static_cast<std::size_t>(col)] += kHistoryGain;
            }
          }
        }
        // A failed channel also gets uniformly more expensive to enter.
        for (double& l : lc) l += kLambdaStep;
      }
    }
  }

  if (!res.success) {
    res.note = budget_hit
                   ? "fabric: budget exhausted before convergence"
                   : "fabric: not congestion-free within iteration cap";
  }
  res.cache = eng.cache_stats();

  // Digest over everything the determinism contract covers (assignment,
  // routings, outcome) — cache counters deliberately excluded.
  std::uint64_t d = kFnvOffset;
  d = fnv_mix(d, res.success ? 1 : 0);
  d = fnv_mix(d, static_cast<std::uint64_t>(res.iterations));
  d = fnv_mix(d, static_cast<std::uint64_t>(tracks));
  d = fnv_mix(d, static_cast<std::uint64_t>(C));
  for (int c : res.channel_of_net) {
    d = fnv_mix(d, static_cast<std::uint64_t>(c + 1));
  }
  for (int c = 0; c < C; ++c) {
    const Routing& r = res.routings[static_cast<std::size_t>(c)];
    d = fnv_mix(d, static_cast<std::uint64_t>(r.size()));
    for (ConnId i = 0; i < r.size(); ++i) {
      d = fnv_mix(d, static_cast<std::uint64_t>(r.track_of(i) + 1));
    }
    d = fnv_mix(d, static_cast<std::uint64_t>(
                       res.channels[static_cast<std::size_t>(c)].failure));
  }
  res.digest = d;

  SEGROUTE_COUNT("fabric.failed_channels", failed);
  SEGROUTE_GAUGE_MAX("fabric.iterations_max", static_cast<std::uint64_t>(res.iterations));
  return res;
}

FabricResult FabricRouter::route_independent(int tracks,
                                             const FabricOptions& opts) const {
  FabricOptions o = opts;
  o.max_iterations = 1;
  return route(tracks, o);
}

std::optional<int> FabricRouter::min_fabric_tracks(
    int track_limit, const FabricOptions& opts) const {
  SEGROUTE_SPAN(search_span, "fabric.min_width");
  if (!placement_fits(dev_, *nl_, *p_)) return std::nullopt;
  // A successful route() keeps every channel's column density within
  // its tracks, so no width below the Hall bound can succeed.
  const int lb = hall_bound(physical_trunks(dev_, *nl_, *p_),
                            dev_.num_channels(), dev_.columns());
  SEGROUTE_INSTANT("fabric.min_width.bound", "lower_bound",
                   static_cast<std::uint64_t>(lb));
  std::optional<int> found;
  std::uint64_t probes = 0;
  for (int t = lb; t <= track_limit; ++t) {
    ++probes;
    const FabricResult r = route(t, opts);
    if (r.success) {
      found = t;
      break;
    }
    if (std::any_of(r.channels.begin(), r.channels.end(), [](const auto& rep) {
          return rep.failure == alg::FailureKind::kBudgetExhausted;
        })) {
      break;
    }
  }
  SEGROUTE_INSTANT("fabric.min_width.probes", "probes", probes);
  SEGROUTE_SPAN_TAG(search_span, "tracks",
                    static_cast<std::uint64_t>(found.value_or(0)));
  return found;
}

}  // namespace segroute::fpga
