// bench_fabric — negotiated multi-channel fabric routing.
//
// Three fabric sizes (random netlist + random placement on a channeled
// device, staggered segmentation). For each size:
//
//   min tracks      smallest per-channel track count the negotiated
//                   fabric router converges at (fpga::FabricRouter),
//                   vs the independent per-channel baseline
//                   (route_independent = one greedy pass, no pricing)
//   iterations      negotiation iterations at the minimum track count
//   probes          channels each min-width search built (one per
//                   route() call), for the negotiated and the
//                   independent search, counted at the channel factory
//   parts/critical  per negotiation iteration, the channel parts it
//                   routed and the parts it certified infeasible by
//                   column density without routing, the summed route
//                   time of the routed parts and the largest single
//                   part's (the critical path that bounds route_many's
//                   parallel speedup), printed per iteration and summed
//                   per size
//
// plus a thread-scaling section on the largest size: the same fabric
// routed at 1/2/8 threads, cache on and off — results must be
// bit-identical (the FabricRouter determinism contract), only the wall
// clock may move.
//
// Checked invariants (fatal under --check):
//   - digests bit-identical across 1/2/8 threads and cache on/off;
//   - negotiated min tracks <= independent min tracks on every size;
//   - min tracks, iterations and probes exactly equal the committed
//     baseline (they are deterministic quantities, not timings);
//   - timings within 5x of the committed baseline;
//   - 8-thread speedup >= 3x — only gated when the host has >= 8
//     hardware threads (the committed baseline records
//     hardware_threads, so a small CI runner skips, not fakes, it).
//
// Flags: --json PATH, --check PATH, --repeats N, --quick,
//        --trace PATH, --metrics PATH.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "fpga/fabric.h"
#include "gen/segmentation.h"
#include "io/json.h"
#include "io/table.h"
#include "util/pool.h"

using namespace segroute;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

using bench::fmt;

struct Size {
  std::string name;
  int rows, slots, nets;
  std::uint64_t seed;
};

struct SizeRow {
  std::string key;
  int min_tracks = 0;
  int min_tracks_independent = 0;
  int iterations = 0;
  int probes = 0;
  int probes_independent = 0;
  double ms_route = 0.0;
  std::vector<fpga::FabricResult::IterationTime> iteration_times;
};

double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

struct Scenario {
  fpga::DeviceSpec dev;
  fpga::Netlist nl;
  fpga::Placement p;
};

Scenario make_scenario(const Size& s) {
  std::mt19937_64 rng(s.seed);
  fpga::DeviceSpec dev;
  dev.rows = s.rows;
  dev.slots_per_row = s.slots;
  dev.cell_width = 2;
  fpga::Netlist nl =
      fpga::random_netlist(s.rows * s.slots, s.nets, 4, s.slots, rng);
  fpga::Placement p = fpga::random_placement(nl, s.rows, s.slots, rng);
  return Scenario{dev, std::move(nl), std::move(p)};
}

SegmentedChannel make_channel(int tracks, Column width) {
  return gen::staggered_segmentation(tracks, width, 6);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, check_path;
  int repeats = 5;
  bool quick = false;
  bench::ObsOutputs obs_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) json_path = argv[++i];
    else if (a == "--check" && i + 1 < argc) check_path = argv[++i];
    else if (a == "--repeats" && i + 1 < argc) repeats = std::atoi(argv[++i]);
    else if (a == "--quick") quick = true;
    else if (obs_out.parse_flag(argc, argv, i)) continue;
    else {
      std::cerr << "unknown flag: " << a << "\n";
      return 2;
    }
  }
  if (quick) repeats = std::min(repeats, 2);
  repeats = std::max(repeats, 1);
  obs_out.start();

  const std::vector<Size> sizes = {
      {"small", 3, 8, 16, 101},
      {"medium", 4, 12, 32, 202},
      {"large", 5, 16, 56, 303},
  };

  int failures = 0;
  bool min_le_independent = true;
  std::vector<SizeRow> rows;
  engine::CacheStats cache_last;

  io::Table table(
      {"fabric", "nets", "min tracks", "independent", "iters", "probes",
       "ms/route", "parts ms", "critical ms"});
  io::Table per_iter(
      {"fabric", "iteration", "parts", "over-dense", "parts ms", "critical ms",
       "share"});
  for (const Size& s : sizes) {
    const Scenario sc = make_scenario(s);
    int built = 0;  // channels built: one per route() call
    const fpga::FabricRouter fr(sc.dev, sc.nl, sc.p,
                                [&built](int tracks, Column width) {
                                  ++built;
                                  return make_channel(tracks, width);
                                });
    fpga::FabricOptions o;
    o.max_iterations = 10;
    fpga::FabricOptions ind = o;
    ind.max_iterations = 1;

    const auto negotiated = fr.min_fabric_tracks(32, o);
    const int probes = built;
    const auto independent = fr.min_fabric_tracks(32, ind);
    const int probes_independent = built - probes;
    if (!negotiated || !independent) {
      std::cout << "FAIL: " << s.name << " did not route within 32 tracks\n";
      ++failures;
      continue;
    }
    if (*negotiated > *independent) min_le_independent = false;

    fpga::FabricResult res;
    const auto t0 = Clock::now();
    for (int r = 0; r < repeats; ++r) res = fr.route(*negotiated, o);
    const double ms = ms_since(t0) / repeats;
    cache_last = res.cache;

    // The last repeat's per-iteration split of route_many time.
    std::uint64_t parts_ns = 0;
    std::uint64_t critical_ns = 0;
    for (std::size_t i = 0; i < res.iteration_times.size(); ++i) {
      const auto& t = res.iteration_times[i];
      parts_ns += t.parts_ns;
      critical_ns += t.critical_ns;
      per_iter.add_row(
          {s.name, std::to_string(i + 1), std::to_string(t.parts),
           std::to_string(t.over_dense),
           io::Table::num(ns_to_ms(t.parts_ns), 3),
           io::Table::num(ns_to_ms(t.critical_ns), 3),
           io::Table::num(t.parts_ns > 0 ? static_cast<double>(t.critical_ns) /
                                               static_cast<double>(t.parts_ns)
                                         : 0.0,
                          2)});
    }

    table.add_row({s.name, std::to_string(s.nets), std::to_string(*negotiated),
                   std::to_string(*independent),
                   std::to_string(res.iterations),
                   std::to_string(probes) + " / " +
                       std::to_string(probes_independent),
                   io::Table::num(ms, 3), io::Table::num(ns_to_ms(parts_ns), 3),
                   io::Table::num(ns_to_ms(critical_ns), 3)});
    rows.push_back({"fabric/" + s.name, *negotiated, *independent,
                    res.iterations, probes, probes_independent, ms,
                    res.iteration_times});
  }

  // --- thread scaling on the largest size --------------------------------
  // Same fabric, same track count; 1/2/8 threads, cache on and off. The
  // determinism contract says only the wall clock may change.
  bool identical = true;
  double ms_threads[3] = {0, 0, 0};
  {
    const Scenario sc = make_scenario(sizes.back());
    const fpga::FabricRouter fr(sc.dev, sc.nl, sc.p, make_channel);
    const int tracks = rows.empty() ? 8 : rows.back().min_tracks;
    std::optional<std::uint64_t> digest;
    io::Table st({"threads", "cache", "ms/route", "speedup"});
    for (const bool cache : {true, false}) {
      const int thread_counts[] = {1, 2, 8};
      double ms_1t = 0.0;  // this cache mode's 1-thread time
      for (int ti = 0; ti < 3; ++ti) {
        fpga::FabricOptions o;
        o.max_iterations = 10;
        o.threads = thread_counts[ti];
        o.use_cache = cache;
        fpga::FabricResult res;
        const auto t0 = Clock::now();
        for (int r = 0; r < repeats; ++r) res = fr.route(tracks, o);
        const double ms = ms_since(t0) / repeats;
        if (!digest) digest = res.digest;
        if (res.digest != *digest) identical = false;
        if (cache) ms_threads[ti] = ms;
        if (ti == 0) ms_1t = ms;
        st.add_row({std::to_string(thread_counts[ti]), cache ? "on" : "off",
                    io::Table::num(ms, 3),
                    io::Table::num(ms > 0 ? ms_1t / ms : 0.0, 2)});
      }
    }
    std::cout << "\nfabric routing — " << sizes.back().name << " at " << tracks
              << " tracks, thread scaling\n";
    st.print(std::cout);
  }
  const double speedup_2t =
      ms_threads[1] > 0 ? ms_threads[0] / ms_threads[1] : 0.0;
  const double speedup_8t =
      ms_threads[2] > 0 ? ms_threads[0] / ms_threads[2] : 0.0;

  std::cout << "\nnegotiated fabric routing (" << repeats << " repeats)\n";
  table.print(std::cout);
  std::cout << "\nper negotiation iteration at min tracks, 1 thread "
               "(share = critical / parts)\n";
  per_iter.print(std::cout);
  std::cout << (identical
                    ? "bit-identical across 1/2/8 threads, cache on/off\n"
                    : "DIGEST MISMATCH across threads or cache modes\n");
  std::cout << "8-thread speedup: " << io::Table::num(speedup_8t, 2)
            << "x (hardware threads: " << util::hardware_threads() << ")\n";

  obs_out.finish(std::cout);

  // --- JSON emission -----------------------------------------------------
  std::ostringstream js;
  js << "{\n  \"bench\": \"fabric\",\n  \"repeats\": " << repeats
     << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SizeRow& r = rows[i];
    js << "    {\"key\": \"" << io::json_escape(r.key)
       << "\", \"min_tracks\": " << r.min_tracks
       << ", \"min_tracks_independent\": " << r.min_tracks_independent
       << ", \"iterations\": " << r.iterations
       << ", \"probes\": " << r.probes
       << ", \"probes_independent\": " << r.probes_independent
       << ", \"ms_route\": " << fmt(r.ms_route);
    const auto list = [&](const char* name, auto field) {
      js << ", \"" << name << "\": [";
      for (std::size_t k = 0; k < r.iteration_times.size(); ++k) {
        js << (k ? ", " : "") << field(r.iteration_times[k]);
      }
      js << "]";
    };
    list("iteration_parts", [](const auto& t) { return t.parts; });
    list("iteration_over_dense", [](const auto& t) { return t.over_dense; });
    list("iteration_parts_ms",
         [](const auto& t) { return fmt(ns_to_ms(t.parts_ns)); });
    list("iteration_critical_ms",
         [](const auto& t) { return fmt(ns_to_ms(t.critical_ns)); });
    js << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"hardware_threads\": " << util::hardware_threads() << ",\n";
  js << "  \"speedup_2t\": " << fmt(speedup_2t) << ",\n";
  js << "  \"speedup_8t\": " << fmt(speedup_8t) << ",\n";
  js << "  \"identical\": " << (identical ? "true" : "false") << ",\n";
  js << "  "
     << bench::engine_cache_json(cache_last.hits, cache_last.misses,
                                 cache_last.evictions)
     << "\n}\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << js.str();
    std::cout << "\nwrote " << json_path << "\n";
  }

  // --- Gates -------------------------------------------------------------
  if (!identical) {
    std::cout << "FAIL: fabric results not bit-identical\n";
    ++failures;
  }
  if (!min_le_independent) {
    std::cout << "FAIL: negotiation needed more tracks than independent\n";
    ++failures;
  }
  if (!check_path.empty()) {
    std::ifstream in(check_path);
    if (!in) {
      std::cerr << "cannot read baseline " << check_path << "\n";
      return 2;
    }
    bench::Baseline base{std::string(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>())};
    std::cout << "\nbaseline check vs " << check_path << "\n";
    for (const SizeRow& r : rows) {
      // Deterministic quantities must match the baseline exactly.
      const std::pair<const char*, int> exact[] = {
          {"min_tracks", r.min_tracks},
          {"iterations", r.iterations},
          {"probes", r.probes},
          {"probes_independent", r.probes_independent}};
      for (const auto& [field, value] : exact) {
        const auto b = base.field(r.key, field);
        if (b && static_cast<int>(*b) != value) {
          std::cout << "  FAIL " << r.key << ": " << field << " " << value
                    << " != baseline " << *b << "\n";
          ++failures;
        }
      }
      const auto bms = base.field(r.key, "ms_route");
      if (bms && *bms > 0 && r.ms_route > 5.0 * *bms) {
        std::cout << "  FAIL " << r.key << ": " << r.ms_route
                  << " ms > 5x baseline " << *bms << " ms\n";
        ++failures;
      }
    }
    if (util::hardware_threads() >= 8) {
      if (speedup_8t < 3.0) {
        std::cout << "  FAIL: 8-thread speedup " << speedup_8t
                  << "x < required 3x\n";
        ++failures;
      }
    } else {
      std::cout << "  speedup gate skipped: only " << util::hardware_threads()
                << " hardware thread(s), need 8\n";
    }
    std::cout << (failures == 0 ? "baseline check passed\n"
                                : "baseline check FAILED\n");
  }
  return failures == 0 ? 0 : 1;
}
