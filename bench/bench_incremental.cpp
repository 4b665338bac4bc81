// bench_incremental — the incremental delta re-route path under load.
//
// Two sections:
//
//   edit throughput   seeded edit scripts (add/remove/move) over four
//                     channel families. Per edit, three competitors are
//                     timed against the same live set: the session's
//                     OnlineRouter::apply(), the canonical stateless
//                     replay (alg::from_scratch — what a service without
//                     sessions would recompute), and the exact DP
//                     re-route (dp_route_unlimited — the from-scratch
//                     competitor the paper's offline formulation implies).
//                     After every apply the session snapshot must equal
//                     from_scratch bit for bit (the canonical-state
//                     contract of alg/delta.h). "Repair" counts the
//                     edits whose new state is in the greedy regime.
//   script digest     one fixed-size edit script (independent of
//                     --quick, no wall clock anywhere near it) folds
//                     every receipt and the full snapshot after every
//                     applied edit into an FNV digest. The digest is
//                     committed in the baseline JSON: any change to
//                     replay order, tie-breaks, id allocation or the DP
//                     fallback trips the perf gate even if no unit test
//                     names it.
//
// Checked invariants (fatal):
//   - snapshot == from_scratch after every timed apply (always);
//   - the script digest reproduces across two in-process runs (always);
//   - under --check: digest matches the committed baseline exactly,
//     min repair-vs-DP speedup >= max(2.0, baseline/5), repair path
//     carries the majority of applied edits, and per-row apply times
//     stay under 5x baseline.
//
// Flags: --json PATH, --check PATH, --quick, --trace PATH,
//        --metrics PATH.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "alg/delta.h"
#include "alg/dp.h"
#include "alg/online.h"
#include "bench_json.h"
#include "gen/segmentation.h"
#include "io/json.h"
#include "io/table.h"
#include "util/pool.h"

using namespace segroute;
using Clock = std::chrono::steady_clock;

namespace {

using bench::fmt;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Family {
  std::string name;
  SegmentedChannel ch;
  Column width;
};

std::vector<Family> families() {
  std::vector<Family> f;
  f.push_back({"uniform-8x64", gen::uniform_segmentation(8, 64, 8), 64});
  f.push_back({"staggered-8x64", gen::staggered_segmentation(8, 64, 8), 64});
  f.push_back({"progressive-10x96",
               gen::progressive_segmentation(10, 96, 6, 4), 96});
  f.push_back({"staggered-12x128", gen::staggered_segmentation(12, 128, 10),
               128});
  return f;
}

/// The speedup gate reads the largest family: the incremental win grows
/// with instance size, and small channels price the DP in microseconds
/// where the ratio measures allocator noise, not design. The gate probe
/// runs a fixed step count in every mode — edit scripts saturate the
/// channel over time and the repair-vs-DP ratio moves with fill, so a
/// --quick run must measure the same script the baseline recorded.
constexpr const char* kGateFamily = "incremental/staggered-12x128";
constexpr int kGateSteps = 300;

/// One uniformly random well-formed span on [1, width].
std::pair<Column, Column> rand_span(std::mt19937_64& rng, Column width) {
  const Column l = 1 + static_cast<Column>(rng() % width);
  const Column len = 1 + static_cast<Column>(rng() % std::max<Column>(1, width / 4));
  return {l, std::min<Column>(width, l + len - 1)};
}

/// Draws the next edit for the live set (forced add when empty, forced
/// remove at the saturation cap) — the same mixing discipline the edit
/// suites in tests/ use, so the bench exercises the same regimes.
alg::ChannelEdit next_edit(std::mt19937_64& rng, Column width,
                           const std::vector<ConnId>& live, int cap) {
  std::uint64_t pick = rng() % 3;
  if (live.empty()) pick = 0;
  if (static_cast<int>(live.size()) >= cap) pick = 1;
  if (pick == 0) {
    const auto [l, r] = rand_span(rng, width);
    return alg::ChannelEdit::add(l, r);
  }
  const ConnId victim = live[rng() % live.size()];
  if (pick == 1) return alg::ChannelEdit::remove(victim);
  const auto [l, r] = rand_span(rng, width);
  return alg::ChannelEdit::move(victim, l, r);
}

struct Row {
  std::string key;
  double incr_ms = 0.0;  // per applied edit
  double full_ms = 0.0;  // canonical stateless replay, per edit
  double dp_ms = 0.0;    // exact DP re-route, per edit
  double speedup_dp = 0.0;
  double repair_frac = 0.0;
  int applied = 0;
  int rejected = 0;
};

/// Timed edit-script run over one family. Fatal mismatch => false.
bool run_family(const Family& f, int steps, std::uint64_t seed, Row* row) {
  alg::OnlineRouter session(f.ch, alg::OnlineRouter::Policy::BestFit);
  std::mt19937_64 rng(seed);
  std::vector<ConnId> live;
  const int cap =
      static_cast<int>(f.ch.tracks().size()) * 3 + 4;

  double incr = 0.0, full = 0.0, dp = 0.0;
  int applied = 0, repairs = 0;
  for (int step = 0; step < steps; ++step) {
    const alg::ChannelEdit e = next_edit(rng, f.width, live, cap);
    const auto t0 = Clock::now();
    const alg::RepairOutcome out = session.apply(e);
    const double apply_ms = ms_since(t0);
    if (!out.success) {
      ++row->rejected;
      continue;
    }
    incr += apply_ms;
    ++applied;
    if (out.path == alg::RepairOutcome::Path::kRepair) ++repairs;
    if (e.kind == alg::ChannelEdit::Kind::kAdd) {
      live.push_back(out.id);
    } else if (e.kind == alg::ChannelEdit::Kind::kRemove) {
      live.erase(std::find(live.begin(), live.end(), out.id));
    }

    const auto [cs, routing] = session.snapshot();
    const auto t1 = Clock::now();
    const alg::CanonicalResult canon = alg::from_scratch(f.ch, cs, true, 0);
    full += ms_since(t1);
    const auto t2 = Clock::now();
    const alg::RouteResult exact = alg::dp_route_unlimited(f.ch, cs);
    dp += ms_since(t2);
    if (!canon.result.success || canon.result.routing != routing) {
      std::cerr << "FAIL: " << f.name << " step " << step
                << ": session diverged from from_scratch\n";
      return false;
    }
    if (!exact.success) {
      std::cerr << "FAIL: " << f.name << " step " << step
                << ": DP rejected a live session state\n";
      return false;
    }
  }
  row->key = "incremental/" + f.name;
  row->applied = applied;
  row->incr_ms = applied > 0 ? incr / applied : 0.0;
  row->full_ms = applied > 0 ? full / applied : 0.0;
  row->dp_ms = applied > 0 ? dp / applied : 0.0;
  row->speedup_dp = row->incr_ms > 0 ? row->dp_ms / row->incr_ms : 0.0;
  row->repair_frac =
      applied > 0 ? static_cast<double>(repairs) / applied : 0.0;
  return true;
}

/// The pinned edit script: fixed size regardless of --quick so the
/// digest in the committed baseline matches every mode. Folds each
/// receipt (success, path, failure, id) and, after every applied edit,
/// the full snapshot (spans + tracks), FNV-1a style.
std::uint64_t script_digest() {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= kPrime;
  };
  const SegmentedChannel ch = gen::staggered_segmentation(6, 32, 6);
  alg::OnlineRouter session(ch, alg::OnlineRouter::Policy::BestFit);
  std::mt19937_64 rng(20252);
  std::vector<ConnId> live;
  for (int step = 0; step < 400; ++step) {
    const alg::ChannelEdit e = next_edit(rng, 32, live, 22);
    const alg::RepairOutcome out = session.apply(e);
    mix(static_cast<std::uint64_t>(step));
    mix((out.success ? 1u : 0u) |
        (static_cast<std::uint64_t>(out.path) << 1) |
        (static_cast<std::uint64_t>(out.failure) << 4) |
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(out.id)) << 8));
    if (!out.success) continue;
    if (e.kind == alg::ChannelEdit::Kind::kAdd) {
      live.push_back(out.id);
    } else if (e.kind == alg::ChannelEdit::Kind::kRemove) {
      live.erase(std::find(live.begin(), live.end(), out.id));
    }
    const auto [cs, routing] = session.snapshot();
    mix(static_cast<std::uint64_t>(cs.size()));
    for (ConnId c = 0; c < cs.size(); ++c) {
      mix(static_cast<std::uint32_t>(cs[c].left) |
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cs[c].right))
           << 32));
      mix(static_cast<std::uint64_t>(routing.track_of(c) + 1));
    }
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, check_path;
  bool quick = false;
  bench::ObsOutputs obs_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) json_path = argv[++i];
    else if (a == "--check" && i + 1 < argc) check_path = argv[++i];
    else if (a == "--quick") quick = true;
    else if (obs_out.parse_flag(argc, argv, i)) continue;
    else {
      std::cerr << "unknown flag: " << a << "\n";
      return 2;
    }
  }
  obs_out.start();

  int failures = 0;
  const int steps = quick ? 150 : 600;

  // --- edit throughput ---------------------------------------------------
  std::vector<Row> rows;
  io::Table table({"family", "applied", "apply us", "replay us", "dp us",
                   "dp speedup", "repair frac"});
  double speedup_dp_min = std::numeric_limits<double>::infinity();
  double speedup_dp_gate = 0.0;
  double repair_frac_min = 1.0;
  for (const Family& f : families()) {
    Row row;
    if (!run_family(f, steps, 4242, &row)) {
      ++failures;
      continue;
    }
    speedup_dp_min = std::min(speedup_dp_min, row.speedup_dp);
    repair_frac_min = std::min(repair_frac_min, row.repair_frac);
    table.add_row({f.name, std::to_string(row.applied),
                   io::Table::num(row.incr_ms * 1e3, 2),
                   io::Table::num(row.full_ms * 1e3, 2),
                   io::Table::num(row.dp_ms * 1e3, 2),
                   io::Table::num(row.speedup_dp, 1),
                   io::Table::num(row.repair_frac, 2)});
    rows.push_back(row);
  }
  std::cout << "incremental edits — " << steps
            << " scripted edits per family (apply vs stateless replay vs "
               "exact DP)\n\n";
  table.print(std::cout);
  {
    Row gate_row;
    if (!run_family(families().back(), kGateSteps, 4242, &gate_row)) {
      ++failures;
    } else {
      speedup_dp_gate = gate_row.speedup_dp;
      repair_frac_min = std::min(repair_frac_min, gate_row.repair_frac);
    }
  }
  std::cout << "\nrepair-vs-DP speedup: "
            << io::Table::num(speedup_dp_gate, 1) << "x at " << kGateFamily
            << " (" << kGateSteps << "-step probe; min across families "
            << io::Table::num(speedup_dp_min, 1)
            << "x); min repair fraction: "
            << io::Table::num(repair_frac_min, 2) << "\n";

  // --- script digest -----------------------------------------------------
  const std::uint64_t digest = script_digest();
  const bool reproduced = script_digest() == digest;
  std::ostringstream dhex;
  dhex << std::hex << digest;
  std::cout << "edit-script digest: 0x" << dhex.str() << " — "
            << (reproduced ? "reproduced in-process\n"
                           : "NON-DETERMINISTIC\n");
  if (!reproduced) ++failures;

  obs_out.finish(std::cout);

  // --- JSON emission -----------------------------------------------------
  std::ostringstream js;
  js << "{\n  \"bench\": \"incremental\",\n  \"steps\": " << steps
     << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    js << "    {\"key\": \"" << io::json_escape(r.key)
       << "\", \"incr_ms_per_edit\": " << fmt(r.incr_ms)
       << ", \"full_ms_per_edit\": " << fmt(r.full_ms)
       << ", \"dp_ms_per_edit\": " << fmt(r.dp_ms)
       << ", \"speedup_dp\": " << fmt(r.speedup_dp)
       << ", \"repair_frac\": " << fmt(r.repair_frac) << "},\n";
  }
  // The digest rides in a row so Baseline::field can scan it; split in
  // 32-bit halves because the scanner reads doubles.
  js << "    {\"key\": \"digest/script\", \"digest_hi\": "
     << (digest >> 32) << ", \"digest_lo\": " << (digest & 0xffffffffull)
     << "}\n  ],\n";
  js << "  \"digest\": \"0x" << dhex.str() << "\",\n";
  js << "  \"speedup_dp_min\": " << fmt(speedup_dp_min) << ",\n";
  js << "  \"speedup_dp_gate\": " << fmt(speedup_dp_gate) << ",\n";
  js << "  \"repair_frac_min\": " << fmt(repair_frac_min) << ",\n";
  js << "  \"hardware_threads\": " << util::hardware_threads() << ",\n";
  js << "  " << bench::engine_cache_json(0, 0, 0) << "\n}\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << js.str();
    std::cout << "\nwrote " << json_path << "\n";
  }

  // --- Gates -------------------------------------------------------------
  if (!check_path.empty()) {
    std::ifstream in(check_path);
    if (!in) {
      std::cerr << "cannot read baseline " << check_path << "\n";
      return 2;
    }
    bench::Baseline base{std::string(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>())};
    std::cout << "\nbaseline check vs " << check_path << "\n";

    const auto bhi = base.field("digest/script", "digest_hi");
    const auto blo = base.field("digest/script", "digest_lo");
    if (!bhi || !blo ||
        static_cast<std::uint64_t>(*bhi) != (digest >> 32) ||
        static_cast<std::uint64_t>(*blo) != (digest & 0xffffffffull)) {
      std::cout << "  FAIL: edit-script digest drifted from the committed "
                   "baseline (replay order / tie-break / id-allocation "
                   "change?)\n";
      ++failures;
    }
    double base_speedup = 0.0;
    {
      const std::size_t at = base.text.find("\"speedup_dp_gate\": ");
      if (at != std::string::npos) {
        base_speedup = std::strtod(
            base.text.c_str() + at +
                std::string("\"speedup_dp_gate\": ").size(),
            nullptr);
      }
    }
    const double need = std::max(2.0, base_speedup / 5.0);
    if (speedup_dp_gate < need) {
      std::cout << "  FAIL: repair-vs-DP speedup " << speedup_dp_gate
                << "x at " << kGateFamily << " < required " << need << "x\n";
      ++failures;
    }
    if (repair_frac_min < 0.5) {
      std::cout << "  FAIL: repair path carried only " << repair_frac_min
                << " of applied edits (DP fallback dominates)\n";
      ++failures;
    }
    for (const Row& r : rows) {
      const auto bms = base.field(r.key, "incr_ms_per_edit");
      if (!bms) continue;
      if (*bms > 0 && r.incr_ms > 5.0 * *bms) {
        std::cout << "  FAIL " << r.key << ": " << r.incr_ms
                  << " ms/edit > 5x baseline " << *bms << " ms\n";
        ++failures;
      }
    }
    std::cout << (failures == 0 ? "baseline check passed\n"
                                : "baseline check FAILED\n");
  }
  return failures == 0 ? 0 : 1;
}
