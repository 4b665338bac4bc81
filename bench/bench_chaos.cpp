// Chaos soak bench: the survivability harness under load.
//
// Runs the deterministic chaos schedule (harness::run_chaos) — seeded
// fault storms driving a BatchRouter session through degrade -> reroute
// -> recover cycles with rollback to the verified baseline and the
// partial fallback — at 1, 2 and 8 worker threads, and prints the
// per-thread soak table.
//
// Checked invariants (exit 1 on violation):
//   - every run completes with ok = true (no verify failures, no
//     recover-phase mismatches against the baseline);
//   - the report digest is bit-identical across thread counts (the
//     determinism contract of harness/chaos.h);
//   - a different master seed produces a different digest.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "segroute.h"

using namespace segroute;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  int cycles = 200;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--cycles" && i + 1 < argc) {
      cycles = std::atoi(argv[++i]);
    }
  }

  std::mt19937_64 rng(21);
  const auto ch = gen::staggered_segmentation(6, 24, 6);
  const auto cs = gen::routable_workload(ch, 10, 5.0, rng);

  std::cout << "Chaos soak — " << cycles
            << " degrade->reroute->recover cycles on a 6-track staggered "
               "channel, M = "
            << cs.size() << "\n\n";

  harness::ChaosOptions base;
  base.seed = 1234;
  base.cycles = cycles;

  io::Table t({"threads", "storms", "faults", "reroutes", "partials",
               "rollbacks", "outages", "cache hits", "digest", "ms"});
  bool ok = true;
  std::uint64_t pinned_digest = 0;
  for (int threads : {1, 2, 8}) {
    harness::ChaosOptions o = base;
    o.threads = threads;
    const auto t0 = std::chrono::steady_clock::now();
    const auto rep = harness::run_chaos(ch, cs, o);
    const double ms = ms_since(t0);
    if (!rep.ok) {
      std::cerr << "FAIL: threads=" << threads << ": " << rep.note << "\n";
      ok = false;
    }
    if (threads == 1) {
      pinned_digest = rep.digest;
    } else if (rep.digest != pinned_digest) {
      std::cerr << "FAIL: digest at " << threads
                << " threads differs from single-threaded run\n";
      ok = false;
    }
    t.add_row({std::to_string(threads), std::to_string(rep.storms),
               std::to_string(rep.faults_applied),
               std::to_string(rep.reroutes), std::to_string(rep.partials),
               std::to_string(rep.rollbacks), std::to_string(rep.outages),
               std::to_string(rep.cache.hits), hex(rep.digest),
               std::to_string(static_cast<int>(ms))});
  }
  t.print(std::cout);

  harness::ChaosOptions alt = base;
  alt.seed = 4321;
  const auto other = harness::run_chaos(ch, cs, alt);
  if (other.digest == pinned_digest) {
    std::cerr << "FAIL: seed " << alt.seed
              << " reproduced the seed-" << base.seed << " digest\n";
    ok = false;
  }
  std::cout << "\nseed " << base.seed << " digest " << hex(pinned_digest)
            << ", seed " << alt.seed << " digest " << hex(other.digest)
            << (ok ? "  [deterministic across 1/2/8 threads]" : "") << "\n";
  return ok ? 0 : 1;
}
