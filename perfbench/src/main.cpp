// segbench — runs one named workload of the repository benchmark.
//
//   segbench --workload <svc-hot|svc-cold|svc-edit|fabric-minwidth>
//            --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// Untraced runs print the end-to-end metrics; traced runs print the
// per-layer metrics and write the span log to --trace-out. Output follows
// the line protocol in common.h; the exit code is 0 only when every
// output was checked correct. perfbench/run.py builds this program and
// turns its output into the benchmark's result line.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "obs/span.h"
#include "util/pool.h"

#ifndef SEGBENCH_BUILD_TYPE
#define SEGBENCH_BUILD_TYPE "unknown"
#endif

namespace {

// Spans each thread may record before further ones are dropped (and
// counted). The generator and the service threads fill theirs within the
// first part of a traced phase; the rest of the phase still measures.
constexpr std::size_t kSpanCapacity = 1u << 14;

int usage(const char* why) {
  std::fprintf(stderr,
               "segbench: %s\nusage: segbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               why);
  return 2;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace segbench;
  RunArgs a;
  std::string trace_out;
  bool traced = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") { traced = v == "1"; have_trace = v == "0" || v == "1"; }
    else if (k == "--trace-out") trace_out = v;
    else return usage(("unknown flag " + k).c_str());
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  const bool svc = a.workload == "svc-hot" || a.workload == "svc-cold" ||
                   a.workload == "svc-edit";
  if (!svc && a.workload != "fabric-minwidth") return usage("unknown workload");
  if (!(a.seconds > 0 && a.seconds <= 120)) return usage("bad --seconds");
  if (!have_trace) return usage("--trace must be 0 or 1");

  fact("workload", a.workload);
  fact("seed", std::to_string(a.seed));
  fact("seconds", std::to_string(a.seconds));
  fact("nproc", std::to_string(online_cpus()));
  fact("hardware_threads", std::to_string(util::hardware_threads()));
  fact("compiler", std::string("g++ ") + __VERSION__);
  fact("build_type", SEGBENCH_BUILD_TYPE);
  fact("segroute_obs", SEGROUTE_OBS_ENABLED ? "ON" : "OFF");

  obs::TraceSession session(kSpanCapacity);
  if (traced) a.trace = &session;
  Outcome out;
  if (svc) {
    run_svc(a, out);
  } else {
    run_fabric(a, out);
  }

  if (!traced) {
    metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
  } else {
    session.stop();
    std::printf("trace: %zu spans kept, %llu dropped\n",
                session.events().size(),
                static_cast<unsigned long long>(session.dropped()));
    if (!trace_out.empty()) {
      std::ofstream os(trace_out);
      session.write_chrome_trace(os);
      out.check(static_cast<bool>(os), "cannot write trace to " + trace_out);
    }
  }
  metric("fail_frac",
         out.attempted > 0 ? static_cast<double>(out.failed) /
                                 static_cast<double>(out.attempted)
                           : 1.0,
         "fraction", out.attempted);
  for (const std::string& e : out.errors) std::printf("error: %s\n", e.c_str());
  std::printf("check\t%d\t%llu\t%llu\n", out.correct() ? 1 : 0,
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  return out.correct() ? 0 : 1;
}
