// Shared pieces of segbench, the repository benchmark program: clocks and
// sample statistics, the seeded input generators every workload and probe
// draws from, and the line protocol perfbench/run.py reads.
//
// Output protocol (one record per stdout line, tab-separated):
//   metric <name> <value> <unit> <samples>
//   fact   <key> <value>
//   check  <correct 0|1> <attempted> <failed>
// Any other line is human-readable commentary.
#pragma once

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "alg/delta.h"
#include "core/channel.h"
#include "core/connection.h"
#include "fpga/device.h"
#include "fpga/netlist.h"
#include "fpga/place.h"
#include "obs/span.h"

namespace segbench {

using namespace segroute;
using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when
/// empty.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Samples of one timed loop, pooled over the whole loop. This host's
/// speed drifts between fast and slow spells lasting seconds; pooled
/// figures average the spells a run sees, where medians of per-window
/// figures would flip between them. A uniform reservoir of at most kKeep
/// samples keeps the benchmark's own memory independent of throughput.
class Samples {
 public:
  static constexpr std::size_t kKeep = std::size_t{1} << 17;

  void add(double value);

  [[nodiscard]] std::size_t count() const { return seen_; }
  [[nodiscard]] double pct(double q) const { return percentile(keep_, q); }

 private:
  std::vector<double> keep_;
  std::size_t seen_ = 0;
  std::uint64_t rng_ = 0x2545f4914f6cdd1dull;
};

/// Derives an independent stream seed for one input kind.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

// Set-up is timed in kSetupBursts bursts of kSetupReps, spread over an
// untraced run: one before the timed loop, which builds the system the
// loop measures, and one between each of the loop's kSetupBursts slices,
// which builds and drops spare ones. A single burst would catch the
// host's speed at one moment only.
constexpr int kSetupBursts = 5;
constexpr int kSetupReps = 41;

// --- Workload inputs ------------------------------------------------------

constexpr int kSvcThreads = 2;       // dispatcher + 1 pool worker
constexpr int kHotPool = 32;         // svc-hot instances (fit the memo cache)
constexpr int kEditSessions = 4;     // svc-edit sessions
constexpr int kEditLiveCap = 28;     // svc-edit live-set cap per session
constexpr int kEditLiveTarget = 20;  // ... and the size its script hovers at
constexpr Column kEditMaxSpan = 16;  // svc-edit span length limit
constexpr int kFabricTrackLimit = 32;

SegmentedChannel hot_channel();   // staggered 8 x 64, segments of 8
SegmentedChannel cold_channel();  // staggered 8 x 96, segments of 8

/// svc-hot (and the svc-edit reads): kHotPool routable_workload(ch, 6, 6.0)
/// instances.
std::vector<ConnectionSet> hot_pool(const SegmentedChannel& ch,
                                    std::uint64_t seed);

/// svc-cold: `n` distinct routable_workload(ch, 24..40, 7.0) instances.
std::vector<ConnectionSet> cold_instances(const SegmentedChannel& ch,
                                          std::uint64_t seed, int n);

/// One svc-edit session's seeded add/remove/move script. The next edit
/// depends on the live set the previous edits left, so the caller feeds
/// outcomes back through applied(). The script also models that live set
/// (ids and spans), so a session's answers can be checked against it.
class EditScript {
 public:
  EditScript(std::uint64_t seed, int session, Column width);

  [[nodiscard]] alg::ChannelEdit next();

  /// Records the outcome of the edit next() returned last.
  void applied(const alg::ChannelEdit& e, const alg::RepairOutcome& out);

  /// The modelled live set in id order, as session snapshots list it,
  /// with `e` applied when given: for an edit the session refused as
  /// infeasible, the set alg::from_scratch must fail to route too.
  [[nodiscard]] ConnectionSet live_set(
      const alg::ChannelEdit* e = nullptr) const;

 private:
  struct Live {
    ConnId id;
    Column left, right;
  };
  std::mt19937_64 rng_;
  Column width_;
  std::vector<Live> live_;  // ascending ids: a new connection's id is the largest
};

/// Whether two connection sets hold the same spans in the same order.
bool same_spans(const ConnectionSet& a, const ConnectionSet& b);

/// One fabric-minwidth input: a 5-row x 16-slot device with a 56-net
/// random netlist and random placement.
struct FabricScenario {
  fpga::DeviceSpec dev;
  fpga::Netlist nl;
  fpga::Placement p;
};

std::vector<FabricScenario> fabric_scenarios(std::uint64_t seed, int n);
SegmentedChannel fabric_channel(int tracks, Column width);

// --- Result reporting -----------------------------------------------------

/// Counts checked operations — timed ops, set-up and final-state checks,
/// probe results — and those that failed, and keeps the first few error
/// messages. Any failure makes the run incorrect. Each operation is
/// counted once in `attempted` and fails at most once.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& why);

  /// One checked operation: counts it, and fails it unless `ok`.
  bool check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) fail(why);
    return ok;
  }
  [[nodiscard]] bool correct() const { return failed == 0 && errors.empty(); }
};

void metric(const std::string& name, double value, const char* unit,
            std::size_t samples);

/// The process's peak resident set so far (VmHWM), in MiB.
double peak_rss_mb();
void fact(const std::string& key, const std::string& value);

// --- Entry points ---------------------------------------------------------

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced runs only: the session the workload starts when its traced
  /// phase begins. It records the benchmark's own obs::Span regions and
  /// the library's internal spans; main() stops it and writes the trace.
  obs::TraceSession* trace = nullptr;
};

/// svc-hot, svc-cold and svc-edit.
void run_svc(const RunArgs& a, Outcome& out);

/// fabric-minwidth.
void run_fabric(const RunArgs& a, Outcome& out);

/// The per-layer probes a traced run adds: direct calls into each layer
/// on inputs drawn from the same seed, run inside the trace session. `fill` is the service window fill
/// the fork-join probe sizes itself by; `index_ch` is the workload's own
/// substrate.
void run_probes(const RunArgs& a, double fill, const SegmentedChannel& index_ch,
                Outcome& out);

/// A traced svc-hot burst of `seconds`, reporting the svc, engine and obs
/// per-layer metrics for a workload that has no service of its own.
/// Returns the measured window fill.
double run_svc_layer_probe(std::uint64_t seed, double seconds, Outcome& out);

}  // namespace segbench
