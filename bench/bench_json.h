// Shared pieces of the bench drivers' machine-readable output.
//
// Every bench that emits/consumes perf JSON (bench_dp_hotpath,
// bench_engine) shares one schema: a "rows" array of {"key", ...}
// objects plus a top-level "engine_cache" counter object. The number
// formatter, the baseline scanner and the engine_cache emission live
// here so the two drivers cannot drift apart — bench_dp_hotpath once
// emitted a structurally-zero engine_cache field by hand and it is now
// the same function call bench_engine uses.
//
// Also here: the --trace/--metrics plumbing (obs trace session +
// metrics snapshot files) every bench accepts.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "obs/metrics.h"
#include "obs/span.h"

namespace segroute::bench {

/// Stable float formatting for perf JSON (10 significant digits).
inline std::string fmt(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

/// Minimal scanner for the baseline JSON the benches emit: finds the
/// row with `"key": "<key>"` (or the top-level object `"<object>": {`)
/// and reads the named numeric/boolean field from it (booleans map to
/// 1.0/0.0).
struct Baseline {
  std::string text;

  std::optional<double> field(const std::string& key,
                              const std::string& name) const {
    return scan(text.find("\"key\": \"" + key + "\""), name);
  }

  std::optional<double> object_field(const std::string& object,
                                     const std::string& name) const {
    return scan(text.find("\"" + object + "\": {"), name);
  }

 private:
  std::optional<double> scan(std::size_t at, const std::string& name) const {
    if (at == std::string::npos) return std::nullopt;
    const std::size_t end = text.find('}', at);
    const std::string needle = "\"" + name + "\": ";
    const std::size_t f = text.find(needle, at);
    if (f == std::string::npos || f > end) return std::nullopt;
    const std::string val = text.substr(f + needle.size(), 32);
    if (val.rfind("true", 0) == 0) return 1.0;
    if (val.rfind("false", 0) == 0) return 0.0;
    return std::strtod(val.c_str(), nullptr);
  }
};

/// The shared "engine_cache" JSON object (no trailing newline). Benches
/// that route without a BatchRouter pass zeros so all perf JSON keeps
/// one schema.
inline std::string engine_cache_json(std::uint64_t hits, std::uint64_t misses,
                                     std::uint64_t evictions) {
  std::ostringstream os;
  os << "\"engine_cache\": {\"hits\": " << hits << ", \"misses\": " << misses
     << ", \"evictions\": " << evictions << "}";
  return os.str();
}

/// --trace/--metrics handling shared by the bench drivers: start() right
/// after flag parsing, finish() after the workload. --trace records the
/// whole run in one obs::TraceSession and writes Chrome trace JSON;
/// --metrics snapshots the registry at the end (Prometheus text for
/// .prom/.txt paths, JSON otherwise). Both work whether or not the
/// library was compiled with SEGROUTE_OBS=ON — with it OFF the files
/// are simply empty of library activity.
struct ObsOutputs {
  std::string trace_path;
  std::string metrics_path;
  std::optional<obs::TraceSession> session;

  /// Consumes "--trace PATH" / "--metrics PATH" at argv[i]; returns
  /// true (and advances i past the value) when the flag was one of ours.
  bool parse_flag(int argc, char** argv, int& i) {
    const std::string a = argv[i];
    if (a == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
      return true;
    }
    if (a == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
      return true;
    }
    return false;
  }

  void start() {
    if (trace_path.empty()) return;
    session.emplace(1 << 16);
    if (!session->start()) {
      std::cerr << "--trace: another trace session is already active\n";
      session.reset();
    }
  }

  void finish(std::ostream& log) {
    if (session) {
      session->stop();
      std::ofstream out(trace_path);
      session->write_chrome_trace(out);
      log << "wrote trace " << trace_path << " (" << session->events().size()
          << " events, " << session->dropped() << " dropped)\n";
    }
    if (!metrics_path.empty()) {
      const bool prom = metrics_path.ends_with(".prom") ||
                        metrics_path.ends_with(".txt");
      std::ofstream out(metrics_path);
      out << (prom ? obs::Registry::instance().prometheus_text()
                   : obs::Registry::instance().json_text());
      log << "wrote metrics " << metrics_path << "\n";
    }
  }
};

}  // namespace segroute::bench
