// Prometheus text-format (0.0.4) parser and exposition self-check.
//
// The /metrics endpoint (svc/http.h) serves obs::Registry's exposition
// to external scrapers; a malformed exposition fails silently at the
// scraper, far from the bug. This parser closes the loop in-process:
// the smoke tests and bench drivers parse the exact bytes the endpoint
// serves and cross-check every sample against a registry snapshot —
// names sanitized by the registry's own obs::prom_name, counter/gauge
// values equal, histogram buckets cumulative and consistent with their
// _sum/_count series.
//
// The parser accepts the subset the registry emits (and any conformant
// superset): `# TYPE`/`# HELP` comments, bare samples, and samples with
// a {label="value",...} set. It does not aim to be a full scrape-parser
// — no escaped newlines in label values, no timestamps — both of which
// the registry never produces.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace segroute::svc {

/// One parsed sample line: `name{labels} value`.
struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

/// Result of parsing one exposition. `ok` is false on the first
/// malformed line; `error` then says which and why.
struct PromText {
  bool ok = true;
  std::string error;
  std::vector<PromSample> samples;
  /// Declared metric families: name -> "counter" | "gauge" | "histogram".
  std::map<std::string, std::string> types;

  /// First sample with this exact name and no labels; nullptr if absent.
  [[nodiscard]] const PromSample* find(std::string_view name) const;
  /// Value of `find(name)`, or `fallback`.
  [[nodiscard]] double value_or(std::string_view name, double fallback) const;
};

/// Parses a text exposition. Never throws; inspect `ok`/`error`.
PromText parse_prometheus_text(std::string_view text);

/// Round-trip check: parses `text` and verifies it is a faithful
/// exposition of `snap` — every counter/gauge appears under its
/// sanitized name with the snapshot's value, every histogram's buckets
/// are cumulative, end at the `_count` total, and carry a matching
/// `_sum`; and every sample in `text` is declared by a `# TYPE` line.
/// Returns the empty string when consistent, else the first mismatch.
std::string check_exposition(std::string_view text,
                             const obs::MetricsSnapshot& snap);

}  // namespace segroute::svc
