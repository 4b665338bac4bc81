#include "svc/prom.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace segroute::svc {

namespace {

/// Splits off the next line (without its '\n'); empty optional at end.
bool next_line(std::string_view& text, std::string_view& line) {
  if (text.empty()) return false;
  const std::size_t nl = text.find('\n');
  if (nl == std::string_view::npos) {
    line = text;
    text = {};
  } else {
    line = text.substr(0, nl);
    text.remove_prefix(nl + 1);
  }
  return true;
}

bool is_name_char(char c, bool first) {
  const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                     c == '_' || c == ':';
  return alpha || (!first && c >= '0' && c <= '9');
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool parse_value(std::string_view s, double& out) {
  s = trim(s);
  if (s.empty()) return false;
  const std::string buf(s);
  char* end = nullptr;
  out = std::strtod(buf.c_str(), &end);
  return end == buf.c_str() + buf.size();
}

std::string fail(PromText& out, std::size_t lineno, const std::string& why) {
  std::ostringstream os;
  os << "line " << lineno << ": " << why;
  out.ok = false;
  out.error = os.str();
  return out.error;
}

bool close_enough(double a, double b) {
  // The exposition prints 12 significant digits; compare to that.
  const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= 1e-9 * scale;
}

}  // namespace

const PromSample* PromText::find(std::string_view name) const {
  for (const PromSample& s : samples) {
    if (s.name == name && s.labels.empty()) return &s;
  }
  return nullptr;
}

double PromText::value_or(std::string_view name, double fallback) const {
  const PromSample* s = find(name);
  return s ? s->value : fallback;
}

PromText parse_prometheus_text(std::string_view text) {
  PromText out;
  std::string_view line;
  std::size_t lineno = 0;
  while (next_line(text, line)) {
    ++lineno;
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '#') {
      // `# TYPE <name> <type>`; every other comment (HELP, freeform) is
      // skipped.
      std::istringstream is{std::string(line.substr(1))};
      std::string word, name, type;
      is >> word;
      if (word != "TYPE") continue;
      if (!(is >> name >> type) ||
          (type != "counter" && type != "gauge" && type != "histogram" &&
           type != "summary" && type != "untyped")) {
        fail(out, lineno, "malformed TYPE comment");
        return out;
      }
      out.types[name] = type;
      continue;
    }
    PromSample sample;
    std::size_t i = 0;
    while (i < line.size() && is_name_char(line[i], i == 0)) ++i;
    if (i == 0) {
      fail(out, lineno, "sample does not start with a metric name");
      return out;
    }
    sample.name = std::string(line.substr(0, i));
    if (i < line.size() && line[i] == '{') {
      const std::size_t close = line.find('}', i);
      if (close == std::string_view::npos) {
        fail(out, lineno, "unterminated label set");
        return out;
      }
      std::string_view labels = line.substr(i + 1, close - i - 1);
      while (!labels.empty()) {
        const std::size_t eq = labels.find('=');
        if (eq == std::string_view::npos || labels.size() < eq + 3 ||
            labels[eq + 1] != '"') {
          fail(out, lineno, "malformed label");
          return out;
        }
        const std::size_t endq = labels.find('"', eq + 2);
        if (endq == std::string_view::npos) {
          fail(out, lineno, "unterminated label value");
          return out;
        }
        sample.labels.emplace(trim(labels.substr(0, eq)),
                              labels.substr(eq + 2, endq - eq - 2));
        labels.remove_prefix(endq + 1);
        if (!labels.empty()) {
          if (labels.front() != ',') {
            fail(out, lineno, "expected ',' between labels");
            return out;
          }
          labels.remove_prefix(1);
        }
      }
      i = close + 1;
    }
    if (!parse_value(line.substr(i), sample.value)) {
      fail(out, lineno, "malformed sample value");
      return out;
    }
    out.samples.push_back(std::move(sample));
  }
  return out;
}

std::string check_exposition(std::string_view text,
                             const obs::MetricsSnapshot& snap) {
  const PromText parsed = parse_prometheus_text(text);
  if (!parsed.ok) return "parse error: " + parsed.error;

  // Every sample must belong to a declared family (histograms declare
  // the base name; their series carry _bucket/_sum/_count suffixes).
  for (const PromSample& s : parsed.samples) {
    if (parsed.types.count(s.name) != 0) continue;
    std::string base = s.name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string suf(suffix);
      if (base.size() > suf.size() &&
          base.compare(base.size() - suf.size(), suf.size(), suf) == 0) {
        base = base.substr(0, base.size() - suf.size());
        break;
      }
    }
    const auto it = parsed.types.find(base);
    if (it == parsed.types.end() || it->second != "histogram") {
      return "undeclared sample: " + s.name;
    }
  }

  for (const auto& [name, v] : snap.counters) {
    const std::string pn = obs::prom_name(name);
    const PromSample* s = parsed.find(pn);
    if (!s) return "missing counter " + pn;
    if (!close_enough(s->value, static_cast<double>(v))) {
      return "counter " + pn + " value mismatch";
    }
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string pn = obs::prom_name(name);
    const PromSample* s = parsed.find(pn);
    if (!s) return "missing gauge " + pn;
    if (!close_enough(s->value, v)) return "gauge " + pn + " value mismatch";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string pn = obs::prom_name(name);
    // Buckets, in exposition order, must be cumulative and end at +Inf
    // with the series total.
    double prev = 0.0;
    bool saw_inf = false;
    std::uint64_t expect_cum = 0;
    std::size_t bucket_i = 0;
    for (const PromSample& s : parsed.samples) {
      if (s.name != pn + "_bucket") continue;
      const auto le = s.labels.find("le");
      if (le == s.labels.end()) return pn + "_bucket without le label";
      if (s.value + 1e-9 < prev) return pn + " buckets not cumulative";
      prev = s.value;
      if (le->second == "+Inf") {
        saw_inf = true;
        if (!close_enough(s.value, static_cast<double>(h.total))) {
          return pn + " +Inf bucket != total";
        }
      } else {
        if (bucket_i >= h.counts.size()) return pn + " extra bucket";
        expect_cum += h.counts[bucket_i++];
        if (!close_enough(s.value, static_cast<double>(expect_cum))) {
          return pn + " bucket cumulative mismatch";
        }
      }
    }
    if (!saw_inf) return pn + " missing +Inf bucket";
    const PromSample* count_s = parsed.find(pn + "_count");
    if (!count_s || !close_enough(count_s->value,
                                  static_cast<double>(h.total))) {
      return pn + "_count mismatch";
    }
    const PromSample* sum_s = parsed.find(pn + "_sum");
    if (!sum_s || !close_enough(sum_s->value, h.sum)) {
      return pn + "_sum mismatch";
    }
  }
  return {};
}

}  // namespace segroute::svc
