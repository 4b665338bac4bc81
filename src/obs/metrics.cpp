#include "obs/metrics.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "io/json.h"

namespace segroute::obs {

// --- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), shards_(detail::kShards) {
  for (auto& s : shards_) {
    s.counts = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
  }
}

void Histogram::observe(double v) {
  // Bucket = first bound >= v; bounds are short (tens), a branchless
  // binary search would not beat this linear scan in practice.
  std::size_t b = 0;
  while (b < bounds_.size() && v > bounds_[b]) ++b;
  Shard& s = shards_[detail::shard_id()];
  s.counts[b].fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(s.sum, v);
}

void Histogram::observe_range(const std::size_t* vs, std::size_t n) {
  if (n == 0) return;
  constexpr std::size_t kMaxLocal = 33;  // bounds lists here are short
  const std::size_t nb = bounds_.size() + 1;
  if (nb > kMaxLocal) {
    for (std::size_t i = 0; i < n; ++i) observe(static_cast<double>(vs[i]));
    return;
  }
  std::uint64_t local[kMaxLocal] = {};
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(vs[i]);
    std::size_t b = 0;
    while (b < bounds_.size() && v > bounds_[b]) ++b;
    ++local[b];
    sum += v;
  }
  Shard& s = shards_[detail::shard_id()];
  for (std::size_t b = 0; b < nb; ++b) {
    if (local[b] != 0) s.counts[b].fetch_add(local[b], std::memory_order_relaxed);
  }
  detail::atomic_add(s.sum, sum);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot out;
  out.bounds = bounds_;
  out.counts.assign(bounds_.size() + 1, 0);
  for (const Shard& s : shards_) {
    for (std::size_t b = 0; b < out.counts.size(); ++b) {
      out.counts[b] += s.counts[b].load(std::memory_order_relaxed);
    }
    out.sum += s.sum.load(std::memory_order_relaxed);
  }
  for (std::uint64_t c : out.counts) out.total += c;
  return out;
}

void Histogram::reset() {
  for (Shard& s : shards_) {
    for (auto& c : s.counts) c.store(0, std::memory_order_relaxed);
    s.sum.store(0.0, std::memory_order_relaxed);
  }
}

// --- Registry --------------------------------------------------------------

struct Registry::Impl {
  mutable std::mutex mu;
  // std::map: stable addresses are provided by the unique_ptr, sorted
  // iteration gives the deterministic exposition order for free.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;

  // Held while collectors run, so remove_collector() waits out a run.
  std::mutex collect_mu;
  std::map<std::uint64_t, std::function<void()>> collectors;
  std::uint64_t next_collector = 1;
};

Registry& Registry::instance() {
  // Leaked on purpose: instrumented code may run from thread_local
  // destructors after static destruction begins.
  static Registry* reg = new Registry();
  return *reg;
}

Registry::Impl& Registry::impl() const {
  static Impl* impl = new Impl();
  return *impl;
}

Counter& Registry::counter(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.counters.find(name);
  if (it == im.counters.end()) {
    it = im.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.gauges.find(name);
  if (it == im.gauges.end()) {
    it = im.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.histograms.find(name);
  if (it == im.histograms.end()) {
    it = im.histograms
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

std::uint64_t Registry::add_collector(std::function<void()> fn) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.collect_mu);
  const std::uint64_t id = im.next_collector++;
  im.collectors.emplace(id, std::move(fn));
  return id;
}

void Registry::remove_collector(std::uint64_t id) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.collect_mu);
  im.collectors.erase(id);
}

MetricsSnapshot Registry::snapshot() const {
  Impl& im = impl();
  {
    std::lock_guard<std::mutex> lock(im.collect_mu);
    for (const auto& [id, fn] : im.collectors) fn();
  }
  std::lock_guard<std::mutex> lock(im.mu);
  MetricsSnapshot out;
  for (const auto& [name, c] : im.counters) {
    out.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, g] : im.gauges) {
    out.gauges.emplace_back(name, g->value());
  }
  for (const auto& [name, h] : im.histograms) {
    out.histograms.emplace_back(name, h->snapshot());
  }
  return out;
}

void Registry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (auto& [name, c] : im.counters) c->reset();
  for (auto& [name, g] : im.gauges) g->reset();
  for (auto& [name, h] : im.histograms) h->reset();
}

std::string prom_name(const std::string& name) {
  std::string out = "segroute_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

namespace {

std::string num(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace

std::string Registry::prometheus_text() const {
  const MetricsSnapshot snap = snapshot();
  std::ostringstream os;
  for (const auto& [name, v] : snap.counters) {
    const std::string pn = prom_name(name);
    os << "# TYPE " << pn << " counter\n" << pn << " " << v << "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string pn = prom_name(name);
    os << "# TYPE " << pn << " gauge\n" << pn << " " << num(v) << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string pn = prom_name(name);
    os << "# TYPE " << pn << " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      cum += h.counts[b];
      os << pn << "_bucket{le=\"" << num(h.bounds[b]) << "\"} " << cum << "\n";
    }
    os << pn << "_bucket{le=\"+Inf\"} " << h.total << "\n";
    os << pn << "_sum " << num(h.sum) << "\n";
    os << pn << "_count " << h.total << "\n";
  }
  return os.str();
}

std::string Registry::json_text() const {
  const MetricsSnapshot snap = snapshot();
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    os << (i ? "," : "") << "\n    \""
       << io::json_escape(snap.counters[i].first)
       << "\": " << snap.counters[i].second;
  }
  os << (snap.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    os << (i ? "," : "") << "\n    \"" << io::json_escape(snap.gauges[i].first)
       << "\": " << num(snap.gauges[i].second);
  }
  os << (snap.gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& [name, h] = snap.histograms[i];
    os << (i ? "," : "") << "\n    \"" << io::json_escape(name)
       << "\": {\"bounds\": [";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      os << (b ? ", " : "") << num(h.bounds[b]);
    }
    os << "], \"counts\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      os << (b ? ", " : "") << h.counts[b];
    }
    os << "], \"sum\": " << num(h.sum) << ", \"count\": " << h.total << "}";
  }
  os << (snap.histograms.empty() ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

}  // namespace segroute::obs
