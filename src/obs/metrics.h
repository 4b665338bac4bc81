// Process-wide metrics registry: named counters, gauges and
// fixed-bucket histograms, cheap enough to update from router hot paths.
//
// Design constraints, in order:
//   1. an update must never perturb the code it measures — no locks, no
//      allocation, no syscalls on the update path;
//   2. concurrent updates from pool workers must not contend — every
//      metric is backed by per-thread shards (cache-line padded relaxed
//      atomics) that are only summed at snapshot time;
//   3. snapshots may race with updates — a snapshot is a consistent
//      *per-shard* read, so it can be mid-update across shards, but it
//      is data-race-free and monotone for counters.
//
// Registration is by name and idempotent: `Registry::counter("x")`
// returns the same object for the life of the process, so call sites
// cache a `static Counter&` (the SEGROUTE_* macros in obs/instrument.h
// do exactly that) and the per-update cost is one relaxed fetch_add.
// Metric objects are never destroyed before process exit.
//
// Exposition: `prometheus_text()` (text format 0.0.4, names sanitized
// and prefixed `segroute_`, histogram buckets cumulative with `le`
// labels) and `json_text()` (exact names, non-cumulative buckets) —
// both deterministic orderings for golden-file diffs. `reset()` zeroes
// every value but keeps registrations, for tests and benches.
//
// Collectors: state that already lives elsewhere (a service's queue
// depth, a cache's per-shard counters) is not pushed into gauges on
// every update. Its owner registers a collector with `add_collector()`,
// and every snapshot — so every exposition — runs the collectors first,
// computing those gauges at scrape time.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace segroute::obs {

namespace detail {

/// Number of per-metric shards. A power of two; more shards = less
/// false sharing between unrelated threads at ~1 KiB per metric.
inline constexpr unsigned kShards = 16;

inline std::atomic<unsigned>& shard_counter() {
  static std::atomic<unsigned> counter{0};
  return counter;
}

/// The calling thread's shard index, assigned round-robin on first use.
inline unsigned shard_id() {
  thread_local const unsigned id =
      shard_counter().fetch_add(1, std::memory_order_relaxed) % kShards;
  return id;
}

struct alignas(64) U64Shard {
  std::atomic<std::uint64_t> v{0};
};

/// Relaxed add on an atomic double (no fetch_add for floats pre-C++20
/// on all toolchains; the CAS loop is uncontended per shard anyway).
inline void atomic_add(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotone event count. add() is one relaxed fetch_add on the calling
/// thread's shard.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    shards_[detail::shard_id()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() { add(1); }

  /// Sum over shards. May run concurrently with add().
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  detail::U64Shard shards_[detail::kShards];
};

/// Last-written (or running-max) level. A gauge is one atomic — gauges
/// record states, not rates, so the last writer winning is the point.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }

  /// Raises the gauge to v if v is larger (high-water marks).
  void set_max(double v) {
    double cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations with
/// v <= bounds[i] and > bounds[i-1]; one implicit overflow bucket
/// catches everything above the last bound. Bounds are fixed at
/// registration and never change.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  /// Observes every value in [vs, vs + n). Snapshot-identical to n
  /// observe() calls, but buckets are aggregated locally first so each
  /// touched bucket costs one atomic update instead of one per value —
  /// the cheap way to flush a per-call series (e.g. DP level sizes) at
  /// finalization time.
  void observe_range(const std::size_t* vs, std::size_t n);

  struct Snapshot {
    std::vector<double> bounds;          // upper bounds, ascending
    std::vector<std::uint64_t> counts;   // bounds.size() + 1 entries
    std::uint64_t total = 0;             // sum of counts
    double sum = 0.0;                    // sum of observed values
  };
  [[nodiscard]] Snapshot snapshot() const;

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }

  void reset();

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;
  std::vector<Shard> shards_;
};

/// One coherent read of every registered metric, for programmatic
/// consumption (the text expositions are rendered from this).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
};

/// A metric's name in the Prometheus exposition: `segroute_` prefix,
/// every character outside [a-zA-Z0-9] replaced by '_'.
std::string prom_name(const std::string& name);

/// The process-wide registry. Registration takes a mutex (amortized
/// away by the static-reference idiom); updates touch only the metric's
/// own shards.
class Registry {
 public:
  static Registry& instance();

  /// Finds or creates. The returned reference is valid for the life of
  /// the process.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` must be ascending; ignored (the original bounds win) when
  /// the histogram already exists.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Registers `fn` to run at the start of every snapshot() (and so of
  /// prometheus_text() and json_text()), before the registry lock is
  /// taken, so it may register and set metrics. Collectors run one
  /// scrape at a time, in registration order. Returns the id for
  /// remove_collector().
  std::uint64_t add_collector(std::function<void()> fn);

  /// Unregisters a collector. Waits for a run of it in progress to end,
  /// so once this returns, what the collector captured may be destroyed.
  /// A collector must not call remove_collector() or snapshot() itself.
  void remove_collector(std::uint64_t id);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Prometheus text exposition (names sanitized, `segroute_` prefix,
  /// cumulative `le` buckets).
  [[nodiscard]] std::string prometheus_text() const;

  /// JSON snapshot: {"counters": {...}, "gauges": {...},
  /// "histograms": {...}} with exact metric names.
  [[nodiscard]] std::string json_text() const;

  /// Zeroes every metric, keeping all registrations (and therefore all
  /// cached static references) valid.
  void reset();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace segroute::obs
