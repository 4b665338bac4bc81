// The service workloads — svc-hot, svc-cold and svc-edit. Each is a
// closed loop driven by one generator thread that keeps a fixed number
// of requests outstanding against a live svc::RoutingService and times
// every request from submit() to its future resolving.
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "harness/verify.h"
#include "obs/metrics.h"
#include "svc/service.h"

namespace segbench {
namespace {

struct Spec {
  int outstanding;  // requests the generator keeps in flight
  bool warm;        // route the read pool once during set-up
  bool edits;       // alternate reads 1:1 with session edits
  bool cold;        // every read is a distinct, uncached instance
};

Spec spec_of(const std::string& w) {
  if (w == "svc-hot") return {8, true, false, false};
  if (w == "svc-cold") return {4, false, false, true};
  return {8, true, true, false};  // svc-edit
}

// Far above the engine's 256-entry memo cache, so cycling through them
// never hits.
constexpr int kColdInstances = 4096;
constexpr int kPublishCalls = 500;

/// The system under test. Not movable: the service borrows the channel,
/// and members are destroyed in reverse order, service first.
struct Live {
  std::unique_ptr<SegmentedChannel> ch;
  std::unique_ptr<svc::RoutingService> svc;
  std::vector<std::uint64_t> sessions;

  Live() = default;
  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;
};

std::string edit_tenant(std::size_t session) {
  return "edit" + std::to_string(session);
}

/// Read answers, checked off the timed path. The first routing returned
/// for each instance is kept and verified by harness::RouteVerifier once
/// the run is over; every later answer for that instance is compared with
/// it, and verified on the spot only if it differs, which a memo cache or
/// a deterministic DP never does.
class Answers {
 public:
  Answers(const SegmentedChannel& ch, const std::vector<ConnectionSet>& reads)
      : ch_(ch), reads_(reads), first_(reads.size()) {}

  /// Checks one read's response; false (the failure recorded) if wrong.
  bool check(std::size_t input, const svc::SvcResponse& r, Outcome& out) {
    if (r.admit != svc::Admit::kAccepted) {
      out.fail(std::string("read rejected: ") + svc::to_string(r.admit));
      return false;
    }
    if (!r.result.success) {
      out.fail("read not routed: " + r.result.note);
      return false;
    }
    std::optional<Routing>& first = first_[input];
    if (!first) {
      first = r.result.routing;
      return true;
    }
    return *first == r.result.routing || verify(input, r.result.routing, out);
  }

  /// Verifies the kept first answers.
  void verify_first(Outcome& out) const {
    for (std::size_t i = 0; i < first_.size(); ++i) {
      if (first_[i]) verify(i, *first_[i], out);
    }
  }

 private:
  bool verify(std::size_t input, const Routing& routing, Outcome& out) const {
    const harness::VerifyResult v =
        harness::RouteVerifier(ch_, reads_[input]).check(routing);
    if (!v) out.fail("read routing fails RouteVerifier: " + v.detail);
    return static_cast<bool>(v);
  }

  const SegmentedChannel& ch_;
  const std::vector<ConnectionSet>& reads_;
  std::vector<std::optional<Routing>> first_;
};

/// Builds the channel and service, starts it, warms the memo cache on the
/// read pool and opens the edit sessions — everything set-up time covers.
std::unique_ptr<Live> set_up(const Spec& s,
                             const std::vector<ConnectionSet>& reads,
                             Answers& answers, Outcome& out) {
  auto live = std::make_unique<Live>();
  live->ch = std::make_unique<SegmentedChannel>(s.cold ? cold_channel()
                                                       : hot_channel());
  svc::SvcOptions o;
  o.threads = kSvcThreads;
  o.queue_capacity = 4096;
  o.drain_window = 64;
  live->svc = std::make_unique<svc::RoutingService>(*live->ch, o);
  live->svc->start();
  if (s.warm) {
    std::vector<std::future<svc::SvcResponse>> futs;
    futs.reserve(reads.size());
    for (const ConnectionSet& cs : reads) {
      svc::SvcRequest rq;
      rq.tenant = "read";
      rq.connections = cs;
      futs.push_back(live->svc->submit(std::move(rq)));
    }
    for (std::size_t i = 0; i < futs.size(); ++i) {
      ++out.attempted;
      answers.check(i, futs[i].get(), out);
    }
  }
  if (s.edits) {
    for (std::size_t i = 0; i < static_cast<std::size_t>(kEditSessions); ++i) {
      const std::uint64_t id = live->svc->open_session(edit_tenant(i));
      out.check(id != 0, "open_session rejected");
      live->sessions.push_back(id);
    }
  }
  return live;
}

/// Generator state that carries across the phases of one run.
struct Gen {
  Gen(std::uint64_t seed, Column width) : pick(sub_seed(seed, 4)) {
    for (int i = 0; i < kEditSessions; ++i) scripts.emplace_back(seed, i, width);
    busy.assign(kEditSessions, false);
  }
  std::mt19937_64 pick;
  std::size_t cursor = 0;  // svc-cold: next distinct instance
  std::vector<EditScript> scripts;
  std::vector<bool> busy;  // session has an edit in flight
  std::size_t next_session = 0;
  bool edit_next = false;
};

/// What one phase of the loop measured.
struct Phase {
  double seconds = 0.0;
  Samples ops;    // every response completed within the phase
  Samples reads;  // ... of which batch reads
  Samples edits;  // ... of which session edits
  std::uint64_t edits_applied = 0, edits_infeasible = 0, edit_fulldp = 0;
  svc::SvcStats stats0, stats1;
  engine::CacheStats cache0, cache1;

  // Traced phase only; batch reads.
  Samples submit_us, queue_us, service_us, handoff_us;
  std::vector<double> scrape_us;
  std::size_t exposition_bytes = 0;

  [[nodiscard]] double ops_per_s() const {
    return static_cast<double>(ops.count()) / seconds;
  }
};

struct Pending {
  std::future<svc::SvcResponse> fut;
  Clock::time_point t0;
  double submit_us = 0.0;
  bool edit = false;
  std::size_t input = 0;  // read: instance index; edit: session index
  alg::ChannelEdit e;
};

class Loop {
 public:
  Loop(Live& live, const Spec& s, const std::vector<ConnectionSet>& reads,
       Answers& answers, Gen& gen, Outcome& out)
      : live_(live), s_(s), reads_(reads), answers_(answers), gen_(gen),
        out_(out) {}

  /// Runs the closed loop for `seconds`, then drains what is in flight;
  /// adds what it measured to `ph`, so a phase may span several slices.
  void run(double seconds, bool traced, Phase& ph) {
    traced_ = traced;
    if (ph.seconds == 0.0) {
      ph.stats0 = live_.svc->stats();
      ph.cache0 = live_.svc->engine().cache_stats();
    }
    ph.seconds += seconds;
    const Clock::time_point t0 = Clock::now();
    end_ = t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    Clock::time_point next_scrape = t0;
    while (true) {
      const Clock::time_point now = Clock::now();
      if (now >= end_) break;
      if (now >= next_scrape) {
        scrape(ph);
        next_scrape += std::chrono::seconds(1);
      }
      while (static_cast<int>(q_.size()) < s_.outstanding) submit_next(ph);
      resolve_front(ph);
    }
    while (!q_.empty()) resolve_front(ph);
    ph.stats1 = live_.svc->stats();
    ph.cache1 = live_.svc->engine().cache_stats();
  }

  /// Untimed: every edit a session refused as infeasible must leave its
  /// live set unroutable from scratch too.
  void check_refusals() {
    for (const ConnectionSet& cs : refused_) {
      out_.check(!alg::from_scratch(*live_.ch, cs, true, 0).result.success,
                 "edit refused as infeasible, but alg::from_scratch routes "
                 "the live set with it");
    }
    refused_.clear();
  }

 private:
  /// Renders the exposition once, as a scraper polling /metrics would.
  void scrape(Phase& ph) {
    const Clock::time_point a = Clock::now();
    std::string text;
    {
      obs::Span sp("obs.scrape");
      text = obs::Registry::instance().prometheus_text();
    }
    if (traced_) {
      ph.scrape_us.push_back(us_between(a, Clock::now()));
      ph.exposition_bytes = text.size();
    }
  }

  void submit_next(Phase& ph) {
    Pending p;
    svc::SvcRequest rq;
    p.edit = s_.edits && gen_.edit_next;
    if (s_.edits) gen_.edit_next = !gen_.edit_next;
    if (p.edit) {
      p.input = gen_.next_session;
      gen_.next_session = (gen_.next_session + 1) % kEditSessions;
      // A session's next edit depends on its previous outcome.
      while (gen_.busy[p.input]) resolve_front(ph);
      p.e = gen_.scripts[p.input].next();
      gen_.busy[p.input] = true;
      rq.tenant = edit_tenant(p.input);
      rq.session = live_.sessions[p.input];
      rq.edit = p.e;
    } else {
      p.input = s_.cold ? gen_.cursor++ % reads_.size()
                        : static_cast<std::size_t>(gen_.pick() % reads_.size());
      rq.tenant = "read";
      rq.connections = reads_[p.input];
    }
    p.t0 = Clock::now();
    {
      obs::Span sp("svc.submit");
      p.fut = live_.svc->submit(std::move(rq));
    }
    if (traced_) p.submit_us = us_between(p.t0, Clock::now());
    q_.push_back(std::move(p));
  }

  void resolve_front(Phase& ph) {
    Pending p = std::move(q_.front());
    q_.pop_front();
    svc::SvcResponse r;
    {
      obs::Span sp("svc.wait");
      r = p.fut.get();
    }
    const Clock::time_point t1 = Clock::now();
    const double lat = us_between(p.t0, t1);
    ++out_.attempted;
    if (p.edit) {
      gen_.busy[p.input] = false;
      if (!resolve_edit(p, r, ph)) return;
    } else if (!answers_.check(p.input, r, out_)) {
      return;
    }
    // Responses drained after the phase ended are checked, not timed.
    if (t1 > end_) return;
    (p.edit ? ph.edits : ph.reads).add(lat);
    ph.ops.add(lat);
    if (traced_ && !p.edit) record(p, r, lat, ph);
  }

  bool resolve_edit(const Pending& p, const svc::SvcResponse& r, Phase& ph) {
    if (r.admit != svc::Admit::kAccepted) {
      out_.fail(std::string("edit rejected at admission: ") +
                svc::to_string(r.admit));
      return false;
    }
    if (r.repair.success) {
      gen_.scripts[p.input].applied(p.e, r.repair);
      ++ph.edits_applied;
      if (r.repair.path == alg::RepairOutcome::Path::kFullDp) ++ph.edit_fulldp;
      return true;
    }
    // Refusing an edit that leaves the live set unroutable is a correct
    // answer, checked after the run; anything else is not.
    if (r.repair.failure == alg::FailureKind::kInfeasible) {
      ++ph.edits_infeasible;
      refused_.push_back(gen_.scripts[p.input].live_set(&p.e));
      return true;
    }
    out_.fail("edit failed: " + r.result.note);
    return false;
  }

  void record(const Pending& p, const svc::SvcResponse& r, double lat,
              Phase& ph) {
    const double queue = r.queue_ms * 1e3;
    const double service = r.service_ms * 1e3;
    ph.submit_us.add(p.submit_us);
    ph.queue_us.add(queue);
    ph.service_us.add(service);
    ph.handoff_us.add(lat - queue - service);
  }

  Live& live_;
  const Spec& s_;
  const std::vector<ConnectionSet>& reads_;
  Answers& answers_;
  Gen& gen_;
  Outcome& out_;
  bool traced_ = false;
  Clock::time_point end_;
  std::deque<Pending> q_;
  std::vector<ConnectionSet> refused_;  // live sets with a refused edit
};

/// Final state check of every edit session: it must hold the live set its
/// script's outcomes imply, routed as alg::from_scratch routes that set.
void check_sessions(Live& live, const Gen& gen, Outcome& out) {
  for (std::size_t i = 0; i < live.sessions.size(); ++i) {
    const auto snap = live.svc->session_snapshot(live.sessions[i]);
    if (!out.check(snap.has_value(), "session vanished")) continue;
    const alg::CanonicalResult canon =
        alg::from_scratch(*live.ch, snap->first, true, 0);
    out.check(canon.result.success && canon.result.routing == snap->second &&
                  same_spans(snap->first, gen.scripts[i].live_set()),
              "session " + std::to_string(i) +
                  " differs from alg::from_scratch of its live set");
  }
}

/// The svc, engine and obs per-layer metrics of a traced phase. Returns
/// the window fill (served requests per tick).
double report_svc_layers(Live& live, const Phase& b) {
  const double ticks = static_cast<double>(b.stats1.ticks - b.stats0.ticks);
  const double served = static_cast<double>(b.stats1.served - b.stats0.served);
  const double fill = ticks > 0 ? served / ticks : 0.0;

  std::vector<double> publish;
  publish.reserve(kPublishCalls);
  for (int i = 0; i < kPublishCalls; ++i) {
    const Clock::time_point a = Clock::now();
    {
      obs::Span sp("svc.publish_metrics");
      live.svc->publish_metrics();
    }
    publish.push_back(us_between(a, Clock::now()));
  }
  const double publish_us = median(publish);
  const double ticks_per_s = ticks / b.seconds;

  const std::size_t n = b.submit_us.count();
  metric("svc.submit_us", b.submit_us.pct(0.5), "us", n);
  metric("svc.queue_wait_p50_us", b.queue_us.pct(0.5), "us", n);
  metric("svc.queue_wait_p99_us", b.queue_us.pct(0.99), "us", n);
  metric("svc.service_p50_us", b.service_us.pct(0.5), "us", n);
  metric("svc.service_p99_us", b.service_us.pct(0.99), "us", n);
  metric("svc.handoff_us", b.handoff_us.pct(0.5), "us", n);
  metric("svc.window_fill", fill, "req/tick",
         static_cast<std::size_t>(ticks));
  metric("svc.publish_metrics_us", publish_us, "us", publish.size());
  metric("svc.publish_share", publish_us * ticks_per_s / 1e6, "fraction",
         static_cast<std::size_t>(ticks));

  const double hits = static_cast<double>(b.cache1.hits - b.cache0.hits);
  const double misses = static_cast<double>(b.cache1.misses - b.cache0.misses);
  metric("engine.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
         "fraction", static_cast<std::size_t>(hits + misses));
  metric("engine.evictions",
         static_cast<double>(b.cache1.evictions - b.cache0.evictions), "count",
         1);
  metric("obs.scrape_us", median(b.scrape_us), "us", b.scrape_us.size());
  metric("obs.exposition_bytes", static_cast<double>(b.exposition_bytes),
         "bytes", b.scrape_us.size());
  return fill;
}

void report_edits(const Phase& ph) {
  std::printf(
      "edits: %llu applied (%llu by full-DP fallback), %llu refused as "
      "infeasible\n",
      static_cast<unsigned long long>(ph.edits_applied),
      static_cast<unsigned long long>(ph.edit_fulldp),
      static_cast<unsigned long long>(ph.edits_infeasible));
}

}  // namespace

void run_svc(const RunArgs& a, Outcome& out) {
  const Spec s = spec_of(a.workload);
  const SegmentedChannel input_ch = s.cold ? cold_channel() : hot_channel();
  const std::vector<ConnectionSet> reads =
      s.cold ? cold_instances(input_ch, a.seed, kColdInstances)
             : hot_pool(input_ch, a.seed);
  fact("svc.threads", std::to_string(kSvcThreads));
  fact("generator.outstanding", std::to_string(s.outstanding));
  fact("generator.threads", "1");

  // Set-up is repeated and its median reported. The first burst's last
  // system is the one measured; later bursts build and drop spare ones
  // while it idles between slices.
  Answers answers(input_ch, reads);
  std::vector<double> setup;
  const auto set_up_burst = [&](int reps) {
    std::unique_ptr<Live> live;
    for (int rep = 0; rep < reps; ++rep) {
      live.reset();
      const Clock::time_point t0 = Clock::now();
      live = set_up(s, reads, answers, out);
      setup.push_back(us_between(t0, Clock::now()) / 1e6);
    }
    return live;
  };
  const std::unique_ptr<Live> live =
      set_up_burst(a.trace != nullptr ? 1 : kSetupReps);
  const double setup_rss = peak_rss_mb();

  Gen gen(a.seed, input_ch.width());
  Loop loop(*live, s, reads, answers, gen, out);
  const auto finish = [&] {
    check_sessions(*live, gen, out);
    live->svc->stop();
    loop.check_refusals();
    answers.verify_first(out);
  };
  if (a.trace == nullptr) {
    Phase ph;
    for (int slice = 0; slice < kSetupBursts; ++slice) {
      if (slice > 0) set_up_burst(kSetupReps);
      loop.run(a.seconds / kSetupBursts, false, ph);
    }
    finish();
    metric("setup_s", median(setup), "s", setup.size());
    metric("setup_rss_mb", setup_rss, "MB", 1);
    metric("ops_per_s", ph.ops_per_s(), "1/s", ph.ops.count());
    metric("latency_p50_us", ph.reads.pct(0.50), "us", ph.reads.count());
    metric("latency_p90_us", ph.reads.pct(0.90), "us", ph.reads.count());
    metric("latency_p99_us", ph.reads.pct(0.99), "us", ph.reads.count());
    if (s.edits) {
      metric("edit_p50_us", ph.edits.pct(0.50), "us", ph.edits.count());
      metric("edit_p99_us", ph.edits.pct(0.99), "us", ph.edits.count());
      report_edits(ph);
    }
    return;
  }

  // Traced run: half untraced, half traced on the same warmed service;
  // the difference is the tracing overhead.
  const double half = a.seconds / 2;
  Phase untraced, traced;
  loop.run(half, false, untraced);
  a.trace->start();
  loop.run(half, true, traced);
  const double fill = report_svc_layers(*live, traced);
  metric("trace.overhead_p50_us",
         traced.reads.pct(0.5) - untraced.reads.pct(0.5), "us",
         traced.reads.count());
  metric("trace.overhead_ops_per_s", traced.ops_per_s() - untraced.ops_per_s(),
         "1/s", traced.ops.count());
  if (s.edits) report_edits(traced);
  finish();
  run_probes(a, fill, *live->ch, out);
}

double run_svc_layer_probe(std::uint64_t seed, double seconds, Outcome& out) {
  const Spec s = spec_of("svc-hot");
  const SegmentedChannel input_ch = hot_channel();
  const std::vector<ConnectionSet> reads = hot_pool(input_ch, seed);
  Answers answers(input_ch, reads);
  const std::unique_ptr<Live> live = set_up(s, reads, answers, out);
  Gen gen(seed, input_ch.width());
  Loop loop(*live, s, reads, answers, gen, out);
  Phase ph;
  loop.run(seconds, true, ph);
  const double fill = report_svc_layers(*live, ph);
  live->svc->stop();
  answers.verify_first(out);
  return fill;
}

}  // namespace segbench
