#include "svc/service.h"

#include <algorithm>
#include <utility>

#include "obs/instrument.h"

namespace segroute::svc {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fold_u64(std::uint64_t acc, std::uint64_t v) {
  acc ^= v;
  acc *= kFnvPrime;
  return acc;
}

std::uint64_t str_digest(const std::string& s) {
  std::uint64_t h = kFnvOffset;
  for (const char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= kFnvPrime;
  }
  return h;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Latency histogram bounds (ms): sub-ms cache hits through multi-second
/// stragglers.
std::vector<double> latency_bounds() {
  return {0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000};
}

SvcOptions normalized(SvcOptions o) {
  o.threads = util::resolve_threads(o.threads);
  o.queue_capacity = std::max<std::size_t>(o.queue_capacity, 1);
  o.drain_window = std::max<std::size_t>(o.drain_window, 1);
  // The service's pool parallelizes across requests; a nested engine pool
  // would violate ThreadPool's no-reentrancy contract.
  o.engine.threads = 1;
  return o;
}

}  // namespace

const char* to_string(Admit a) {
  switch (a) {
    case Admit::kAccepted:
      return "accepted";
    case Admit::kQueueFull:
      return "queue-full";
    case Admit::kTenantLimit:
      return "tenant-limit";
    case Admit::kShuttingDown:
      return "shutting-down";
    case Admit::kInvalid:
      return "invalid";
  }
  return "?";
}

std::uint64_t fold_digest(std::uint64_t acc, const SvcResponse& r) {
  acc = fold_u64(acc, r.id);
  acc = fold_u64(acc, str_digest(r.tenant));
  acc = fold_u64(acc, static_cast<std::uint64_t>(r.admit));
  acc = fold_u64(acc, r.result.success ? 1 : 0);
  acc = fold_u64(acc, static_cast<std::uint64_t>(r.result.failure));
  acc = fold_u64(acc, r.fingerprint);
  const Routing& rt = r.result.routing;
  acc = fold_u64(acc, static_cast<std::uint64_t>(rt.size()));
  for (ConnId c = 0; c < rt.size(); ++c) {
    acc = fold_u64(acc, static_cast<std::uint64_t>(
                            static_cast<std::int64_t>(rt.track_of(c)) + 1));
  }
  acc = fold_u64(acc, r.enqueue_tick);
  acc = fold_u64(acc, r.start_tick);
  acc = fold_u64(acc, r.finish_tick);
  // Session fields enter the digest only for session responses, so the
  // digest of a pure-batch run (the committed bench baselines) is
  // byte-identical to what it was before edit sessions existed.
  if (r.session != 0) {
    acc = fold_u64(acc, r.session);
    acc = fold_u64(acc, r.repair.success ? 1 : 0);
    acc = fold_u64(acc, static_cast<std::uint64_t>(r.repair.path));
    acc = fold_u64(acc, static_cast<std::uint64_t>(r.repair.failure));
    acc = fold_u64(acc, static_cast<std::uint64_t>(
                            static_cast<std::uint32_t>(r.repair.id)));
    acc = fold_u64(
        acc,
        static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(r.repair.affected_lo)) |
            (static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(r.repair.affected_hi))
             << 32));
    acc = fold_u64(
        acc,
        static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(r.repair.reconsidered)) |
            (static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(r.repair.moved))
             << 32));
  }
  return acc;
}

std::uint64_t response_digest(const SvcResponse& r) {
  return fold_digest(kFnvOffset, r);
}

RoutingService::RoutingService(const SegmentedChannel& ch, SvcOptions opts)
    : opts_(normalized(std::move(opts))),
      engine_(ch, opts_.engine),
      pool_(opts_.threads),
      queue_depth_g_(obs::Registry::instance().gauge("svc.queue.depth")),
      cache_size_g_(obs::Registry::instance().gauge("svc.cache.size")),
      accepted_c_(obs::Registry::instance().counter("svc.accepted")),
      rejected_c_(obs::Registry::instance().counter("svc.rejected")),
      served_c_(obs::Registry::instance().counter("svc.served")),
      ticks_c_(obs::Registry::instance().counter("svc.ticks")),
      queue_ms_h_(obs::Registry::instance().histogram("svc.queue_ms",
                                                      latency_bounds())),
      service_ms_h_(obs::Registry::instance().histogram("svc.service_ms",
                                                        latency_bounds())) {}

RoutingService::~RoutingService() { stop(StopMode::kDrain); }

harness::Budget RoutingService::effective_budget(const SvcRequest& req) const {
  harness::Budget b = req.options.budget;
  std::uint64_t slice = opts_.slice_ticks;
  const auto it = opts_.tenant_slice_ticks.find(req.tenant);
  if (it != opts_.tenant_slice_ticks.end()) slice = it->second;
  if (slice > 0) {
    b.max_ticks = b.max_ticks == 0 ? slice : std::min(b.max_ticks, slice);
  }
  if (opts_.slice_ms) {
    b.deadline = b.deadline ? std::min(*b.deadline, *opts_.slice_ms)
                            : *opts_.slice_ms;
  }
  return b;
}

std::future<SvcResponse> RoutingService::submit(SvcRequest req) {
  Job job;
  job.req = std::move(req);
  std::future<SvcResponse> fut = job.prom.get_future();
  Admit admit = Admit::kAccepted;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    job.id = next_id_++;
    job.enqueue_tick = tick_.load(std::memory_order_relaxed);
    job.t_enqueue = Clock::now();
    ++stats_.submitted;
    const std::size_t cap = opts_.max_inflight_per_tenant;
    bool session_ok = true;
    if (job.req.session != 0) {
      const auto sit = sessions_.find(job.req.session);
      session_ok =
          sit != sessions_.end() && sit->second.tenant == job.req.tenant;
    }
    if (job.req.tenant.empty() || !session_ok) {
      admit = Admit::kInvalid;
      ++stats_.rejected_invalid;
    } else if (stopping_) {
      admit = Admit::kShuttingDown;
      ++stats_.rejected_shutdown;
    } else if (queue_.size() >= opts_.queue_capacity) {
      admit = Admit::kQueueFull;
      ++stats_.rejected_queue_full;
    } else if (cap > 0 && inflight_[job.req.tenant] >= cap) {
      admit = Admit::kTenantLimit;
      ++stats_.rejected_tenant_limit;
    } else {
      ++stats_.accepted;
      ++inflight_[job.req.tenant];
      queue_.push_back(std::move(job));
      cv_work_.notify_one();
    }
  }
  if (admit == Admit::kAccepted) {
    accepted_c_.inc();
    return fut;
  }
  rejected_c_.inc();
  SvcResponse resp;
  resp.id = job.id;
  resp.tenant = job.req.tenant;
  resp.admit = admit;
  resp.enqueue_tick = resp.start_tick = resp.finish_tick = job.enqueue_tick;
  resp.result.fail(admit == Admit::kInvalid
                       ? alg::FailureKind::kInvalidInput
                       : alg::FailureKind::kBudgetExhausted,
                   std::string("svc admission: ") + to_string(admit));
  job.prom.set_value(std::move(resp));
  return fut;
}

obs::Counter& RoutingService::tenant_counter(const std::string& tenant) {
  const auto it = tenant_served_.find(tenant);
  if (it != tenant_served_.end()) return *it->second;
  obs::Counter& c =
      obs::Registry::instance().counter("svc.tenant." + tenant + ".served");
  tenant_served_.emplace(tenant, &c);
  return c;
}

void RoutingService::finish_job(Job& job, SvcResponse resp) {
  queue_ms_h_.observe(resp.queue_ms);
  service_ms_h_.observe(resp.service_ms);
  served_c_.inc();
  obs::Counter* tenant_c;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    ++stats_.served;
    const auto it = inflight_.find(job.req.tenant);
    if (it != inflight_.end() && it->second > 0) --it->second;
    tenant_c = &tenant_counter(job.req.tenant);
  }
  tenant_c->inc();
  job.prom.set_value(std::move(resp));
}

void RoutingService::reject(Job job, Admit why) {
  rejected_c_.inc();
  SvcResponse resp;
  resp.id = job.id;
  resp.tenant = job.req.tenant;
  resp.admit = why;
  resp.enqueue_tick = job.enqueue_tick;
  resp.start_tick = resp.finish_tick = tick_.load(std::memory_order_relaxed);
  resp.queue_ms = ms_since(job.t_enqueue);
  resp.result.fail(alg::FailureKind::kBudgetExhausted,
                   std::string("svc admission: ") + to_string(why));
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    ++stats_.rejected_shutdown;
    const auto it = inflight_.find(job.req.tenant);
    if (it != inflight_.end() && it->second > 0) --it->second;
  }
  job.prom.set_value(std::move(resp));
}

void RoutingService::route_window(std::vector<Job>& window, std::uint64_t now) {
  SEGROUTE_SPAN(span, "svc.tick");
  SEGROUTE_SPAN_TAG(span, "window", static_cast<std::uint64_t>(window.size()));
  // Resolve every request's effective options up front, then route in two
  // phases — pure (unlimited-budget) requests first, budgeted ones after a
  // barrier. See the determinism argument in the file comment of
  // service.h: the barrier freezes the memo cache for the budgeted phase,
  // so hit/miss outcomes cannot depend on worker scheduling.
  std::vector<engine::EngineRouteOptions> opts(window.size());
  std::vector<std::size_t> pure_ix, budgeted_ix, edit_ix;
  for (std::size_t i = 0; i < window.size(); ++i) {
    if (window[i].req.session != 0) {
      edit_ix.push_back(i);  // session edits run in the serial phase
      continue;
    }
    opts[i] = window[i].req.options;
    opts[i].budget = effective_budget(window[i].req);
    opts[i].allow_cached_when_budgeted = opts_.serve_cached_under_budget;
    (opts[i].budget.unlimited() ? pure_ix : budgeted_ix).push_back(i);
  }
  const auto run_phase = [&](const std::vector<std::size_t>& ix) {
    if (ix.empty()) return;
    pool_.parallel_for(
        static_cast<std::int64_t>(ix.size()), [&](std::int64_t k) {
          Job& job = window[ix[static_cast<std::size_t>(k)]];
          const engine::EngineRouteOptions& o =
              opts[ix[static_cast<std::size_t>(k)]];
          const auto t0 = Clock::now();
          SvcResponse resp;
          resp.id = job.id;
          resp.tenant = job.req.tenant;
          resp.admit = Admit::kAccepted;
          resp.enqueue_tick = job.enqueue_tick;
          resp.start_tick = resp.finish_tick = now;
          resp.result = engine_.route(job.req.connections, o);
          resp.fingerprint = engine_.index().fingerprint();
          resp.queue_ms =
              std::chrono::duration<double, std::milli>(t0 - job.t_enqueue)
                  .count();
          resp.service_ms = ms_since(t0);
          finish_job(job, std::move(resp));
        });
  };
  run_phase(pure_ix);
  run_phase(budgeted_ix);
  // Serial edit phase: session edits apply in window (= FIFO drain)
  // order on the dispatching thread, after both routing phases. Session
  // state is therefore a pure function of the submission sequence —
  // worker count never enters an edit outcome.
  for (const std::size_t i : edit_ix) apply_edit(window[i], now);
}

void RoutingService::apply_edit(Job& job, std::uint64_t now) {
  SEGROUTE_SPAN(span, "svc.edit");
  const auto t0 = Clock::now();
  SvcResponse resp;
  resp.id = job.id;
  resp.tenant = job.req.tenant;
  resp.admit = Admit::kAccepted;
  resp.session = job.req.session;
  resp.enqueue_tick = job.enqueue_tick;
  resp.start_tick = resp.finish_tick = now;
  alg::OnlineRouter* router = nullptr;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    const auto it = sessions_.find(job.req.session);
    if (it != sessions_.end()) router = it->second.router.get();
  }
  if (router == nullptr) {
    // The session was closed between admission and drain.
    resp.repair.failure = alg::FailureKind::kInvalidInput;
    resp.result.fail(alg::FailureKind::kInvalidInput,
                     "svc session: closed before the edit was drained");
    std::lock_guard<std::mutex> lk(queue_mu_);
    ++stats_.session_edit_failures;
  } else {
    // The tenant's budget slice bounds the edit's DP fallback: a
    // pathological edit costs one bounded DP attempt, then rolls back.
    resp.repair = router->apply(job.req.edit, effective_budget(job.req));
    resp.fingerprint = router->index().fingerprint();
    if (resp.repair.success) {
      resp.result.success = true;
      resp.result.note =
          std::string("svc session edit: ") + alg::to_string(resp.repair.path);
    } else {
      resp.result.fail(resp.repair.failure,
                       "svc session edit rejected: " + resp.repair.note);
    }
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (!resp.repair.success) {
      ++stats_.session_edit_failures;
    } else {
      ++stats_.session_edits;
      if (resp.repair.path == alg::RepairOutcome::Path::kRepair) {
        ++stats_.session_repairs;
      } else {
        ++stats_.session_dp_fallbacks;
      }
    }
  }
  resp.queue_ms =
      std::chrono::duration<double, std::milli>(t0 - job.t_enqueue).count();
  resp.service_ms = ms_since(t0);
  finish_job(job, std::move(resp));
}

std::uint64_t RoutingService::open_session(const std::string& tenant,
                                           int max_segments) {
  if (tenant.empty()) return 0;
  // The dispatch lock pins the substrate while the session copies it (a
  // concurrent rebind() would race the read).
  std::lock_guard<std::mutex> dl(dispatch_mu_);
  auto router = std::make_unique<alg::OnlineRouter>(
      engine_.index().channel(), alg::OnlineRouter::Policy::BestFit,
      max_segments);
  std::lock_guard<std::mutex> lk(queue_mu_);
  if (stopping_) return 0;
  const std::uint64_t id = next_session_++;
  sessions_.emplace(id, Session{tenant, std::move(router)});
  ++stats_.sessions_opened;
  return id;
}

bool RoutingService::close_session(std::uint64_t session) {
  std::lock_guard<std::mutex> dl(dispatch_mu_);  // quiesce in-flight edits
  std::lock_guard<std::mutex> lk(queue_mu_);
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) return false;
  sessions_.erase(it);
  ++stats_.sessions_closed;
  return true;
}

std::optional<std::pair<ConnectionSet, Routing>>
RoutingService::session_snapshot(std::uint64_t session) {
  std::lock_guard<std::mutex> dl(dispatch_mu_);  // quiesce in-flight edits
  alg::OnlineRouter* router = nullptr;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    const auto it = sessions_.find(session);
    if (it != sessions_.end()) router = it->second.router.get();
  }
  if (router == nullptr) return std::nullopt;
  return router->snapshot();
}

std::size_t RoutingService::tick() {
  std::lock_guard<std::mutex> dl(dispatch_mu_);
  std::vector<Job> window;
  std::uint64_t now;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    now = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    ++stats_.ticks;
    const std::size_t n = std::min(queue_.size(), opts_.drain_window);
    window.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      window.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  ticks_c_.inc();
  if (!window.empty()) route_window(window, now);
  publish_metrics();
  return window.size();
}

void RoutingService::start() {
  std::lock_guard<std::mutex> lk(queue_mu_);
  if (started_ || stopping_) return;
  started_ = true;
  dispatcher_ = std::thread([this] {
    std::unique_lock<std::mutex> lk(queue_mu_);
    while (true) {
      cv_work_.wait(lk,
                    [this] { return dispatcher_exit_ || !queue_.empty(); });
      if (queue_.empty() && dispatcher_exit_) break;
      lk.unlock();
      tick();
      lk.lock();
    }
  });
}

void RoutingService::stop(StopMode mode) {
  std::vector<Job> backlog;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (stopped_) return;
    stopping_ = true;
    dispatcher_exit_ = true;
    if (mode == StopMode::kReject) {
      backlog.reserve(queue_.size());
      while (!queue_.empty()) {
        backlog.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    cv_work_.notify_all();
  }
  for (Job& job : backlog) reject(std::move(job), Admit::kShuttingDown);
  if (dispatcher_.joinable()) dispatcher_.join();
  // Driver mode (no dispatcher): drain synchronously so every accepted
  // request resolves before stop() returns.
  if (mode == StopMode::kDrain) {
    while (tick() > 0) {
    }
  }
  publish_metrics();
  std::lock_guard<std::mutex> lk(queue_mu_);
  stats_.sessions_closed += sessions_.size();  // implicit close on stop
  sessions_.clear();
  stopped_ = true;
}

void RoutingService::rebind(const SegmentedChannel& ch) {
  // The dispatch lock quiesces routing: no window is in flight while the
  // engine's index is rebuilt, which is exactly the engine's
  // rebind() precondition.
  std::lock_guard<std::mutex> dl(dispatch_mu_);
  engine_.rebind(ch);
}

void RoutingService::invalidate(std::uint64_t fingerprint) {
  engine_.invalidate(fingerprint);
}

SvcStats RoutingService::stats() const {
  std::lock_guard<std::mutex> lk(queue_mu_);
  SvcStats s = stats_;
  s.queue_depth = queue_.size();
  s.sessions_open = sessions_.size();
  return s;
}

void RoutingService::publish_metrics() {
  std::size_t depth;
  SvcStats snap;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    depth = queue_.size();
    snap = stats_;
    snap.sessions_open = sessions_.size();
  }
  queue_depth_g_.set(static_cast<double>(depth));
  obs::Registry& reg = obs::Registry::instance();
  reg.gauge("svc.sessions.open")
      .set(static_cast<double>(snap.sessions_open));
  reg.gauge("svc.sessions.opened")
      .set(static_cast<double>(snap.sessions_opened));
  reg.gauge("svc.sessions.closed")
      .set(static_cast<double>(snap.sessions_closed));
  reg.gauge("svc.sessions.edits")
      .set(static_cast<double>(snap.session_edits));
  reg.gauge("svc.sessions.repairs")
      .set(static_cast<double>(snap.session_repairs));
  reg.gauge("svc.sessions.dp_fallbacks")
      .set(static_cast<double>(snap.session_dp_fallbacks));
  reg.gauge("svc.sessions.edit_failures")
      .set(static_cast<double>(snap.session_edit_failures));
  const engine::CacheStats total = engine_.cache_stats();
  cache_size_g_.set(static_cast<double>(total.size));
  reg.gauge("svc.cache.capacity").set(static_cast<double>(total.capacity));
  reg.gauge("svc.cache.hits").set(static_cast<double>(total.hits));
  reg.gauge("svc.cache.misses").set(static_cast<double>(total.misses));
  reg.gauge("svc.cache.evictions").set(static_cast<double>(total.evictions));
  reg.gauge("svc.cache.invalidations")
      .set(static_cast<double>(total.invalidations));
  const std::vector<engine::CacheStats> shards = engine_.shard_stats();
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::string p = "svc.cache.shard" + std::to_string(i);
    reg.gauge(p + ".size").set(static_cast<double>(shards[i].size));
    reg.gauge(p + ".hits").set(static_cast<double>(shards[i].hits));
    reg.gauge(p + ".misses").set(static_cast<double>(shards[i].misses));
    reg.gauge(p + ".evictions").set(static_cast<double>(shards[i].evictions));
    reg.gauge(p + ".invalidations")
        .set(static_cast<double>(shards[i].invalidations));
  }
}

}  // namespace segroute::svc
