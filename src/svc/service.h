// RoutingService: the routing library as a long-running, multi-tenant
// service.
//
// Everything below the service boundary already exists: the registry's
// RouteRequest/RouterOptions contract (core/router.h), the memoizing
// BatchRouter (engine/batch.h), the deterministic ThreadPool
// (util/pool.h), Budget-bounded routing (harness/budget.h) and the obs
// metrics registry (obs/metrics.h). This layer turns them into a system
// that serves concurrent tenants:
//
//   submit()  --> bounded FIFO request queue --> tick() drains a window
//                 (admission control)            and routes it on the pool
//
// Admission control. submit() never blocks and never drops silently:
// a request is either accepted into the bounded queue or rejected
// *immediately* with a typed Admit code (queue full, per-tenant
// in-flight cap, shutdown, malformed). A rejected response also carries
// RouteResult::failure = kBudgetExhausted — the service's capacity is a
// budget, and rejections reuse the library's established taxonomy so
// all-or-nothing consumers branch on one enum.
//
// Per-tenant slicing. Each accepted request is routed under an
// effective harness::Budget: the request's own budget, tightened by the
// tenant's tick slice (SvcOptions::slice_ticks, overridable per tenant)
// and, in live mode, by SvcOptions::slice_ms. One tenant's NP-hard
// instances therefore cost bounded work per request and cannot starve
// another tenant's sub-microsecond cache hits. With
// SvcOptions::serve_cached_under_budget (default on), a budgeted
// request may still be *served from* the shared memo cache — a cached
// entry is a pure result computed under no budget, so serving it is
// strictly better than re-deriving a kBudgetExhausted.
//
// Execution modes.
//   - Driver mode (deterministic): the caller invokes tick() directly.
//     Time is a virtual tick counter, latency is measured in ticks, and
//     per-request budgets are tick caps — no wall clock enters any
//     outcome. Results, admission decisions and tick latencies are a
//     pure function of the submission sequence, bit-identical for every
//     SvcOptions::threads (the digest gates in tests/ and bench_svc
//     pin this at 1/2/8 threads, including under TSan).
//   - Live mode: start() spawns one dispatcher thread that calls tick()
//     whenever the queue is non-empty; stop() drains (no request is
//     dropped without a typed response) or rejects the backlog.
//
// Determinism argument for driver mode. The queue is FIFO and submit()
// is called from the driving thread, so the drain order is fixed. Each
// tick routes its window in two phases over the pool's static
// partitioning: first every *pure* (unlimited-budget) request, then
// every budgeted one. Pure results are pure functions of the instance —
// concurrent duplicates compute identical entries, so cache insertion
// order cannot change any result. During the budgeted phase the cache
// is read-only (budget-limited results are never inserted), so whether
// a budgeted request hits depends only on which pure results exist,
// which the phase barrier made schedule-independent. Wall-clock fields
// (queue_ms/service_ms) are reported but excluded from response_digest.
//
// Live edits. rebind() re-points the shared engine at a structurally
// different channel; the service quiesces routing internally (the
// dispatch lock), so callers may invoke it concurrently with submit().
// invalidate(fp) forwards to the engine's fingerprint-delta-aware
// eviction and is safe at any time.
//
// Edit sessions. open_session() creates a stateful incremental routing
// (an alg::OnlineRouter on the substrate current at open time — a
// session *pins* its channel; a later rebind() affects batch requests
// only). A submission with `session` set is a delta edit: it rides the
// same admission control (tenant caps, queue bounds, budget slices —
// the slice bounds the DP fallback) and resolves to a SvcResponse
// carrying the RepairOutcome. Edits are applied
// *serially in window order* after the two routing phases of each tick,
// so session state is a pure function of the submission sequence and
// the driver-mode digest stays bit-identical across thread counts.
// Session fields fold into response digests only for session responses,
// leaving pure-batch digests (the committed bench baselines) unchanged.
//
// Metrics. The service publishes its own state — queue depth, accepted/
// rejected/served counts, per-tenant served counters, latency
// histograms, and the engine's per-shard cache health — directly into
// the obs registry each tick. These are product surface (the /metrics
// endpoint in svc/http.h serves them), not instrumentation, so they are
// published even in SEGROUTE_OBS=OFF builds; only the library-internal
// macro-based instrumentation compiles out.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alg/delta.h"
#include "alg/online.h"
#include "alg/result.h"
#include "core/connection.h"
#include "core/routing.h"
#include "engine/batch.h"
#include "harness/budget.h"
#include "obs/metrics.h"
#include "util/pool.h"

namespace segroute::svc {

/// Typed admission outcome. Everything except kAccepted is decided
/// synchronously inside submit(), before any routing work.
enum class Admit {
  kAccepted = 0,
  kQueueFull,      // bounded queue at capacity — back off and retry
  kTenantLimit,    // tenant already has max_inflight_per_tenant requests
  kShuttingDown,   // stop() was called; no new work is admitted
  kInvalid,        // malformed request (empty tenant name)
};

const char* to_string(Admit a);

struct SvcOptions {
  /// Worker threads routing each drained window. The library-wide
  /// convention (shared with engine::BatchOptions::threads,
  /// alg::CapacityOptions::threads and fpga::FabricOptions::threads):
  /// 1 = serial, N > 1 = fixed, <= 0 = "auto" via
  /// util::hardware_threads(). Driver-mode results are bit-identical
  /// for every resolved value.
  int threads = 1;

  /// Bounded request queue: submissions beyond this depth are rejected
  /// with Admit::kQueueFull. Must be >= 1 (clamped).
  std::size_t queue_capacity = 1024;

  /// Per-tenant in-flight cap (queued + routing). 0 = unlimited.
  std::size_t max_inflight_per_tenant = 0;

  /// Requests drained and routed per tick. Must be >= 1 (clamped).
  std::size_t drain_window = 64;

  /// Default per-request tick-budget slice (harness::Budget::max_ticks)
  /// applied to every tenant without an override; 0 = unlimited. The
  /// deterministic slicing knob: tick caps are wall-clock-free.
  std::uint64_t slice_ticks = 0;

  /// Per-tenant overrides of slice_ticks.
  std::map<std::string, std::uint64_t> tenant_slice_ticks;

  /// Optional per-request wall-clock slice for live mode. Leave unset in
  /// driver mode — deadlines reintroduce the clock into outcomes.
  std::optional<std::chrono::milliseconds> slice_ms;

  /// Serve budgeted requests from the shared memo cache (see the file
  /// comment); sets EngineRouteOptions::allow_cached_when_budgeted.
  bool serve_cached_under_budget = true;

  /// Configuration of the shared BatchRouter. engine.threads is forced
  /// to 1 — the service's own pool parallelizes across requests, so the
  /// engine's inner pool must stay inline.
  engine::BatchOptions engine;
};

/// One routing request. `options` is the engine's hashable subset of the
/// registry wire contract (router name, K, weight, budget) — the same
/// shape PR 5 built for exactly this.
struct SvcRequest {
  std::string tenant;
  ConnectionSet connections;
  engine::EngineRouteOptions options;

  /// Edit-session id from open_session(), or 0 for a plain batch
  /// request. When set, `edit` is applied to that session (serially, in
  /// window order) instead of routing `connections`; the effective
  /// budget slice bounds the edit's DP fallback. A session id that is
  /// unknown or owned by a different tenant is rejected with
  /// Admit::kInvalid.
  std::uint64_t session = 0;
  alg::ChannelEdit edit;
};

/// The response: the routing outcome plus admission and queue/SLO
/// timing. Tick fields are virtual time (deterministic in driver mode);
/// ms fields are wall clock (live-mode SLOs) and never enter digests.
struct SvcResponse {
  std::uint64_t id = 0;
  std::string tenant;
  Admit admit = Admit::kAccepted;
  alg::RouteResult result;

  /// Substrate the request was routed on (0 for rejected requests).
  std::uint64_t fingerprint = 0;

  /// Session identity + the delta receipt, for session-edit responses
  /// (session == 0 for batch responses; both fields fold into the
  /// digest only when session != 0, so batch digests are unchanged).
  std::uint64_t session = 0;
  alg::RepairOutcome repair;

  std::uint64_t enqueue_tick = 0;
  std::uint64_t start_tick = 0;   // tick that drained the request
  std::uint64_t finish_tick = 0;  // == start_tick (windows complete in-tick)
  double queue_ms = 0.0;
  double service_ms = 0.0;

  /// Queue wait in virtual ticks.
  [[nodiscard]] std::uint64_t queue_ticks() const {
    return start_tick - enqueue_tick;
  }
};

/// FNV-1a digest of the deterministic fields of a response (identity,
/// admission, result success/failure/assignments, tick timing). The
/// digest of a driver-mode run — folded over responses in submission
/// order — is the bit-identity witness tests and bench_svc gate.
std::uint64_t response_digest(const SvcResponse& r);

/// Folds one response into a running digest (order-sensitive).
std::uint64_t fold_digest(std::uint64_t acc, const SvcResponse& r);

/// Aggregate service counters (a snapshot; also published to /metrics).
struct SvcStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_tenant_limit = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t served = 0;
  std::uint64_t ticks = 0;
  std::size_t queue_depth = 0;

  // Edit-session counters.
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::size_t sessions_open = 0;
  std::uint64_t session_edits = 0;         // edits applied (success)
  std::uint64_t session_repairs = 0;       // ... in the greedy regime
  std::uint64_t session_dp_fallbacks = 0;  // ... in the DP regime
  std::uint64_t session_edit_failures = 0; // rejected edits (state kept)
};

class RoutingService {
 public:
  /// Builds the shared engine on `ch` (which must outlive the service).
  explicit RoutingService(const SegmentedChannel& ch, SvcOptions opts = {});

  /// Drains and responds (stop(kDrain)) if the caller did not stop() it.
  ~RoutingService();

  RoutingService(const RoutingService&) = delete;
  RoutingService& operator=(const RoutingService&) = delete;

  /// Admits or rejects `req`; never blocks. The future resolves when the
  /// request is routed (accepted) or immediately (rejected) — every
  /// submission resolves exactly once, with a typed Admit either way.
  std::future<SvcResponse> submit(SvcRequest req);

  /// Drains up to drain_window queued requests and routes them on the
  /// pool, advancing the virtual tick. Returns the number routed. The
  /// driver-mode entry point; live mode's dispatcher calls it too.
  /// Serialized internally — concurrent calls queue on the dispatch
  /// lock, they do not interleave.
  std::size_t tick();

  /// Live mode: spawns the dispatcher thread. Idempotent.
  void start();

  enum class StopMode {
    kDrain,   // route everything already queued, then stop
    kReject,  // respond kShuttingDown to everything queued, then stop
  };

  /// Stops admission (kShuttingDown from now on), disposes of the
  /// backlog per `mode`, and joins the dispatcher. Every in-queue
  /// request resolves before stop() returns. Idempotent.
  void stop(StopMode mode = StopMode::kDrain);

  /// Re-points the shared engine at `ch` (must outlive the service),
  /// quiescing routing internally — safe concurrently with submit() and
  /// the live dispatcher. Queued requests route on the new substrate.
  void rebind(const SegmentedChannel& ch);

  /// Fingerprint-delta-aware cache eviction; safe at any time.
  void invalidate(std::uint64_t fingerprint);

  /// Opens an edit session for `tenant` on the *current* substrate (a
  /// session pins its channel; later rebind()s affect batch requests
  /// only). Returns the session id to pass in SvcRequest::session, or 0
  /// when rejected (empty tenant, or the service is stopping).
  /// `max_segments` is the session's K-segment limit (0 = unlimited).
  std::uint64_t open_session(const std::string& tenant, int max_segments = 0);

  /// Closes a session, quiescing routing first so no in-flight edit
  /// references it. Edits still queued for it resolve as failed with
  /// kInvalidInput. Returns false for unknown ids. All sessions are
  /// closed implicitly by stop().
  bool close_session(std::uint64_t session);

  /// Snapshot of a session's live state (connections in id order +
  /// canonical routing), or nullopt for unknown ids. Quiesces routing
  /// for the copy; the tests' bit-identity gate reads through this.
  [[nodiscard]] std::optional<std::pair<ConnectionSet, Routing>>
  session_snapshot(std::uint64_t session);

  [[nodiscard]] SvcStats stats() const;
  [[nodiscard]] const SvcOptions& options() const { return opts_; }
  [[nodiscard]] engine::BatchRouter& engine() { return engine_; }
  [[nodiscard]] std::uint64_t current_tick() const {
    return tick_.load(std::memory_order_relaxed);
  }

  /// Publishes queue/served/cache-shard state into the obs registry
  /// (also done automatically at every tick).
  void publish_metrics();

 private:
  struct Job {
    std::uint64_t id = 0;
    SvcRequest req;
    std::promise<SvcResponse> prom;
    std::uint64_t enqueue_tick = 0;
    std::chrono::steady_clock::time_point t_enqueue;
  };

  /// One open edit session, with the fingerprint of the substrate it
  /// copied at open time.
  struct Session {
    std::string tenant;
    std::uint64_t fingerprint = 0;
    alg::OnlineRouter router;
  };

  [[nodiscard]] harness::Budget effective_budget(const SvcRequest& req) const;
  void route_window(std::vector<Job>& window, std::uint64_t now);
  void apply_edit(Job& job, std::uint64_t now);
  void reject(Job job, Admit why);
  void finish_job(Job& job, SvcResponse resp);
  obs::Counter& tenant_counter(const std::string& tenant);

  SvcOptions opts_;
  engine::BatchRouter engine_;
  util::ThreadPool pool_;

  // Queue state (queue_mu_): the deque, tenant accounting, admission
  // counters, lifecycle flags.
  mutable std::mutex queue_mu_;
  std::condition_variable cv_work_;
  std::deque<Job> queue_;
  std::map<std::string, std::size_t> inflight_;
  std::map<std::string, obs::Counter*> tenant_served_;
  std::uint64_t next_id_ = 1;
  bool stopping_ = false;    // admission closed
  bool dispatcher_exit_ = false;
  SvcStats stats_;

  // Edit sessions. The *map* is guarded by queue_mu_ (submit() checks
  // session existence during admission); the routers themselves are
  // touched only under dispatch_mu_ (the serial edit phase of
  // route_window, and close/snapshot which quiesce first).
  std::map<std::uint64_t, Session> sessions_;
  std::uint64_t next_session_ = 1;

  // Dispatch state (dispatch_mu_): held while a window routes and while
  // rebind() swaps the substrate.
  std::mutex dispatch_mu_;
  std::atomic<std::uint64_t> tick_{0};

  std::thread dispatcher_;
  bool started_ = false;
  bool stopped_ = false;

  // Service metrics, resolved once (see the file comment on why these
  // use the registry directly rather than the instrumentation macros).
  obs::Gauge& queue_depth_g_;
  obs::Gauge& cache_size_g_;
  obs::Counter& accepted_c_;
  obs::Counter& rejected_c_;
  obs::Counter& served_c_;
  obs::Counter& ticks_c_;
  obs::Histogram& queue_ms_h_;
  obs::Histogram& service_ms_h_;
};

}  // namespace segroute::svc
