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
//   submit()  --> bounded FIFO request queue --> driver mode: tick()
//                 (admission control)            drains a window and
//       |                                        routes it on the pool
//       |                                        live mode: one serve loop
//       |                                        per thread, one request
//       |                                        at a time
//       +-- live mode, warm cache hit: answered inside submit()
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
// tenant's tick slice (SvcOptions::tenant_slice_ticks). One tenant's
// NP-hard instances therefore cost bounded work per request and cannot
// starve another tenant's sub-microsecond cache hits. A budgeted
// request may still be *served from* the shared memo cache (the service
// always sets EngineRouteOptions::allow_cached_when_budgeted) — a cached
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
//   - Live mode: start() runs one serve loop per service thread on the
//     pool (the dispatcher thread makes one long parallel_for, so no
//     thread is added). A loop takes one queued request, serves it and
//     takes the next: no window, no barrier, so a thread that finishes a
//     DP starts the next queued request at once. Each taken request is
//     one tick. Loop 0 takes the FIFO front, session edits included; the
//     other loops take the first batch request, so each session's edits
//     stay serial and in submission order. stop() drains (no request is
//     dropped without a typed response) or rejects the backlog. A batch
//     request whose answer is already in the memo cache resolves inside
//     submit(), on the caller's thread: it passes the same admission
//     checks, is counted accepted and served (never in flight), observes
//     a 0 ms queue wait, and carries the current tick in all three tick
//     fields. The probe (BatchRouter::cached) holds the dispatch lock
//     shared, as the serve loops do, so it runs while misses route; it
//     only try-locks, and stays off the lock while a writer (rebind, a
//     session close or snapshot, tick()) waits, so submit() never waits.
//     Misses, session edits and every driver-mode request take the
//     queue. A loop serves a batch request the way a probe would first
//     (cached()), and routes it only on a miss. tick() called while the
//     loops run serves its window serially on the caller, through the
//     same per-request body, since the loops own the pool.
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
// Live mode keeps no barrier, so which pure results a budgeted request
// finds cached, and the tick each request is taken on, depend on
// scheduling; pure results and session states do not.
//
// Live edits. rebind() re-points the shared engine at a structurally
// different channel; the service quiesces routing internally (it holds
// the dispatch lock exclusively), so callers may invoke it concurrently
// with submit().
// invalidate(fp) forwards to the engine's fingerprint-delta-aware
// eviction and is safe at any time.
//
// Edit sessions. open_session() creates a stateful incremental routing
// (an alg::OnlineRouter on the substrate current at open time — a
// session *pins* its channel; a later rebind() affects batch requests
// only). A submission with `session` set is a delta edit: it rides the
// same admission control (tenant caps, queue bounds, budget slices —
// the slice bounds the DP fallback) and resolves to a SvcResponse
// carrying the RepairOutcome. In driver mode edits are applied
// *serially in window order* after the two routing phases of each tick;
// in live mode only loop 0 applies them, in FIFO order. Either way a
// session's state is a pure function of the submission sequence, and
// the driver-mode digest stays bit-identical across thread counts.
// Session fields fold into response digests only for session responses,
// leaving pure-batch digests (the committed bench baselines) unchanged.
//
// Metrics. Events are counted as they happen: accepted/rejected/served
// counters, per-tenant served counters and the queue/service latency
// histograms. State — queue depth, the SvcStats and session counts, the
// engine's total and per-shard cache health — is computed at scrape
// time: the constructor registers publish_metrics() as an obs registry
// collector, which every snapshot and exposition runs first, and the
// destructor removes it (after stop(), whose final publish leaves the
// service's last state in the registry). These are product surface (the
// /metrics endpoint in svc/http.h serves them), not instrumentation, so
// they exist even in SEGROUTE_OBS=OFF builds; only the library-internal
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
#include <shared_mutex>
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
  /// Service threads: the pool that routes each drained window in
  /// driver mode, and the number of serve loops in live mode. The
  /// library-wide convention (shared with engine::BatchOptions::threads,
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

  /// Requests one tick() drains and routes. Must be >= 1 (clamped).
  /// Driver mode only: live mode's serve loops take one request at a
  /// time.
  std::size_t drain_window = 64;

  /// Per-tenant tick-budget slices (harness::Budget::max_ticks); a
  /// tenant without an entry is unsliced. Tick caps are wall-clock-free,
  /// so slicing keeps driver mode deterministic.
  std::map<std::string, std::uint64_t> tenant_slice_ticks;

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

  /// Set when BatchRouter::cached() answered the request, at admission,
  /// in a tick or in a serve loop (not folded into the digest).
  bool cache_hit = false;

  std::uint64_t enqueue_tick = 0;
  std::uint64_t start_tick = 0;   // tick that drained (live: took) it
  std::uint64_t finish_tick = 0;  // == start_tick (requests complete in-tick)
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
  std::uint64_t admission_hits = 0;  // served from the cache in submit()
  std::uint64_t ticks = 0;  // tick() calls, plus live requests taken
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
  /// driver-mode entry point. Called after start(), it serves its window
  /// serially on the caller (the serve loops own the pool) while no loop
  /// serves. Serialized internally — concurrent calls queue on the
  /// dispatch lock, they do not interleave.
  std::size_t tick();

  /// Live mode: spawns the dispatcher thread, which runs one serve loop
  /// per service thread on the pool. Idempotent.
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
  /// the serve loops, and returns once the requests in service finish.
  /// Queued requests route on the new substrate.
  void rebind(const SegmentedChannel& ch);

  /// Fingerprint-delta-aware cache eviction; safe at any time.
  void invalidate(std::uint64_t fingerprint);

  /// Opens an edit session for `tenant` on the *current* substrate (a
  /// session pins its channel; later rebind()s affect batch requests
  /// only). Returns the session id to pass in SvcRequest::session, or 0
  /// when rejected (empty tenant, negative `max_segments`, or the
  /// service is stopping). `max_segments` is the session's K-segment
  /// limit (0 = unlimited).
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

  /// Sets the service's state gauges in the obs registry: queue depth,
  /// admission hits, session counts, and the engine's total and per-shard
  /// cache stats. The registry runs it as a collector at every scrape,
  /// and stop() runs it once more; call it directly to time it.
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
  /// The engine options a batch request routes (and probes) under.
  [[nodiscard]] engine::EngineRouteOptions route_options(
      const SvcRequest& req) const;
  /// The accepted response to batch request `job`: `result` from the
  /// engine on substrate `fingerprint` (`cache_hit`: from a cached()
  /// probe), answered on tick `now`, queued until t0, routed t0..t1.
  static SvcResponse routed(const Job& job, std::uint64_t now,
                            alg::RouteResult result, std::uint64_t fingerprint,
                            bool cache_hit,
                            std::chrono::steady_clock::time_point t0,
                            std::chrono::steady_clock::time_point t1);
  /// What serve() may do with a batch request.
  enum class Serve { kProbeOnly, kRouteOnly, kProbeThenRoute };
  /// The per-request body of every batch request that leaves the queue:
  /// a cached() probe, engine_.route() on a miss, and the answer,
  /// routed() on substrate `fp` at tick `now`, through finish_job().
  /// Returns false, leaving the job unanswered, for a kProbeOnly miss.
  bool serve(Job& job, const engine::EngineRouteOptions& o, std::uint64_t fp,
             std::uint64_t now, Serve what);
  /// Driver mode: routes a drained window in two phases (see the
  /// determinism argument in the file comment), then applies its edits.
  void route_window(std::vector<Job>& window, std::uint64_t now);
  /// Live mode: serve loop `loop`, until stop() and nothing is left that
  /// this loop may take.
  void serve_loop(int loop);
  /// Whether serve loop `loop` has a job to take (queue_mu_ held).
  [[nodiscard]] bool takeable(int loop) const;
  /// Moves the job at `it` out of the queue (queue_mu_ held).
  Job take(std::deque<Job>::iterator it);
  void apply_edit(Job& job, std::uint64_t now);
  void reject(Job job, Admit why);
  /// Releases the job's in-flight slot, then resolve()s it.
  void finish_job(Job& job, SvcResponse resp);
  /// Observes the latency histograms, counts the request served and
  /// resolves its promise.
  void resolve(Job& job, SvcResponse resp, obs::Counter& tenant_c);
  obs::Counter& tenant_counter(const std::string& tenant);

  /// Holds dispatch_mu_ exclusively, for tick(), start(), rebind(),
  /// close_session() and session_snapshot(). It raises writers_ first,
  /// so no serve loop takes a new job and the admission probe stays off
  /// the lock: glibc's rwlock prefers readers, so shared holders that
  /// keep overlapping (loops routing back to back, a stream of probes)
  /// could otherwise hold a writer off indefinitely.
  class Exclusive {
   public:
    explicit Exclusive(RoutingService& s);
    ~Exclusive();
    Exclusive(const Exclusive&) = delete;
    Exclusive& operator=(const Exclusive&) = delete;

   private:
    RoutingService& s_;
  };

  SvcOptions opts_;
  engine::BatchRouter engine_;
  util::ThreadPool pool_;

  // Queue state (queue_mu_): the deque, tenant accounting, admission
  // counters, lifecycle flags.
  mutable std::mutex queue_mu_;
  std::condition_variable cv_work_;
  std::deque<Job> queue_;
  std::size_t queued_batch_ = 0;  // jobs in queue_ that are not edits
  std::map<std::string, std::size_t> inflight_;
  std::map<std::string, obs::Counter*> tenant_served_;
  std::uint64_t next_id_ = 1;
  bool stopping_ = false;    // admission closed
  bool dispatcher_exit_ = false;
  SvcStats stats_;

  // Edit sessions. The *map* is guarded by queue_mu_ (submit() checks
  // session existence during admission); the routers themselves are
  // touched only under dispatch_mu_: shared by live loop 0, the one
  // loop that applies edits, and exclusive in tick()'s serial edit
  // phase and in close/snapshot.
  std::map<std::uint64_t, Session> sessions_;
  std::uint64_t next_session_ = 1;

  // Dispatch state. dispatch_mu_ is held shared while a serve loop
  // serves a request and while the admission probe reads the cache, and
  // exclusively (through Exclusive) while tick() routes a window,
  // rebind() swaps the substrate, or a session is closed or copied.
  // writers_ counts the Exclusive holders and waiters; it changes under
  // queue_mu_, so the loops' wait sees it, and the probe reads it
  // lock-free.
  std::shared_mutex dispatch_mu_;
  std::atomic<int> writers_{0};
  std::atomic<std::uint64_t> tick_{0};

  std::thread dispatcher_;
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<bool> live_{false};  // set by start(): probe at admission

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
  std::uint64_t collector_id_ = 0;  // publish_metrics() as a collector
};

}  // namespace segroute::svc
