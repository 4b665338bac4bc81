// Budget: bounded-resource execution for the expensive routers.
//
// The paper proves segmented channel routing strongly NP-complete
// (Section III), so every exact router here can blow up without warning.
// A Budget makes that explosion a *structured, bounded* outcome instead
// of a hang: it combines a wall-clock deadline, a cap on router-specific
// work units ("ticks": DP nodes, search branches, annealing moves,
// simplex pivots), and a cooperative cancellation flag.
//
// Routers accept a Budget in their options struct and drive a
// BudgetMeter inside their hot loop. tick() is designed to be cheap
// enough for per-node use: the tick cap is checked every call, the clock
// and the cancellation flag every kCheckInterval calls.
// Exhaustion is sticky; the router reports FailureKind::kBudgetExhausted
// (see alg/result.h) with the meter's reason.
//
// This header is dependency-free (chrono + atomic only) so alg/ options
// structs can include it without a cycle back into harness/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

namespace segroute::harness {

/// Why a BudgetMeter stopped (kNone = still within budget).
enum class BudgetStop { kNone, kDeadline, kTickLimit, kCancelled };

/// Name of a BudgetStop value, for notes and logs.
const char* to_string(BudgetStop s);

/// Declarative resource bounds for one routing call. Default: unlimited.
///
/// The deadline is an absolute end time, so every layer hands the same
/// point down unchanged and nothing rounds it. A reused Budget shares
/// that end time: a fresh allowance needs a fresh with_deadline().
struct Budget {
  /// Wall-clock end time. nullopt = no deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// Cap on router-specific work units (DP nodes, branches, moves,
  /// pivots). 0 = unlimited.
  std::uint64_t max_ticks = 0;

  /// Cooperative cancellation: when non-null and set to true by another
  /// thread, the router stops at its next budget check. The pointee must
  /// outlive the routing call.
  const std::atomic<bool>* cancel = nullptr;

  [[nodiscard]] bool unlimited() const {
    return !deadline && max_ticks == 0 && cancel == nullptr;
  }

  /// Convenience constructors. with_deadline ends `d` from now.
  static Budget with_deadline(std::chrono::nanoseconds d) {
    Budget b;
    b.deadline = std::chrono::steady_clock::now() + d;
    return b;
  }
  static Budget with_ticks(std::uint64_t n) {
    Budget b;
    b.max_ticks = n;
    return b;
  }
  static Budget with_cancel(const std::atomic<bool>& flag) {
    Budget b;
    b.cancel = &flag;
    return b;
  }
};

/// Per-run enforcement of a Budget. Construct at router entry; call
/// tick() once per unit of work. The first violated bound wins and the
/// meter stays exhausted from then on.
class BudgetMeter {
 public:
  /// The clock and the cancel flag are consulted every this-many ticks
  /// (and on the first). 64 keeps deadline overshoot in the tens of
  /// microseconds for typical node costs while making the common-path
  /// tick a couple of integer ops.
  static constexpr std::uint32_t kCheckInterval = 64;

  explicit BudgetMeter(const Budget& budget) : budget_(budget) {}

  /// Counts `n` units of work; returns true while the budget holds.
  /// Sticky: once false, always false. Inline: the common path (no bound
  /// crossed, no clock check due) is a handful of integer ops, cheap
  /// enough to sit inside the DP's per-expansion loop.
  bool tick(std::uint64_t n = 1) {
    if (stop_ != BudgetStop::kNone) return false;
    ticks_ += n;
    if (budget_.max_ticks != 0 && ticks_ > budget_.max_ticks) {
      stop_ = BudgetStop::kTickLimit;
      return false;
    }
    if (until_check_ > n) {
      until_check_ -= static_cast<std::uint32_t>(n);
      return true;
    }
    until_check_ = kCheckInterval;
    return check_clock();
  }

  /// Re-checks deadline and cancellation without consuming ticks.
  bool ok();

  [[nodiscard]] bool exhausted() const { return stop_ != BudgetStop::kNone; }
  [[nodiscard]] BudgetStop stop() const { return stop_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

  /// Human-readable reason, e.g. "work limit of 100 units exceeded";
  /// empty while the budget holds.
  [[nodiscard]] std::string reason() const;

 private:
  bool check_clock();

  Budget budget_;
  std::uint64_t ticks_ = 0;
  std::uint32_t until_check_ = 1;  // consult the clock on the very first tick
  BudgetStop stop_ = BudgetStop::kNone;
};

}  // namespace segroute::harness
