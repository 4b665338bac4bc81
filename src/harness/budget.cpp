#include "harness/budget.h"

namespace segroute::harness {

const char* to_string(BudgetStop s) {
  switch (s) {
    case BudgetStop::kNone:
      return "none";
    case BudgetStop::kDeadline:
      return "deadline";
    case BudgetStop::kTickLimit:
      return "tick-limit";
    case BudgetStop::kCancelled:
      return "cancelled";
  }
  return "?";
}

bool BudgetMeter::check_clock() {
  if (budget_.cancel && budget_.cancel->load(std::memory_order_relaxed)) {
    stop_ = BudgetStop::kCancelled;
    return false;
  }
  if (budget_.deadline &&
      std::chrono::steady_clock::now() >= *budget_.deadline) {
    stop_ = BudgetStop::kDeadline;
    return false;
  }
  return true;
}

bool BudgetMeter::ok() {
  if (stop_ != BudgetStop::kNone) return false;
  return check_clock();
}

std::string BudgetMeter::reason() const {
  switch (stop_) {
    case BudgetStop::kNone:
      return {};
    case BudgetStop::kDeadline:
      return "deadline exceeded";
    case BudgetStop::kTickLimit:
      return "work limit of " + std::to_string(budget_.max_ticks) +
             " units exceeded";
    case BudgetStop::kCancelled:
      return "cancelled";
  }
  return {};
}

}  // namespace segroute::harness
