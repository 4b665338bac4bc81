// ThreadScratch: the one way a router reuses its scratch memory.
//
// A router called over and over on one thread (an engine worker, the
// service dispatcher, a capacity sweep) would spend a large share of each
// call allocating its workspace. A ThreadScratch<T> lease hands out the
// calling thread's own T, kept alive between calls so its vectors keep
// their capacity. When that T is already leased by an outer call on the
// same thread — a WeightFn that itself routes, say — the lease holds a
// call-local T instead, so nested calls never share state. Either way the
// router reinitializes every field it reads, so results never depend on
// which object it got.
//
// Leases are per thread and per T; a lease must not leave the call that
// took it.
#pragma once

#include <optional>

namespace segroute {

template <class T>
class ThreadScratch {
 public:
  ThreadScratch() : reused_(!leased()) {
    if (reused_) {
      leased() = true;
    } else {
      local_.emplace();
    }
  }
  ~ThreadScratch() {
    if (reused_) leased() = false;
  }
  ThreadScratch(const ThreadScratch&) = delete;
  ThreadScratch& operator=(const ThreadScratch&) = delete;

  /// The leased object: the thread's own, or a call-local one under a
  /// nested lease.
  [[nodiscard]] T& get() { return reused_ ? thread_object() : *local_; }

 private:
  static T& thread_object() {
    thread_local T obj;
    return obj;
  }
  static bool& leased() {
    thread_local bool in_use = false;
    return in_use;
  }

  bool reused_;
  std::optional<T> local_;
};

}  // namespace segroute
