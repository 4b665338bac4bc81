// RouteVerifier: independent re-verification of routings.
//
// Every router in src/alg/ is complex enough to corrupt a result
// silently (a bad frontier merge, a rounding bug, an off-by-one in a
// replay). The verifier re-checks a returned Routing against the channel
// and connection set *from first principles* — it deliberately shares no
// code with core/routing.cpp's validate() or Occupancy, recomputing
// segment spans and occupancy with its own arithmetic — so a bug in the
// shared plumbing cannot hide a bug in a router.
//
// Checks performed:
//   1. shape: routing size matches the connection count; every assigned
//      track index is in range;
//   2. span coverage: every connection lies inside the channel and the
//      segments of its assigned track jointly cover its span [l, r]
//      contiguously;
//   3. exclusivity: no segment of any track is occupied by two
//      connections (the paper's Definition 1);
//   4. K-segment limit: no connection occupies more than K segments
//      (when a limit is given);
//   5. weight: the recomputed total weight matches the router's reported
//      RouteResult::weight (when a weight function is given).
#pragma once

#include <optional>
#include <string>

#include "alg/result.h"
#include "core/channel.h"
#include "core/connection.h"
#include "core/routing.h"
#include "core/weights.h"

namespace segroute::harness {

/// What the verifier found wrong (kOk = routing verified).
enum class VerifyError {
  kOk = 0,
  kSizeMismatch,     // routing/connection-set sizes differ
  kIncomplete,       // a connection is unassigned (when completeness required)
  kBadTrack,         // assigned track index out of range
  kUncoveredSpan,    // span outside the channel / not covered by the track
  kOverlap,          // two connections occupy the same segment
  kSegmentLimit,     // K-segment limit violated
  kWeightMismatch,   // recomputed weight differs from the reported one
};

const char* to_string(VerifyError e);

struct VerifyResult {
  VerifyError error = VerifyError::kOk;
  std::string detail;  // human-readable description of the first violation

  explicit operator bool() const { return error == VerifyError::kOk; }
};

struct VerifyOptions {
  /// K-segment limit to enforce; 0 = unlimited.
  int max_segments = 0;

  /// Reject unassigned connections. Disable to verify partial routings
  /// (e.g. best-effort results).
  bool require_complete = true;

  /// When set, recompute the routing's total weight with this function.
  std::optional<WeightFn> weight;

  /// Expected total weight (compared when `weight` is set).
  std::optional<double> expected_weight;

  /// Absolute tolerance for the weight comparison.
  double weight_tolerance = 1e-6;
};

/// Re-verifies routings for one (channel, connection set) pair.
class RouteVerifier {
 public:
  /// Both referents must outlive the verifier.
  RouteVerifier(const SegmentedChannel& ch, const ConnectionSet& cs);

  /// Checks a routing from first principles.
  [[nodiscard]] VerifyResult check(const Routing& r,
                                   const VerifyOptions& opts = {}) const;

  /// Checks a full RouteResult: a successful result must carry a routing
  /// that verifies; with `opts.weight` set and no explicit
  /// expected_weight, the result's own `weight` field is the expectation
  /// (routers that optimize must report the true total).
  [[nodiscard]] VerifyResult check(const alg::RouteResult& r,
                                   VerifyOptions opts = {}) const;

 private:
  const SegmentedChannel* ch_;
  const ConnectionSet* cs_;
};

}  // namespace segroute::harness
