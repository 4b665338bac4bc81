// The general dynamic-programming router of Section IV-B: builds the
// assignment graph over routing frontiers and reads a routing (or a
// minimum-weight routing) from it. Solves Problems 1, 2 and 3.
//
// Frontier representation. For a partial routing of the first i
// connections (sorted by left end), the paper's frontier is x[j] = the
// leftmost unoccupied column in track j at or to the right of
// left(c_{i+1}). We store exactly that: per track, the next free column,
// normalized to max(rightmost-occupied-column + 1, left(c_{i+1})).
// Two partial routings with equal frontiers are interchangeable, so each
// level of the assignment graph holds one node per distinct frontier
// (Theorem 5: at most 2*T! of them; Theorem 6: (K+1)^T for K-segment).
//
// Track-type canonicalization (Theorem 7). Tracks with identical
// segmentation are interchangeable, so frontier entries within one type
// class are kept sorted; this collapses states that differ only by a
// permutation of same-type tracks and yields the O((prod_i T_i)^K) bound.
//
// Storage is bit-parallel: each frontier is packed into a fixed number
// of 64-bit occupancy words (alg/frontier_bits.h; each entry takes
// bit_width(width+1) bits), so state equality is a compare of 1-2 words,
// hashing is a word-at-a-time mix, and dedup probes are staged in small
// batches to overlap their cache misses. Packing is injective, so the
// explored state space — node counts, routings, weights — is bit-
// identical to the scalar layout. DESIGN.md §13 documents the layout.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "alg/frontier_bits.h"
#include "alg/result.h"
#include "core/channel.h"
#include "core/connection.h"
#include "core/weights.h"
#include "harness/budget.h"

namespace segroute::alg {

/// Reusable scratch for dp_route: every per-call vector (frontier arena,
/// node metadata SoA, dedup table, per-level class tables, replay state)
/// in one bundle, so repeated calls on one thread are allocation-free in
/// steady state. Plain data — default-construct and hand the same object
/// to successive calls. NOT thread-safe: one workspace per thread, never
/// shared by concurrent (or nested) dp_route calls. The engine's
/// per-thread scratch (engine/scratch.h) owns one per thread.
struct DpWorkspace {
  /// Packed-state layout for the current call: each frontier is
  /// bit-packed into `codec.words()` 64-bit occupancy words (see
  /// alg/frontier_bits.h and DESIGN.md §13).
  bits::FrontierCodec codec;
  std::vector<std::uint64_t> arena;  // packed frontier words, word-aligned
  std::vector<std::int64_t> parent;
  std::vector<std::int32_t> edge_class;
  std::vector<double> node_w;
  /// Open-addressing dedup table; each slot stores the packed key inline
  /// (stride words()+1: key words, then an epoch-tagged node id), so a
  /// probe never dereferences the arena. Levels themselves need no
  /// storage: ids are assigned consecutively, so each level is a
  /// contiguous id range.
  std::vector<std::uint64_t> slots;
  std::vector<char> cls_ok;
  std::vector<Column> cls_free;
  std::vector<double> cls_w;
  /// Per-class next-free-column table, built once per call: row cl,
  /// column c holds the first free column after routing through c on a
  /// class-cl track. Replaces the per-level (and replay) segment_at
  /// binary searches.
  std::vector<Column> cls_next_free;
  /// Pooled per-call field scratch: the node-in-hand unpacked frontier
  /// (`cur`), its left-clamped copy, and the per-class packed-position
  /// table share one allocation (spans are carved out in dp.cpp).
  std::vector<std::int32_t> fields;
  /// Pooled per-call word scratch: the clamped packed words and the
  /// ProbeBatch staging area share one allocation.
  std::vector<std::uint64_t> words;
  bits::ProbeBatch batch;  // staged dedup probes (storage lives in words)
  std::vector<ConnId> order;
  std::vector<TrackId> class_members;  // member tracks, flattened by class
  std::vector<int> class_begin;        // per-class offsets into class_members
  std::vector<int> class_cursor;
  std::vector<int> class_choice;
  std::vector<Column> next_free;
};

/// Heap bytes retained by a workspace (vector capacities, not sizes):
/// the arena high-water mark a long-lived workspace holds between calls.
/// The frontier arena is counted in packed-word bytes — the bytes
/// actually held — so Scratch::bytes_held() stays exact.
inline std::size_t workspace_bytes(const DpWorkspace& ws) {
  const auto cap = [](const auto& v) {
    return v.capacity() * sizeof(v[0]);
  };
  return ws.codec.bytes_held() + cap(ws.arena) + cap(ws.parent) +
         cap(ws.edge_class) + cap(ws.node_w) + cap(ws.slots) +
         cap(ws.cls_ok) + cap(ws.cls_free) + cap(ws.cls_w) +
         cap(ws.cls_next_free) + cap(ws.fields) + cap(ws.words) +
         cap(ws.order) + cap(ws.class_members) + cap(ws.class_begin) +
         cap(ws.class_cursor) + cap(ws.class_choice) + cap(ws.next_free);
}

struct DpOptions {
  /// 0 = unlimited-segment routing (Problem 1); K > 0 = K-segment routing
  /// (Problem 2).
  int max_segments = 0;

  /// If set, minimizes total weight (Problem 3). Assignments of weight
  /// +infinity are forbidden. With `canonicalize_types` the weight must
  /// depend on the track only through its segmentation (true of all
  /// weights in core/weights.h).
  std::optional<WeightFn> weight;

  /// Merge frontiers equal up to permutation of identically segmented
  /// tracks (Theorem 7). Disable to measure the raw Theorem-5/6 bounds.
  bool canonicalize_types = true;

  /// Safety valve: abort (success=false, failure=kBudgetExhausted) if the
  /// assignment graph exceeds this many nodes.
  std::uint64_t max_total_nodes = 20'000'000;

  /// Resource bounds checked in the hot loop (one tick per attempted
  /// frontier expansion). On exhaustion the router returns a structured
  /// FailureKind::kBudgetExhausted failure instead of running unbounded.
  harness::Budget budget;

  /// Reusable scratch (see DpWorkspace). When null a call-local
  /// workspace is used — the historical allocate-per-call behavior.
  DpWorkspace* workspace = nullptr;
};

/// Runs the assignment-graph DP. On success the routing is complete and
/// valid; for Problem 3, `weight` is the minimum total weight.
/// `stats.nodes_per_level` reports the size of each level (the paper's L
/// is `stats.max_level_nodes`).
RouteResult dp_route(const SegmentedChannel& ch, const ConnectionSet& cs,
                     const DpOptions& opts = {});

/// Convenience wrappers.
RouteResult dp_route_unlimited(const SegmentedChannel& ch,
                               const ConnectionSet& cs);
RouteResult dp_route_ksegment(const SegmentedChannel& ch,
                              const ConnectionSet& cs, int k);
RouteResult dp_route_optimal(const SegmentedChannel& ch,
                             const ConnectionSet& cs, const WeightFn& w,
                             int max_segments = 0);

}  // namespace segroute::alg
