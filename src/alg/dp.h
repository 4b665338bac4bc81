// The general dynamic-programming router of Section IV-B over the
// assignment graph of routing frontiers. Solves Problems 1, 2 and 3.
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
// Two searches, picked by the problem. Problem 3 (a weight is set) sweeps
// the graph level by level, keeping the least-weight path into every
// node, and reads the routing back from the last level. Problems 1 and 2
// only ask whether the last level can be reached: a depth-first search
// from the root, trying classes in ascending order and remembering the
// states proven dead, stops at the first level-M state it reaches. That
// path is the lexicographically smallest complete class sequence, which
// is exactly the path the sweep's first-discoverer parents spell, so the
// routing is the sweep's, bit for bit; every state it expands is one the
// sweep would build (DESIGN.md §13.7). Once the search has proven one
// state dead, it also skips every child that column density proves dead:
// connections sharing a column need distinct tracks, so a state whose
// tracks free up too late for the remaining connections' overlaps cannot
// reach the last level (DESIGN.md §13.8). Skipping only dead states keeps
// the routing and the failure kind; the search visits no more states than
// the graph holds, and usually far fewer.
//
// Storage is bit-parallel: each frontier is packed into a fixed number
// of 64-bit occupancy words (alg/frontier_bits.h; each entry takes
// bit_width(width+1) bits), so state equality is a compare of 1-2 words,
// hashing is a word-at-a-time mix, and a dedup probe resolves at once
// while the dedup table is cache-resident; only past kProbeBatchMinBytes
// are the sweep's probes staged in small batches to overlap their cache
// misses. Packing is injective, so the explored state space — node
// counts, routings, weights — is bit-identical to the scalar layout.
// DESIGN.md §13 documents the layout.
#pragma once

#include <cstddef>
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

/// Slot-array size at which dp_route's level sweep starts staging dedup
/// probes in a bits::ProbeBatch. Below it a probe resolves at once: the
/// table is cache-resident and staging costs more than the prefetch
/// hides. The value is the crossover measured with interleaved best-of
/// runs on a 2 MB-per-core-L2 host (DESIGN.md §13.3).
inline constexpr std::size_t kProbeBatchMinBytes = std::size_t{2} << 20;

/// The depth-first search's dead set: states proven unable to reach the
/// last level, keyed by (level, packed words). Open addressing with the
/// key inline (stride words+1: the key words, then a tag word packing an
/// epoch above bit 40 with level + 1 below it), load factor <= 1/2. An
/// entry needs no arena, parent or edge slot. Tags of an older epoch read
/// as empty, so a new call clears no memory: begin() just advances the
/// epoch. A call starts on a table sized for four times the entries the
/// thread's previous call left (DESIGN.md §13.7), so a thread routing
/// similar instances neither regrows it nor fills it past 1/4.
class DeadSet {
 public:
  static constexpr std::uint32_t kEpochShift = 40;

  /// Starts a call whose states pack into `words` words.
  void begin(std::size_t words);

  [[nodiscard]] bool contains(std::uint32_t level, const std::uint64_t* key,
                              std::uint64_t h) const {
    const std::size_t W = stride_ - 1;
    const std::uint64_t tag = tag_of(level);
    for (std::size_t pos = home(h, level);; pos = (pos + 1) & (cap_ - 1)) {
      const std::uint64_t* const slot = slots_.data() + pos * stride_;
      if ((slot[W] >> kEpochShift) != epoch_) return false;
      if (slot[W] == tag && bits::words_equal(slot, key, W)) return true;
    }
  }
  /// contains() for one-word states, the key in a register.
  [[nodiscard]] bool contains_word(std::uint32_t level, std::uint64_t key,
                                   std::uint64_t h) const {
    const std::uint64_t tag = tag_of(level);
    for (std::size_t pos = home(h, level);; pos = (pos + 1) & (cap_ - 1)) {
      const std::uint64_t* const slot = slots_.data() + pos * 2;
      if ((slot[1] >> kEpochShift) != epoch_) return false;
      if ((slot[1] == tag) & (slot[0] == key)) return true;
    }
  }
  /// Starts loading the home slot of a state about to be looked up.
  void prefetch(std::uint32_t level, std::uint64_t h) const {
    bits::prefetch_ro(slots_.data() + home(h, level) * stride_);
  }
  /// Adds a state known not to be in the set.
  void insert(std::uint32_t level, const std::uint64_t* key,
              std::uint64_t h) {
    place(slots_.data(), level, key, h);
    if (++count_ * 2 > cap_) grow();
  }
  /// Slot bytes this call's table spans.
  [[nodiscard]] std::size_t bytes() const {
    return cap_ * stride_ * sizeof(std::uint64_t);
  }

 private:
  [[nodiscard]] std::uint64_t tag_of(std::uint32_t level) const {
    return (epoch_ << kEpochShift) | (level + 1ull);
  }
  // Levels salt the home slot: successive levels often share their left
  // end, and so many of their packed words.
  [[nodiscard]] std::size_t home(std::uint64_t h, std::uint32_t level) const {
    return static_cast<std::size_t>(h ^ (level * 0x9e3779b97f4a7c15ull)) &
           (cap_ - 1);
  }
  void place(std::uint64_t* table, std::uint32_t level,
             const std::uint64_t* key, std::uint64_t h) const {
    const std::size_t W = stride_ - 1;
    std::size_t pos = home(h, level);
    while ((table[pos * stride_ + W] >> kEpochShift) == epoch_) {
      pos = (pos + 1) & (cap_ - 1);
    }
    std::uint64_t* const slot = table + pos * stride_;
    for (std::size_t wj = 0; wj < W; ++wj) slot[wj] = key[wj];
    slot[W] = tag_of(level);
  }
  void grow();

  std::vector<std::uint64_t> slots_;
  std::uint64_t epoch_ = 0;
  std::size_t stride_ = 0;
  std::size_t cap_ = 0;    // slots in use this call (a power of two)
  std::size_t count_ = 0;  // entries this call
};

/// One level of the depth-first search's stack. The packed state of a
/// one-word frontier lives here; wider ones live in DpWorkspace::words.
struct DfsFrame {
  std::uint64_t word = 0;  // one-word state
  std::uint64_t cw = 0;    // one-word state clamped to the next left end
  std::uint64_t cand = 0;  // one-word SWAR bits of classes not yet tried
  std::uint64_t h = 0;     // state hash, for the dead-set insert on pop
  std::int32_t next_open = 0;  // multi-word: next entry of the open list
  std::int32_t n_open = 0;   // multi-word: open classes of the state
  std::int32_t last_cl = -1;  // ticks consumed through this class
  std::int32_t cl = -1;       // class of the edge to the frame above
};

/// Per-level constants of the depth-first search, built the first time
/// the search reaches a level (levels are reached in order).
struct DfsLevel {
  std::uint64_t open_hi = 0;  // one-word: top field bit of open classes
  std::uint64_t left = 0;     // this level's connection's left end
  std::uint64_t next_left = 0;
};

/// dp_route's scratch: every per-call vector (frontier arena, node
/// metadata SoA, dedup table, class tables, search stack, dead set,
/// replay state) in one bundle. dp_route leases the calling thread's
/// workspace through ThreadScratch (core/thread_scratch.h), so repeated
/// calls on one thread are allocation-free in steady state; a nested call
/// gets its own. Every field is reinitialized per call except the dead
/// set, whose epoch makes earlier calls' entries unreadable.
struct DpWorkspace {
  /// Packed-state layout for the current call: each frontier is
  /// bit-packed into `codec.words()` 64-bit occupancy words (see
  /// alg/frontier_bits.h and DESIGN.md §13).
  bits::FrontierCodec codec;
  std::vector<std::uint64_t> arena;  // sweep: packed frontier words
  std::vector<std::int64_t> parent;
  std::vector<std::int32_t> edge_class;
  std::vector<double> node_w;
  /// The sweep's open-addressing dedup table; each slot stores the
  /// packed key inline (stride words()+1: key words, then an
  /// epoch-tagged node id), so a probe never dereferences the arena.
  /// Levels themselves need no storage: ids are assigned consecutively,
  /// so each level is a contiguous id range.
  std::vector<std::uint64_t> slots;
  /// Class tables, one row of num_classes per level: whether the class
  /// may host the level's connection, and its next-free column after
  /// routing it. The sweep keeps one row (rebuilt per level), the
  /// depth-first search one per level it has reached.
  std::vector<char> cls_ok;
  std::vector<Column> cls_free;
  std::vector<double> cls_w;  // sweep: Problem-3 weight per class
  /// Per-class next-free-column table, built once per call: row cl,
  /// column c holds the first free column after routing through c on a
  /// class-cl track. Replaces the per-level (and replay) segment_at
  /// binary searches.
  std::vector<Column> cls_next_free;
  /// Pooled per-call field scratch: the per-class packed-position table,
  /// then the sweep's node-in-hand unpacked frontier and its clamped
  /// copy, or the depth-first search's clamped frontier per level
  /// (spans are carved out in dp.cpp).
  std::vector<std::int32_t> fields;
  /// Pooled per-call word scratch: the sweep's clamped packed words and
  /// ProbeBatch staging area, or the depth-first search's multi-word
  /// slices, one per level: the state, its clamped copy, one successor
  /// and its hash per class, and the state's open classes.
  std::vector<std::uint64_t> words;
  /// The sweep's staged dedup probes (storage lives in words). Probes are
  /// staged only while the slot array is at least kProbeBatchMinBytes;
  /// below that the multi-word path still builds each candidate in the
  /// first staging slot.
  bits::ProbeBatch batch;
  std::vector<DfsFrame> frames;  // depth-first stack, one frame per level
  std::vector<DfsLevel> levels;
  DeadSet dead;
  /// The depth-first search's column-density thresholds, built the first
  /// time a call proves a state dead. Level i's row holds thr_n[i] runs
  /// (-1: more than T of the connections i..M-1 share a column; level M
  /// has none), run r saying that thr_k[i*T+r] tracks must be free by
  /// column thr_t[i*T+r]; thr_dens is the build's per-connection overlap
  /// count.
  std::vector<std::int32_t> thr_n;
  std::vector<Column> thr_t;
  std::vector<std::int32_t> thr_k;
  std::vector<std::int32_t> thr_dens;
  std::vector<ConnId> order;
  std::vector<TrackId> class_members;  // member tracks, flattened by class
  std::vector<int> class_begin;        // per-class offsets into class_members
  std::vector<int> class_cursor;
  std::vector<int> class_choice;
  std::vector<Column> next_free;
};

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

  /// Safety valve: abort (success=false, failure=kBudgetExhausted) once
  /// the search holds this many states: graph nodes for the sweep,
  /// visited states (root and last level included) for the depth-first
  /// search.
  std::uint64_t max_total_nodes = 20'000'000;

  /// Resource bounds checked in the hot loop: one tick per (expanded
  /// state, class) pair, closed classes included. On exhaustion the router
  /// returns a structured FailureKind::kBudgetExhausted failure instead
  /// of running unbounded. The depth-first search expands a subset of the
  /// sweep's states, so it never spends more ticks than the sweep would.
  harness::Budget budget;
};

/// Runs the assignment-graph DP. On success the routing is complete and
/// valid; for Problem 3, `weight` is the minimum total weight.
/// Problem 3: `stats.nodes_per_level` reports the size of each level of
/// the assignment graph (the paper's L is `stats.max_level_nodes`).
/// Problems 1 and 2: it reports the states the depth-first search
/// visited per level, at most the graph's level sizes and over no more
/// levels; states that column density proves dead are skipped unvisited,
/// so even an infeasible instance may stop short of the sweep's levels.
/// To measure the full graph of a Problem-1/2 instance, route it with
/// `weights::unit()` (same graph, and the same routing).
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
