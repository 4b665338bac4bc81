#include "alg/dp.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "alg/frontier_bits.h"
#include "core/routing.h"
#include "core/thread_scratch.h"
#include "obs/instrument.h"

namespace segroute::alg {

namespace {

// ---- Successor arithmetic shared by the sweep and the depth-first search.

// Deletes the field at bit `sh` of `word` (a class's first entry), slides
// the next `cnt` fields down one place and writes `v` into the field freed
// above them. With cnt = the in-class entries below v, that is the
// successor frontier of a sorted class run: a handful of shifts on one
// register word.
SEGROUTE_BITS_FORCE_INLINE inline std::uint64_t splice_word(
    std::uint64_t word, std::uint32_t sh, std::uint32_t cnt, std::uint32_t B,
    std::uint64_t v) {
  const std::uint32_t sj = sh + cnt * B;
  const std::uint64_t below = word & ((1ull << sh) - 1);
  const std::uint64_t mid = (word >> B) & (((1ull << (cnt * B)) - 1) << sh);
  const std::uint32_t ab = sj + B;
  const std::uint64_t above = ab >= 64 ? 0 : (word >> ab) << ab;
  return below | mid | (v << sj) | above;
}

// One-word successor: the class [cb, ce) starts at bit `sh` of the clamped
// state `cw`; its first entry (== L) is replaced by v, repositioned within
// the still-sorted class run. Clamping by a constant preserves in-class
// order, so the insertion offset is the count of later entries below v.
SEGROUTE_BITS_FORCE_INLINE inline std::uint64_t successor_word(
    std::uint64_t cw, std::uint32_t sh, int cb, int ce, std::uint32_t B,
    std::uint64_t fm, std::uint64_t v) {
  std::uint32_t cnt = 0;
  if (ce - cb > 1) {
    std::uint64_t x = cw >> (sh + B);
    for (int k = cb + 1; k < ce; ++k, x >>= B) cnt += (x & fm) < v;
  }
  return splice_word(cw, sh, cnt, B, v);
}

// Multi-word successor into dst, from the clamped state in packed (cw) and
// unpacked (cf) form. pos is the class's {word, shift, fits-one-word}
// entry: a class range inside one word takes the register splice, one
// straddling words falls back to per-field rewrites.
SEGROUTE_BITS_FORCE_INLINE inline void successor_words(
    const bits::FrontierCodec& codec, const std::uint64_t* cw,
    const std::int32_t* cf, const std::int32_t* pos, int cb, int ce, Column v,
    std::uint64_t* dst, std::size_t W, std::uint32_t B) {
  std::uint32_t cnt = 0;
  for (int k = cb + 1; k < ce; ++k) cnt += cf[k] < v;
  for (std::size_t wj = 0; wj < W; ++wj) dst[wj] = cw[wj];
  if (pos[2]) {
    const auto wd0 = static_cast<std::size_t>(pos[0]);
    dst[wd0] = splice_word(
        cw[wd0], static_cast<std::uint32_t>(pos[1]), cnt, B,
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
  } else {
    for (std::uint32_t k = 0; k < cnt; ++k) {
      codec.set_field(dst, static_cast<std::size_t>(cb) + k,
                      cf[cb + 1 + static_cast<int>(k)]);
    }
    codec.set_field(dst, static_cast<std::size_t>(cb) + cnt, v);
  }
}

// One-word state clamped to the next connection's left end Ln. Entries
// are already normalized to >= L, so Ln == L leaves the word unchanged.
SEGROUTE_BITS_FORCE_INLINE inline std::uint64_t clamp_word(
    std::uint64_t word, std::uint64_t L, std::uint64_t Ln, std::size_t Ts,
    std::uint32_t B, std::uint64_t fm) {
  if (Ln == L) return word;
  std::uint64_t cw = 0;
  for (std::size_t j = 0; j < Ts; ++j, word >>= B) {
    const std::uint64_t f = word & fm;
    cw |= (f > Ln ? f : Ln) << (j * B);
  }
  return cw;
}

// SWAR zero-field detect over word ^ broadcast(L): the top bit of a field
// survives iff that field equals L — except for rare false positives
// where a borrow ripples out of a lower field (field == L+1 right above a
// field == L), which callers re-check exactly. No false negatives, and
// AND-ing with open_hi (top field bit of every open class representative)
// folds the class test in. Bits come out in ascending class order.
SEGROUTE_BITS_FORCE_INLINE inline std::uint64_t candidate_bits(
    std::uint64_t word, std::uint64_t swar_lo, std::uint64_t L,
    std::uint64_t open_hi) {
  const std::uint64_t xw = word ^ (swar_lo * L);
  return (xw - swar_lo) & ~xw & open_hi;
}

// One dp_route call after its shared setup: the class layout, packed-field
// geometry and per-call tables both searches read. Each search records
// its stats and failure in `res`; dp_route flushes the observability.
struct DpCall {
  const SegmentedChannel& ch;
  const ConnectionSet& cs;
  const DpOptions& opts;
  DpWorkspace& ws;
  RouteResult& res;
  harness::BudgetMeter& meter;
  bool metered;  // with no bound of any kind, tick() can never fail
  ConnId M;
  std::size_t Ts;
  int num_classes;
  std::size_t W;
  std::uint32_t B;   // bits per frontier entry
  std::uint64_t fm;  // per-field mask
  const Column* nf_tab;
  std::size_t nf_stride;
  // Per class: word index of its first field, bit shift of that field,
  // and whether the whole class range lives in a single word.
  const std::int32_t* cls_pos;
  // One-word SWAR constants: bit 0 of every field, and the map from a
  // class representative's top field bit back to its class index.
  std::uint64_t swar_lo = 0;
  std::uint64_t swar_hi = 0;  // top bit of every field
  std::uint8_t pos2cls[64] = {};

  // Flushed once per call by dp_route.
  std::uint64_t dedup_hits = 0;
  std::uint64_t dead_states = 0;
  std::uint64_t pruned_states = 0;
  std::size_t state_bytes = 0;

  [[nodiscard]] int cb(int cl) const {
    return ws.class_begin[static_cast<std::size_t>(cl)];
  }
  [[nodiscard]] int ce(int cl) const {
    return ws.class_begin[static_cast<std::size_t>(cl) + 1];
  }
  [[nodiscard]] Column left(ConnId step) const {
    return step < M ? cs[ws.order[static_cast<std::size_t>(step)]].left
                    : ch.width() + 1;
  }

  // Class tables of level `step`: ok[cl] iff class cl may host the
  // level's connection (K-segment cap, finite weight), free[cl] its
  // next-free column after routing it (clamped to the next connection's
  // left end), w[cl] its Problem-3 weight (sweep only).
  void fill_level(ConnId step, char* ok, Column* free, double* w) const {
    const Connection& conn = cs[ws.order[static_cast<std::size_t>(step)]];
    const Column Lnext = left(step + 1);
    for (int cl = 0; cl < num_classes; ++cl) {
      const auto c = static_cast<std::size_t>(cl);
      // Representative track: the class's first (lowest-id) member;
      // identical segmentation makes it stand for all of them.
      const TrackId rep = ws.class_members[static_cast<std::size_t>(cb(cl))];
      ok[c] = 0;
      if (opts.max_segments > 0 &&
          ch.track(rep).segments_spanned(conn.left, conn.right) >
              opts.max_segments) {
        continue;
      }
      if (w != nullptr) {
        const double wt = (*opts.weight)(ch, conn, rep);
        if (std::isinf(wt)) continue;
        w[c] = wt;
      }
      ok[c] = 1;
      free[c] = std::max(
          nf_tab[c * nf_stride + static_cast<std::size_t>(conn.right)], Lnext);
    }
  }

  // One-word: top field bit of every open class representative.
  [[nodiscard]] std::uint64_t open_hi(const char* ok) const {
    std::uint64_t hi = 0;
    for (int cl = 0; cl < num_classes; ++cl) {
      if (ok[static_cast<std::size_t>(cl)]) {
        hi |= 1ull << (static_cast<std::uint32_t>(cls_pos[3 * cl + 1]) + B -
                       1);
      }
    }
    return hi;
  }

  void fail_infeasible(ConnId step) {
    res.fail(FailureKind::kInfeasible,
             "no valid assignment of connection " +
                 std::to_string(ws.order[static_cast<std::size_t>(step)]) +
                 " extends any frontier (level " + std::to_string(step + 1) +
                 " empty)");
    res.stats.nodes_per_level.push_back(0);
  }

  void build_thresholds();
  [[nodiscard]] Column child_bound(std::uint64_t word, std::size_t i) const;
  [[nodiscard]] Column child_bound(const std::int32_t* fields,
                                   std::size_t i) const;
  std::uint64_t drop_dead(std::uint64_t cand, std::uint64_t word,
                          std::uint64_t L, const Column* free, Column bound);
  std::int32_t drop_dead(std::uint64_t* open, std::int32_t from,
                         std::int32_t n, const Column* free, Column bound);

  bool sweep();
  bool depth_first();
  template <bool kOneWord>
  bool depth_first_loop(std::uint64_t node_cap);
};

// ---- Column density --------------------------------------------------------

// No column-density bound on a child's next-free column.
constexpr Column kNoBound = std::numeric_limits<Column>::max();

// Connections that share a column need distinct tracks, and a track whose
// next free column is x hosts only connections starting at or after x. So
// with t_i(k) the first column where k of the connections i..M-1 overlap,
// a state at level i reaches level M only if, for every k, at least k of
// its entries are <= t_i(k). t_i(k) only ever steps up at a left end, so
// one backward pass over the sorted connections, keeping each one's overlap
// count at its left end, yields every level's row in O(M^2): level i's row
// lists the runs (t, k) where the prefix maximum of those counts first
// reaches k, or -1 once it passes T.
void DpCall::build_thresholds() {
  const auto Ms = static_cast<std::size_t>(M);
  auto& dens = ws.thr_dens;
  dens.assign(Ms, 0);
  ws.thr_n.resize(Ms + 1);
  ws.thr_n[Ms] = 0;  // level M: nothing left to route
  ws.thr_t.resize(Ms * Ts);
  ws.thr_k.resize(Ms * Ts);
  const auto T = static_cast<std::int32_t>(Ts);
  for (ConnId i = M; i-- > 0;) {
    const auto iu = static_cast<std::size_t>(i);
    const Column L = left(i);
    const Column R = cs[ws.order[iu]].right;
    // Connection i covers every later left end up to its right end.
    for (ConnId j = i + 1; j < M && left(j) <= R; ++j) {
      ++dens[static_cast<std::size_t>(j)];
    }
    dens[iu] = i + 1 < M && left(i + 1) == L ? dens[iu + 1] : 1;
    Column* const t = ws.thr_t.data() + iu * Ts;
    std::int32_t* const k = ws.thr_k.data() + iu * Ts;
    std::int32_t n = 0;
    std::int32_t top = 0;
    for (std::size_t j = iu; j < Ms; ++j) {
      if (dens[j] <= top) continue;
      top = dens[j];
      if (top > T) {
        n = -1;
        break;
      }
      t[n] = left(static_cast<ConnId>(j));
      k[n++] = top;
    }
    ws.thr_n[iu] = n;
  }
}

// The children of a level-(i-1) state replace one entry equal to its left
// end, which every row-i threshold counts, by their own next-free column
// v; clamping to left(i) moves no entry across a threshold. So with c(t)
// the state's entries <= t, a child passes row i iff c(t) - 1 + [v <= t]
// >= k for every run (t, k): iff no run is short, and v is at most the
// first run with c(t) == k. Returns that bound (kNoBound if no run is
// tight, -1 if every child fails).
Column DpCall::child_bound(std::uint64_t word, std::size_t i) const {
  const std::int32_t n = ws.thr_n[i];
  if (n < 0) return -1;
  const Column* const t = ws.thr_t.data() + i * Ts;
  const std::int32_t* const k = ws.thr_k.data() + i * Ts;
  // SWAR t < x over fields with no spare bit: the high bit of a field
  // compares directly, the low bits through a subtraction whose borrow
  // the forced-on high bit of t absorbs.
  const std::uint64_t lo = word & ~swar_hi;
  Column bound = kNoBound;
  for (std::int32_t r = 0; r < n; ++r) {
    const std::uint64_t tb =
        swar_lo * static_cast<std::uint64_t>(static_cast<std::uint32_t>(t[r]));
    const std::uint64_t above =
        swar_hi & ((~tb & word) | ~((tb ^ word) | ((tb | swar_hi) - lo)));
    const std::int32_t slack =
        static_cast<std::int32_t>(Ts) - std::popcount(above) - k[r];
    if (slack < 0) return -1;
    if (slack == 0 && bound == kNoBound) bound = t[r];
  }
  return bound;
}

// child_bound() over an unpacked (multi-word) state.
Column DpCall::child_bound(const std::int32_t* fields, std::size_t i) const {
  const std::int32_t n = ws.thr_n[i];
  if (n < 0) return -1;
  const Column* const t = ws.thr_t.data() + i * Ts;
  const std::int32_t* const k = ws.thr_k.data() + i * Ts;
  Column bound = kNoBound;
  for (std::int32_t r = 0; r < n; ++r) {
    std::int32_t c = 0;
    for (std::size_t j = 0; j < Ts; ++j) c += fields[j] <= t[r];
    if (c < k[r]) return -1;
    if (c == k[r] && bound == kNoBound) bound = t[r];
  }
  return bound;
}

// Drops from a state's untried children the ones column density proves
// dead: next-free column past `bound`. Ticks are charged by class index
// (cl - last_cl), so a dropped child's tick is still spent, by the next
// child tried or the pop, exactly as for a dead-set hit. One-word: the
// SWAR candidate bits, whose borrow-ripple false positives (field != L)
// go uncounted.
std::uint64_t DpCall::drop_dead(std::uint64_t cand, std::uint64_t word,
                                std::uint64_t L, const Column* free,
                                Column bound) {
  for (std::uint64_t c = cand; c != 0; c &= c - 1) {
    const auto bpos = static_cast<std::uint32_t>(std::countr_zero(c));
    if (free[pos2cls[bpos]] <= bound) continue;
    cand &= ~(1ull << bpos);
    pruned_states += ((word >> (bpos + 1 - B)) & fm) == L;
  }
  return cand;
}

// Multi-word: compacts open[from, n), the untried open classes, in
// place; returns the new n.
std::int32_t DpCall::drop_dead(std::uint64_t* open, std::int32_t from,
                               std::int32_t n, const Column* free,
                               Column bound) {
  std::int32_t kept = from;
  for (std::int32_t i = from; i < n; ++i) {
    if (free[open[i]] <= bound) {
      open[kept++] = open[i];
    } else {
      ++pruned_states;
    }
  }
  return kept;
}

// ---- Problem 3: the level sweep ----------------------------------------

// Builds every level of the assignment graph in full; the dedup table
// keeps the least-weight path into each node. On success fills
// ws.class_choice from the terminal's parent chain and res.weight.
bool DpCall::sweep() {
  const std::size_t Cs = static_cast<std::size_t>(num_classes);
  auto& codec = ws.codec;
  std::int32_t* const cur = ws.fields.data() + 3 * Cs;
  std::int32_t* const clamped = cur + Ts;

  // Node storage is structure-of-arrays: frontiers live bit-packed in one
  // flat word arena (node i's frontier is arena[i*W .. (i+1)*W)), the
  // per-node scalars in parallel vectors. No per-node heap allocation;
  // frontier equality is a compare of W words.
  auto& arena = ws.arena;
  auto& parent = ws.parent;
  auto& edge_class = ws.edge_class;
  auto& node_w = ws.node_w;
  arena.clear();
  arena.reserve(W * 1024);
  parent.clear();
  edge_class.clear();
  node_w.clear();
  parent.reserve(1024);
  edge_class.reserve(1024);
  node_w.reserve(1024);

  std::uint64_t* const clamped_words = ws.words.data();
  auto& batch = ws.batch;
  batch.reset(W, clamped_words + W);

  const auto finish = [&](bool ok) {
    res.stats.total_nodes = parent.size();
    state_bytes = arena.capacity() * sizeof(arena[0]);
    return ok;
  };

  // Root: every track free; normalized w.r.t. the first connection's left.
  const Column L0 = left(0);
  for (std::size_t j = 0; j < Ts; ++j) cur[j] = L0;
  arena.resize(W);
  codec.pack(cur, arena.data());
  parent.push_back(-1);
  edge_class.push_back(-1);
  node_w.push_back(0.0);

  // Levels are contiguous id ranges: ids are handed out in insertion
  // order, so the current level is [lv_begin, lv_end) and the level
  // under construction is [nl_begin, parent.size()) — no level vectors,
  // no per-insert bookkeeping beyond the appends themselves.
  std::int64_t lv_begin = 0;
  std::int64_t lv_end = 1;
  std::int64_t nl_begin = 1;
  res.stats.nodes_per_level.push_back(1);
  const auto push_level = [&] {
    res.stats.nodes_per_level.push_back(parent.size() -
                                        static_cast<std::size_t>(nl_begin));
  };

  // Per-level class tables (row 0 of the workspace tables, rebuilt per
  // level): everything that depends only on (class, connection) is
  // computed once per class per level instead of once per node x class.
  ws.cls_ok.assign(Cs, 0);
  ws.cls_free.assign(Cs, 0);
  ws.cls_w.assign(Cs, 0.0);
  const char* const cls_ok = ws.cls_ok.data();
  const Column* const cls_free = ws.cls_free.data();
  const double* const cls_w = ws.cls_w.data();

  // Open-addressing dedup table over packed states. Each slot stores
  // the key *inline* — stride W+1 words: the W key words, then an
  // occupancy word — so a probe compares against one contiguous slot and
  // never chases a pointer into the arena. The occupancy word packs the
  // level epoch (high bits) with the node id + 1 (low 40 bits), so
  // advancing the epoch empties the whole table with no per-level
  // memset; within a call the table only ever grows.
  auto& slots = ws.slots;
  const std::size_t stride = W + 1;
  constexpr std::uint32_t kEpochShift = 40;
  constexpr std::uint64_t kIdMask = (1ull << kEpochShift) - 1;
  // Node ids must fit below the epoch bits; the practical bound is
  // opts.max_total_nodes (the 2^40 ceiling is multi-terabyte territory).
  const std::uint64_t node_cap =
      std::min<std::uint64_t>(opts.max_total_nodes, kIdMask - 1);
  std::uint64_t epoch = 0;
  std::size_t tbl_cap = 0;
  std::size_t mask = 0;
  // Probe regime, re-decided whenever the table is resized (at a level
  // start or mid-level): immediate while the slot array is below
  // kProbeBatchMinBytes, staged in `batch` from there on. The table only
  // grows within a call, so a level can switch to batching mid-level but
  // never back.
  bool batched = false;
  const auto rehash = [&](std::size_t cap) {
    tbl_cap = cap;
    mask = cap - 1;
    batched = cap * stride * sizeof(std::uint64_t) >= kProbeBatchMinBytes;
    slots.assign(cap * stride, 0);
    for (std::int64_t id = nl_begin;
         id < static_cast<std::int64_t>(parent.size()); ++id) {
      const std::uint64_t* key =
          arena.data() + static_cast<std::size_t>(id) * W;
      std::size_t pos = static_cast<std::size_t>(bits::hash_words(key, W)) & mask;
      while ((slots[pos * stride + W] >> kEpochShift) == epoch) {
        pos = (pos + 1) & mask;
      }
      std::uint64_t* slot = slots.data() + pos * stride;
      for (std::size_t wj = 0; wj < W; ++wj) slot[wj] = key[wj];
      slot[W] =
          (epoch << kEpochShift) | (static_cast<std::uint64_t>(id) + 1);
    }
  };

  // Resolves one candidate against the live table. Returns false iff
  // the node limit was hit (failure recorded; stats NOT yet pushed).
  // Force-inlined with register arguments: this runs once per expansion
  // and must cost neither a call nor a staging-memory round trip.
  const auto probe_state = [&](const std::uint64_t* key, std::uint64_t h,
                               std::int64_t origin, std::int32_t aux,
                               double wgt) SEGROUTE_BITS_FORCE_INLINE
      -> bool {
    std::size_t pos = static_cast<std::size_t>(h) & mask;
    std::uint64_t* const sl = slots.data();
    for (;;) {
      std::uint64_t* const slot = sl + pos * stride;
      const std::uint64_t occ = slot[W];
      if ((occ >> kEpochShift) != epoch) {
        if (parent.size() >= node_cap) {
          res.fail(FailureKind::kBudgetExhausted,
                   "assignment graph exceeded node limit");
          return false;
        }
        const std::int64_t id = static_cast<std::int64_t>(parent.size());
        if (arena.capacity() - arena.size() < W) {
          arena.reserve(arena.capacity() * 2);
        }
        for (std::size_t wj = 0; wj < W; ++wj) arena.push_back(key[wj]);
        parent.push_back(origin);
        edge_class.push_back(aux);
        node_w.push_back(wgt);
        for (std::size_t wj = 0; wj < W; ++wj) slot[wj] = key[wj];
        slot[W] =
            (epoch << kEpochShift) | (static_cast<std::uint64_t>(id) + 1);
        const std::size_t nl_count =
            parent.size() - static_cast<std::size_t>(nl_begin);
        if ((nl_count + 1) * 2 > tbl_cap) rehash(tbl_cap * 2);
        return true;
      }
      if (bits::words_equal(slot, key, W)) {
        const auto s = static_cast<std::size_t>((occ & kIdMask) - 1);
        ++dedup_hits;
        if (wgt < node_w[s]) {
          node_w[s] = wgt;
          parent[s] = origin;
          edge_class[s] = aux;
        }
        return true;
      }
      pos = (pos + 1) & mask;
    }
  };
  // Single-word specialization of probe_state: key, slot compare and
  // occupancy test all stay in registers (slot stride is 2: key word,
  // occupancy word).
  const auto probe_w1 = [&](std::uint64_t key, std::uint64_t h,
                            std::int64_t origin, std::int32_t aux,
                            double wgt) SEGROUTE_BITS_FORCE_INLINE -> bool {
    std::size_t pos = static_cast<std::size_t>(h) & mask;
    std::uint64_t* const sl = slots.data();
    for (;;) {
      std::uint64_t* const slot = sl + pos * 2;
      const std::uint64_t occ = slot[1];
      if ((occ >> kEpochShift) != epoch) {
        if (parent.size() >= node_cap) {
          res.fail(FailureKind::kBudgetExhausted,
                   "assignment graph exceeded node limit");
          return false;
        }
        const std::int64_t id = static_cast<std::int64_t>(parent.size());
        if (arena.capacity() == arena.size()) {
          arena.reserve(arena.capacity() * 2);
        }
        arena.push_back(key);
        parent.push_back(origin);
        edge_class.push_back(aux);
        node_w.push_back(wgt);
        slot[0] = key;
        slot[1] =
            (epoch << kEpochShift) | (static_cast<std::uint64_t>(id) + 1);
        const std::size_t nl_count =
            parent.size() - static_cast<std::size_t>(nl_begin);
        if ((nl_count + 1) * 2 > tbl_cap) rehash(tbl_cap * 2);
        return true;
      }
      if (slot[0] == key) {
        const auto s = static_cast<std::size_t>((occ & kIdMask) - 1);
        ++dedup_hits;
        if (wgt < node_w[s]) {
          node_w[s] = wgt;
          parent[s] = origin;
          edge_class[s] = aux;
        }
        return true;
      }
      pos = (pos + 1) & mask;
    }
  };
  // Candidates resolve strictly in arrival order, so a flush is
  // semantically identical to immediate probing; prefetching every home
  // slot first just overlaps their cache misses. Immediate probing leaves
  // the batch empty, so the flushes at a level's end and on failure are
  // no-ops there.
  const auto flush_batch = [&]() -> bool {
    if (batch.count > 1) {
      for (std::size_t i = 0; i < batch.count; ++i) {
        bits::prefetch_ro(
            &slots[(static_cast<std::size_t>(batch.hash[i]) & mask) * stride]);
      }
    }
    for (std::size_t i = 0; i < batch.count; ++i) {
      const bool ok =
          W == 1 ? probe_w1(batch.words[i], batch.hash[i], batch.origin[i],
                            batch.aux[i], batch.weight[i])
                 : probe_state(batch.words + i * W, batch.hash[i],
                               batch.origin[i], batch.aux[i], batch.weight[i]);
      if (!ok) {
        batch.count = 0;
        return false;
      }
    }
    batch.count = 0;
    return true;
  };

  for (ConnId step = 0; step < M; ++step) {
    const Column L = left(step);  // frontier entries are normalized to >= L
    const Column Lnext = left(step + 1);
    fill_level(step, ws.cls_ok.data(), ws.cls_free.data(), ws.cls_w.data());
    nl_begin = lv_end;
    std::size_t cap = tbl_cap != 0 ? tbl_cap : 64;
    while (cap < static_cast<std::size_t>(lv_end - lv_begin) * 4) cap <<= 1;
    if (++epoch >= (1ull << (64 - kEpochShift))) {
      // Epoch bits exhausted (16M+ levels in one call): hard-clear once
      // and restart the count so stale occupancy can never alias.
      epoch = 1;
      rehash(cap);
    } else if (cap > tbl_cap) {
      rehash(cap);  // the new level is empty: sizes and clears the table
    }

    // Budget accounting: one tick per (node, class) pair, skipped classes
    // included — but the ticks for runs of closed classes are consumed in
    // bulk, so a budget failure cuts the level at the same expansion it
    // always did. On any failure the staged batch is flushed first:
    // everything that was expanded has its node appended, exactly as
    // with immediate insertion.
    const auto fail_budget = [&]() {
      if (flush_batch()) {
        res.fail(FailureKind::kBudgetExhausted,
                 "budget exhausted: " + meter.reason());
      }
      push_level();
      return finish(false);
    };

    if (W == 1) {
      // Whole-frontier-in-one-word fast path (every channel with
      // fields_per_word() >= tracks, i.e. all typical instances): the
      // node state, its Lnext clamp, the successor splice and the dedup
      // key live in registers end to end. Same arithmetic as the
      // generic loop below — the explored graph is bit-identical.
      const auto Ln =
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(Lnext));
      const auto Lu = static_cast<std::uint64_t>(static_cast<std::uint32_t>(L));
      const std::uint64_t ok_hi = open_hi(cls_ok);
      for (std::int64_t ni = lv_begin; ni < lv_end; ++ni) {
        const std::uint64_t nodeword = arena[static_cast<std::size_t>(ni)];
        std::uint64_t cw = 0;  // clamped node word, built lazily
        bool clamped_ready = false;
        double base_w = 0.0;
        int last_cl = -1;  // ticks are consumed through this class index
        std::uint64_t cand = candidate_bits(nodeword, swar_lo, Lu, ok_hi);
        while (cand != 0) {
          const auto bpos =
              static_cast<std::uint32_t>(std::countr_zero(cand));
          cand &= cand - 1;
          const std::uint32_t sh = bpos + 1 - B;
          if (((nodeword >> sh) & fm) != Lu) continue;  // borrow ripple
          const int cl = pos2cls[bpos];
          if (metered &&
              !meter.tick(static_cast<std::uint64_t>(cl - last_cl))) {
            return fail_budget();
          }
          last_cl = cl;
          if (!clamped_ready) {
            cw = clamp_word(nodeword, Lu, Ln, Ts, B, fm);
            base_w = node_w[static_cast<std::size_t>(ni)];
            clamped_ready = true;
          }
          const std::uint64_t key = successor_word(
              cw, sh, cb(cl), ce(cl), B, fm,
              static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                  cls_free[static_cast<std::size_t>(cl)])));
          const std::uint64_t h = bits::hash_word(key);
          const double wgt = base_w + cls_w[static_cast<std::size_t>(cl)];
          bool inserted_ok;
          if (!batched) {
            inserted_ok =
                probe_w1(key, h, ni, static_cast<std::int32_t>(cl), wgt);
          } else {
            batch.slot_words()[0] = key;
            batch.push(h, ni, static_cast<std::int32_t>(cl), wgt);
            inserted_ok = !batch.full() || flush_batch();
          }
          if (!inserted_ok) {
            push_level();
            return finish(false);
          }
        }
        if (metered &&
            !meter.tick(
                static_cast<std::uint64_t>(num_classes - 1 - last_cl))) {
          return fail_budget();
        }
      }
    } else {
      for (std::int64_t ni = lv_begin; ni < lv_end; ++ni) {
        const std::size_t nbase = static_cast<std::size_t>(ni) * W;

        // The Lnext clamp is shared by every successor of this node:
        // unpack + clamp + repack happen once, lazily — nodes with no
        // open class never touch their full frontier. node_w[ni] is
        // stable for the whole node (min-weight updates only ever touch
        // next-level ids).
        bool clamped_ready = false;
        double base_w = 0.0;
        int last_cl = -1;  // ticks are consumed through this class index

        // Class scan straight off the packed words: a class can host the
        // connection iff its smallest frontier entry equals L (entries
        // are normalized to >= L, and availability means next-free-column
        // == L; in-class entries are sorted, so the representative is the
        // class's first field). The arena pointer is re-read each
        // iteration because successor inserts may reallocate it mid-node.
        for (int cl = 0; cl < num_classes; ++cl) {
          const auto rep = static_cast<Column>(
              (arena[nbase + static_cast<std::size_t>(cls_pos[3 * cl])] >>
               cls_pos[3 * cl + 1]) &
              fm);
          if (!(static_cast<bool>(cls_ok[static_cast<std::size_t>(cl)]) &
                (rep == L))) {
            continue;
          }
          if (metered &&
              !meter.tick(static_cast<std::uint64_t>(cl - last_cl))) {
            return fail_budget();
          }
          last_cl = cl;
          if (!clamped_ready) {
            codec.unpack(arena.data() + nbase, cur);
            for (std::size_t j = 0; j < Ts; ++j) {
              clamped[j] = std::max(cur[j], Lnext);
            }
            codec.pack(clamped, clamped_words);
            base_w = node_w[static_cast<std::size_t>(ni)];
            clamped_ready = true;
          }
          std::uint64_t* dst = batch.slot_words();
          successor_words(codec, clamped_words, clamped, cls_pos + 3 * cl,
                          cb(cl), ce(cl),
                          cls_free[static_cast<std::size_t>(cl)], dst, W, B);
          const std::uint64_t h = bits::hash_words(dst, W);
          const double wgt = base_w + cls_w[static_cast<std::size_t>(cl)];
          bool inserted_ok;
          if (!batched) {
            // Cache-resident table: resolve immediately — dst is the
            // (empty) batch's first staging slot, and every probe
            // argument is still in a register.
            inserted_ok =
                probe_state(dst, h, ni, static_cast<std::int32_t>(cl), wgt);
          } else {
            batch.push(h, ni, static_cast<std::int32_t>(cl), wgt);
            inserted_ok = !batch.full() || flush_batch();
          }
          if (!inserted_ok) {
            push_level();
            return finish(false);
          }
        }
        if (metered &&
            !meter.tick(
                static_cast<std::uint64_t>(num_classes - 1 - last_cl))) {
          return fail_budget();
        }
      }
    }
    if (!flush_batch()) {
      push_level();
      return finish(false);
    }
    if (parent.size() == static_cast<std::size_t>(nl_begin)) {
      fail_infeasible(step);
      return finish(false);
    }
    push_level();
    lv_begin = nl_begin;
    lv_end = static_cast<std::int64_t>(parent.size());
  }

  // Pick the terminal node: all frontiers at level M are normalized to
  // width+1 everywhere, so there is exactly one node, and the dedup table
  // already kept the minimum-weight path into it.
  std::int64_t best = lv_begin;
  for (std::int64_t ni = lv_begin; ni < lv_end; ++ni) {
    if (node_w[static_cast<std::size_t>(ni)] <
        node_w[static_cast<std::size_t>(best)]) {
      best = ni;
    }
  }
  auto& class_choice = ws.class_choice;
  class_choice.assign(static_cast<std::size_t>(M), -1);
  {
    std::int64_t at = best;
    for (ConnId step = M; step-- > 0;) {
      class_choice[static_cast<std::size_t>(step)] =
          edge_class[static_cast<std::size_t>(at)];
      at = parent[static_cast<std::size_t>(at)];
    }
  }
  res.weight = node_w[static_cast<std::size_t>(best)];
  return finish(true);
}

// ---- Problems 1 and 2: depth-first search --------------------------------

// Searches the assignment graph depth-first from the root, expanding
// classes in ascending order: descend into the first child not yet proven
// dead, mark a state dead once all its children are, stop at the first
// level-M state. The sweep numbers each level's nodes by (parent's number,
// class) and keeps the first discoverer as parent, so a node's number
// ranks the lexicographically smallest class sequence reaching it, and
// the sweep's answer is the lexicographically smallest complete sequence:
// the one this search meets first (DESIGN.md §13.7). Every state expanded
// here is a graph node the sweep builds, and none is expanded twice, so
// states, ticks and node-limit hits never exceed the sweep's. Once a state
// is proven dead, children that column density proves dead are skipped
// like dead-set hits (DESIGN.md §13.8): they are dead, so the first
// complete sequence met stays the same. On success fills ws.class_choice.
bool DpCall::depth_first() {
  auto& npl = res.stats.nodes_per_level;
  npl.assign(1, 1);
  res.stats.total_nodes = 1;
  if (M == 0) {
    ws.class_choice.clear();
    return true;
  }
  const std::size_t Cs = static_cast<std::size_t>(num_classes);
  const auto Ms = static_cast<std::size_t>(M);
  ws.frames.resize(Ms);
  ws.levels.resize(Ms);
  ws.cls_ok.resize(Ms * Cs);
  ws.cls_free.resize(Ms * Cs);
  ws.dead.begin(W);
  const std::uint64_t node_cap = opts.max_total_nodes;
  const bool found = W == 1 ? depth_first_loop<true>(node_cap)
                            : depth_first_loop<false>(node_cap);
  state_bytes = ws.dead.bytes();
  if (found) {
    ws.class_choice.resize(Ms);
    for (std::size_t i = 0; i < Ms; ++i) ws.class_choice[i] = ws.frames[i].cl;
  }
  return found;
}

template <bool kOneWord>
bool DpCall::depth_first_loop(std::uint64_t node_cap) {
  const std::size_t Cs = static_cast<std::size_t>(num_classes);
  auto& npl = res.stats.nodes_per_level;
  DfsFrame* const frames = ws.frames.data();
  DfsLevel* const levels = ws.levels.data();
  char* const lvl_ok = ws.cls_ok.data();
  Column* const lvl_free = ws.cls_free.data();
  DeadSet& dead = ws.dead;
  // Multi-word: level d's slice of words (laid out below), and its
  // clamped state unpacked at fields[3C + dTs].
  std::uint64_t* const fw = ws.words.data();
  std::int32_t* const ff = ws.fields.data() + 3 * Cs;
  std::uint64_t visited = 1;  // the root
  bool pruning = false;        // whether the thresholds are built

  // Entering a level for the first time builds its class tables; levels
  // are reached in order, so npl.size() is the number built.
  const auto enter_level = [&](std::size_t d) {
    if (d < npl.size()) return;
    const auto step = static_cast<ConnId>(d);
    fill_level(step, lvl_ok + d * Cs, lvl_free + d * Cs, nullptr);
    DfsLevel& lv = levels[d];
    lv.left = static_cast<std::uint32_t>(left(step));
    lv.next_left = static_cast<std::uint32_t>(left(step + 1));
    if constexpr (kOneWord) lv.open_hi = open_hi(lvl_ok + d * Cs);
    npl.push_back(0);
  };
  const auto stop = [&](bool ok) {
    res.stats.total_nodes = visited;
    return ok;
  };
  const auto fail_budget = [&] {
    res.fail(FailureKind::kBudgetExhausted,
             "budget exhausted: " + meter.reason());
    return stop(false);
  };
  const auto fail_node_limit = [&] {
    res.fail(FailureKind::kBudgetExhausted,
             "assignment graph exceeded node limit");
    return stop(false);
  };
  // The child of the top frame reached level M: the unique terminal.
  const auto reach_terminal = [&] {
    if (visited >= node_cap) return fail_node_limit();
    ++visited;
    npl.push_back(1);
    return stop(true);
  };
  // Every reachable state is dead; the deepest level reached is the
  // sweep's last non-empty one.
  const auto infeasible = [&] {
    fail_infeasible(static_cast<ConnId>(npl.size() - 1));
    return stop(false);
  };

  // Root: every track free, normalized to the first connection's left.
  npl.clear();
  enter_level(0);
  npl[0] = 1;
  const auto L0 = static_cast<std::int32_t>(left(0));
  std::size_t d = 0;  // level of the top frame
  const auto last = static_cast<std::size_t>(M) - 1;
  // The first proven-dead state builds the thresholds; the search, popped
  // back to level `top`, then re-tests its path: prune_frame(e) drops
  // frame e's untried dead children and returns their bound. A state on
  // the path that fails is dead and so is everything above it: those
  // states go to the dead set and the search resumes beneath them.
  // Returns the level to resume at, or -1 when the root fails (more than
  // T connections share a column): the whole path is dead.
  const auto start_pruning = [&](std::size_t top, auto&& prune_frame,
                                 auto&& state_of) {
    build_thresholds();
    if (ws.thr_n[0] < 0) {
      ++pruned_states;
      dead_states += top + 1;
      return std::ptrdiff_t{-1};
    }
    for (std::size_t e = 0; e < top; ++e) {
      const Column bound = prune_frame(e);
      if (lvl_free[e * Cs + static_cast<std::size_t>(frames[e].cl)] > bound) {
        ++pruned_states;
        for (std::size_t a = e + 1; a <= top; ++a) {
          dead.insert(static_cast<std::uint32_t>(a), state_of(a),
                      frames[a].h);
          ++dead_states;
        }
        return static_cast<std::ptrdiff_t>(e);
      }
    }
    prune_frame(top);
    return static_cast<std::ptrdiff_t>(top);
  };

  if constexpr (kOneWord) {
    // The top frame lives in registers; frames[] keeps the ones below it,
    // and every frame's class, which spells the answer.
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < Ts; ++j) {
      word |= static_cast<std::uint64_t>(L0) << (j * B);
    }
    std::uint64_t h = bits::hash_word(word);
    const DfsLevel* lv = levels;
    const Column* free = lvl_free;
    std::uint64_t cand = 0;
    std::uint64_t cw = 0;  // word clamped to the next left end
    int last_cl = -1;      // ticks are consumed through this class index
    const auto open_state = [&] {
      cand = candidate_bits(word, swar_lo, lv->left, lv->open_hi);
      if (pruning && cand != 0) [[unlikely]] {
        cand = drop_dead(cand, word, lv->left, free, child_bound(word, d + 1));
      }
      if (cand != 0) cw = clamp_word(word, lv->left, lv->next_left, Ts, B, fm);
    };
    open_state();
    for (;;) {
      if (cand != 0) {
        const auto bpos = static_cast<std::uint32_t>(std::countr_zero(cand));
        cand &= cand - 1;
        const std::uint32_t sh = bpos + 1 - B;
        if (((word >> sh) & fm) != lv->left) continue;  // borrow ripple
        const int cl = pos2cls[bpos];
        if (metered &&
            !meter.tick(static_cast<std::uint64_t>(cl - last_cl))) {
          return fail_budget();
        }
        last_cl = cl;
        if (d == last) {
          frames[d].cl = cl;
          return reach_terminal();
        }
        const std::uint64_t key = successor_word(
            cw, sh, cb(cl), ce(cl), B, fm,
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                free[static_cast<std::size_t>(cl)])));
        const std::uint64_t kh = bits::hash_word(key);
        if (dead.contains_word(static_cast<std::uint32_t>(d + 1), key, kh)) {
          ++dedup_hits;
          continue;
        }
        if (visited >= node_cap) return fail_node_limit();
        ++visited;
        DfsFrame& f = frames[d];
        f.word = word;
        f.cw = cw;
        f.cand = cand;
        f.h = h;
        f.last_cl = last_cl;
        f.cl = cl;
        enter_level(++d);
        ++npl[d];
        lv = levels + d;
        free = lvl_free + d * Cs;
        word = key;
        h = kh;
        last_cl = -1;
        open_state();
        continue;
      }
      // Every child is dead: so is this state.
      if (metered &&
          !meter.tick(static_cast<std::uint64_t>(num_classes - 1 - last_cl))) {
        return fail_budget();
      }
      dead.insert(static_cast<std::uint32_t>(d), &word, h);
      ++dead_states;
      if (d == 0) return infeasible();
      --d;
      if (!pruning) {
        pruning = true;
        const std::ptrdiff_t at = start_pruning(
            d,
            [&](std::size_t e) {
              DfsFrame& fe = frames[e];
              const Column bound = child_bound(fe.word, e + 1);
              fe.cand = drop_dead(fe.cand, fe.word, levels[e].left,
                                  lvl_free + e * Cs, bound);
              return bound;
            },
            [&](std::size_t e) { return &frames[e].word; });
        if (at < 0) return infeasible();
        d = static_cast<std::size_t>(at);
      }
      const DfsFrame& f = frames[d];
      word = f.word;
      cw = f.cw;
      cand = f.cand;
      h = f.h;
      last_cl = f.last_cl;
      lv = levels + d;
      free = lvl_free + d * Cs;
    }
  } else {
    // Multi-word states stay in their level's slice of fw: the state, its
    // clamped copy, one successor and its hash per class, then the open
    // classes in ascending order. Opening a state builds every successor
    // at once and prefetches their dead-set slots, so the lookups, which
    // miss cache once the dead set outgrows it, overlap instead of
    // running one after another.
    const std::size_t lvl_words = (2 + Cs) * W + 2 * Cs;
    const auto open_state = [&](std::uint64_t h) {
      DfsFrame& f = frames[d];
      f.h = h;
      f.last_cl = -1;
      f.next_open = 0;
      f.n_open = 0;
      std::uint64_t* const st = fw + d * lvl_words;
      std::uint64_t* const cw = st + W;
      std::uint64_t* const kids = cw + W;
      std::uint64_t* const kid_h = kids + Cs * W;
      std::uint64_t* const open = kid_h + Cs;
      std::int32_t* const cf = ff + d * Ts;
      const char* const ok = lvl_ok + d * Cs;
      const Column* const free = lvl_free + d * Cs;
      const auto L = static_cast<Column>(levels[d].left);
      for (int cl = 0; cl < num_classes; ++cl) {
        const auto rep = static_cast<Column>(
            (st[static_cast<std::size_t>(cls_pos[3 * cl])] >>
             cls_pos[3 * cl + 1]) &
            fm);
        if (static_cast<bool>(ok[static_cast<std::size_t>(cl)]) &
            (rep == L)) {
          open[f.n_open++] = static_cast<std::uint64_t>(cl);
        }
      }
      if (f.n_open == 0 || d == last) return;  // last: successors terminal
      ws.codec.unpack(st, cf);
      const auto Ln = static_cast<std::int32_t>(levels[d].next_left);
      for (std::size_t j = 0; j < Ts; ++j) cf[j] = std::max(cf[j], Ln);
      ws.codec.pack(cf, cw);
      if (pruning) {
        f.n_open = drop_dead(open, 0, f.n_open, free, child_bound(cf, d + 1));
      }
      for (std::int32_t i = 0; i < f.n_open; ++i) {
        const auto cl = static_cast<int>(open[i]);
        const auto c = static_cast<std::size_t>(cl);
        successor_words(ws.codec, cw, cf, cls_pos + 3 * cl, cb(cl), ce(cl),
                        free[c], kids + c * W, W, B);
        kid_h[c] = bits::hash_words(kids + c * W, W);
        dead.prefetch(static_cast<std::uint32_t>(d + 1), kid_h[c]);
      }
    };
    for (std::size_t j = 0; j < Ts; ++j) ff[j] = L0;
    ws.codec.pack(ff, fw);
    open_state(bits::hash_words(fw, W));
    for (;;) {
      DfsFrame& f = frames[d];
      std::uint64_t* const st = fw + d * lvl_words;
      const std::uint64_t* const kids = st + 2 * W;
      const std::uint64_t* const kid_h = kids + Cs * W;
      const std::uint64_t* const open = kid_h + Cs;
      bool descended = false;
      while (f.next_open < f.n_open) {
        const auto cl = static_cast<int>(open[f.next_open++]);
        if (metered &&
            !meter.tick(static_cast<std::uint64_t>(cl - f.last_cl))) {
          return fail_budget();
        }
        f.last_cl = cl;
        f.cl = cl;
        if (d == last) return reach_terminal();
        const auto c = static_cast<std::size_t>(cl);
        const std::uint64_t* const key = kids + c * W;
        if (dead.contains(static_cast<std::uint32_t>(d + 1), key, kid_h[c])) {
          ++dedup_hits;
          continue;
        }
        if (visited >= node_cap) return fail_node_limit();
        ++visited;
        std::copy_n(key, W, st + lvl_words);  // level d+1's state
        enter_level(++d);
        ++npl[d];
        open_state(kid_h[c]);
        descended = true;
        break;
      }
      if (descended) continue;
      // Every child is dead: so is this state.
      if (metered &&
          !meter.tick(
              static_cast<std::uint64_t>(num_classes - 1 - f.last_cl))) {
        return fail_budget();
      }
      dead.insert(static_cast<std::uint32_t>(d), st, f.h);
      ++dead_states;
      if (d == 0) return infeasible();
      --d;
      if (!pruning) {
        pruning = true;
        const std::ptrdiff_t at = start_pruning(
            d,
            [&](std::size_t e) {
              DfsFrame& fe = frames[e];
              const Column bound = child_bound(ff + e * Ts, e + 1);
              fe.n_open = drop_dead(fw + e * lvl_words + (2 + Cs) * W + Cs,
                                    fe.next_open, fe.n_open,
                                    lvl_free + e * Cs, bound);
              return bound;
            },
            [&](std::size_t e) { return fw + e * lvl_words; });
        if (at < 0) return infeasible();
        d = static_cast<std::size_t>(at);
      }
    }
  }
}

}  // namespace

// ---- DeadSet ---------------------------------------------------------------

void DeadSet::begin(std::size_t words) {
  const std::size_t stride = words + 1;
  const std::size_t cap =
      std::bit_ceil(std::max<std::size_t>(64, 4 * count_ + 4));
  if (stride != stride_) {
    // Old slots would read key words as tags: drop them.
    slots_.clear();
    stride_ = stride;
  }
  // An exhausted epoch could alias a stale tag: clear once and restart.
  if (++epoch_ >= (1ull << (64 - kEpochShift))) {
    std::fill(slots_.begin(), slots_.end(), 0);
    epoch_ = 1;
  }
  cap_ = cap;
  count_ = 0;
  if (slots_.size() < cap_ * stride_) slots_.resize(cap_ * stride_, 0);
}

void DeadSet::grow() {
  const std::size_t W = stride_ - 1;
  const std::size_t old_cap = cap_;
  cap_ *= 2;
  std::vector<std::uint64_t> table(cap_ * stride_, 0);
  for (std::size_t i = 0; i < old_cap; ++i) {
    const std::uint64_t* const slot = slots_.data() + i * stride_;
    if ((slot[W] >> kEpochShift) != epoch_) continue;
    const auto level = static_cast<std::uint32_t>(
        (slot[W] & ((1ull << kEpochShift) - 1)) - 1);
    place(table.data(), level, slot, bits::hash_words(slot, W));
  }
  slots_ = std::move(table);
}

// ---- dp_route ---------------------------------------------------------------

RouteResult dp_route(const SegmentedChannel& ch, const ConnectionSet& cs,
                     const DpOptions& opts) {
  RouteResult res;
  res.routing = Routing(cs.size());
  SEGROUTE_SPAN(dp_span, "alg.dp_route");
  // The problem picks the search: Problem 3 needs every path's weight,
  // Problems 1 and 2 only a path.
  const bool optimizing = opts.weight.has_value();
  if (cs.max_right() > ch.width()) {
    res.fail(FailureKind::kInvalidInput, "connections exceed channel width");
    SEGROUTE_SPAN_TAG(dp_span, "outcome", to_string(res.failure));
    return res;
  }
  harness::BudgetMeter meter(opts.budget);

  const TrackId T = ch.num_tracks();
  const std::size_t Ts = static_cast<std::size_t>(T);

  // All per-call vectors come from the thread's workspace, so repeated
  // calls are allocation-free in steady state. Every field is
  // reinitialized per call, so reuse cannot leak state between calls. A
  // re-entrant call on the same thread (a WeightFn that routes, say)
  // gets a call-local workspace instead.
  ThreadScratch<DpWorkspace> scratch;
  DpWorkspace& ws = scratch.get();

  // Build track classes: segmentation types if canonicalizing, singletons
  // otherwise. Tracks are regrouped so each class occupies a contiguous
  // range of frontier positions. Flat layout: class cl's members are
  // class_members[class_begin[cl] .. class_begin[cl+1]), in ascending
  // track order (counting sort; type ids are first-appearance ordered).
  auto& class_begin = ws.class_begin;
  auto& class_members = ws.class_members;
  int num_classes;
  if (opts.canonicalize_types) {
    const std::vector<int>& type_of = ch.type_of();
    num_classes = ch.num_types();
    class_begin.assign(static_cast<std::size_t>(num_classes) + 1, 0);
    for (TrackId t = 0; t < T; ++t) {
      ++class_begin[static_cast<std::size_t>(
                        type_of[static_cast<std::size_t>(t)]) +
                    1];
    }
    for (int c = 0; c < num_classes; ++c) {
      class_begin[static_cast<std::size_t>(c) + 1] +=
          class_begin[static_cast<std::size_t>(c)];
    }
    ws.class_cursor.assign(class_begin.begin(), class_begin.end() - 1);
    class_members.resize(Ts);
    for (TrackId t = 0; t < T; ++t) {
      const int cl = type_of[static_cast<std::size_t>(t)];
      class_members[static_cast<std::size_t>(
          ws.class_cursor[static_cast<std::size_t>(cl)]++)] = t;
    }
  } else {
    num_classes = static_cast<int>(T);
    class_begin.resize(Ts + 1);
    class_members.resize(Ts);
    for (TrackId t = 0; t < T; ++t) {
      class_begin[static_cast<std::size_t>(t)] = static_cast<int>(t);
      class_members[static_cast<std::size_t>(t)] = t;
    }
    class_begin[Ts] = static_cast<int>(T);
  }

  cs.sorted_by_left(ws.order);
  const std::vector<ConnId>& order = ws.order;
  const ConnId M = cs.size();
  res.stats.nodes_per_level.reserve(static_cast<std::size_t>(M) + 1);

  // Resolve "first free column after routing through c" from a per-class
  // table built in one pass over each representative track's segments —
  // O(C * width) once per call instead of a segment_at binary search per
  // (level, class) and per replay step. Identical values, since all
  // tracks of a class share one segmentation.
  const std::size_t nf_stride = static_cast<std::size_t>(ch.width()) + 1;
  ws.cls_next_free.resize(static_cast<std::size_t>(num_classes) * nf_stride);
  for (int cl = 0; cl < num_classes; ++cl) {
    Column* row =
        ws.cls_next_free.data() + static_cast<std::size_t>(cl) * nf_stride;
    const TrackId rep = class_members[static_cast<std::size_t>(
        class_begin[static_cast<std::size_t>(cl)])];
    for (const Segment& s : ch.track(rep).segments()) {
      for (Column c = s.left; c <= s.right; ++c) row[c] = s.right + 1;
    }
  }

  // Every frontier entry is a column in [0, width+1], so the codec packs
  // bit_width(width+1) bits per track: B bits per entry, fields_per_word
  // entries per 64-bit word, W words per state.
  auto& codec = ws.codec;
  codec.init_uniform(Ts, static_cast<std::uint32_t>(ch.width() + 1));
  const std::size_t W = codec.words();
  const std::uint32_t B = codec.uniform_bits();
  const std::uint32_t fpw = codec.fields_per_word();
  const std::size_t Cs = static_cast<std::size_t>(num_classes);

  // Pooled scratch. Fields: the per-class packed-position table, then the
  // sweep's node-in-hand frontier and its clamped copy, or the
  // depth-first search's clamped frontier per level (multi-word only).
  // Words: the sweep's clamped words and probe-batch staging, or the
  // depth-first search's per-level slices (multi-word only; the one-word
  // search keeps its state in its frames).
  const std::size_t Ms = static_cast<std::size_t>(M);
  if (optimizing) {
    ws.fields.resize(3 * Cs + 2 * Ts);
    ws.words.resize(W + bits::ProbeBatch::kCapacity * W);
  } else {
    ws.fields.resize(3 * Cs + (W > 1 ? Ms * Ts : 0));
    ws.words.resize(W > 1 ? Ms * ((2 + Cs) * W + 2 * Cs) : 0);
  }
  std::int32_t* const cls_pos = ws.fields.data();
  for (int cl = 0; cl < num_classes; ++cl) {
    const std::uint32_t cb =
        static_cast<std::uint32_t>(class_begin[static_cast<std::size_t>(cl)]);
    const std::uint32_t ce = static_cast<std::uint32_t>(
        class_begin[static_cast<std::size_t>(cl) + 1]);
    cls_pos[3 * cl + 0] = static_cast<std::int32_t>(cb / fpw);
    cls_pos[3 * cl + 1] = static_cast<std::int32_t>((cb % fpw) * B);
    cls_pos[3 * cl + 2] = (cb % fpw) + (ce - cb) <= fpw;
  }

  DpCall call{ch,
              cs,
              opts,
              ws,
              res,
              meter,
              !opts.budget.unlimited(),
              M,
              Ts,
              num_classes,
              W,
              B,
              (1ull << B) - 1,  // B <= 32 always holds here
              ws.cls_next_free.data(),
              nf_stride,
              cls_pos};
  if (W == 1) {
    for (std::size_t j = 0; j < Ts; ++j) call.swar_lo |= 1ull << (j * B);
    call.swar_hi = call.swar_lo << (B - 1);
    for (int cl = 0; cl < num_classes; ++cl) {
      call.pos2cls[static_cast<std::uint32_t>(cls_pos[3 * cl + 1]) + B - 1] =
          static_cast<std::uint8_t>(cl);
    }
  }

  const bool found = optimizing ? call.sweep() : call.depth_first();

  // Every exit — success, infeasible, budget, node limit — reports the
  // same stats shape: total_nodes, max_level_nodes, and nodes_per_level
  // including any partially built level. This is also the single flush
  // point for the call's observability: the hot loops count in plain
  // locals, never an atomic.
  res.stats.max_level_nodes =
      res.stats.nodes_per_level.empty()
          ? 0
          : *std::max_element(res.stats.nodes_per_level.begin(),
                              res.stats.nodes_per_level.end());
  SEGROUTE_COUNT("dp.routes", 1);
  SEGROUTE_COUNT("dp.nodes_created", res.stats.total_nodes);
  // A search that never backtracks has none of these: skip the atomics.
  if (call.dedup_hits != 0) SEGROUTE_COUNT("dp.dedup_hits", call.dedup_hits);
  if (call.dead_states != 0) SEGROUTE_COUNT("dp.dead_states", call.dead_states);
  if (call.pruned_states != 0) {
    SEGROUTE_COUNT("dp.pruned_states", call.pruned_states);
  }
  SEGROUTE_GAUGE_MAX("dp.frontier_high_water", res.stats.max_level_nodes);
  // Packed-word bytes held by the search's state store: the sweep's
  // frontier arena, the depth-first search's dead set.
  SEGROUTE_GAUGE_MAX("dp.arena_high_water_bytes", call.state_bytes);
  SEGROUTE_HIST_RANGE("dp.level_nodes", res.stats.nodes_per_level.data(),
                      res.stats.nodes_per_level.size(),
                      {1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384});
  SEGROUTE_SPAN_TAG(dp_span, "outcome",
                    res.failure == FailureKind::kNone
                        ? "success"
                        : to_string(res.failure));
  if (!found) return res;

  // Replay the class choices forward against real tracks.
  const auto& class_choice = ws.class_choice;
  auto& next_free = ws.next_free;
  next_free.assign(Ts, 1);
  for (ConnId step = 0; step < M; ++step) {
    const ConnId ci = order[static_cast<std::size_t>(step)];
    const Connection& conn = cs[ci];
    const int cl = class_choice[static_cast<std::size_t>(step)];
    TrackId chosen = kNoTrack;
    for (int m = class_begin[static_cast<std::size_t>(cl)];
         m < class_begin[static_cast<std::size_t>(cl) + 1]; ++m) {
      const TrackId t = class_members[static_cast<std::size_t>(m)];
      if (next_free[static_cast<std::size_t>(t)] <= conn.left) {
        chosen = t;
        break;
      }
    }
    // Guaranteed by the DP invariant; guard anyway.
    if (chosen == kNoTrack) {
      res.fail(FailureKind::kInternal, "internal: replay failed");
      SEGROUTE_SPAN_TAG(dp_span, "outcome", to_string(res.failure));
      return res;
    }
    next_free[static_cast<std::size_t>(chosen)] =
        ws.cls_next_free[static_cast<std::size_t>(cl) * nf_stride +
                         static_cast<std::size_t>(conn.right)];
    res.routing.assign(ci, chosen);
  }
  res.success = true;
  return res;
}

RouteResult dp_route_unlimited(const SegmentedChannel& ch,
                               const ConnectionSet& cs) {
  return dp_route(ch, cs, DpOptions{});
}

RouteResult dp_route_ksegment(const SegmentedChannel& ch,
                              const ConnectionSet& cs, int k) {
  DpOptions o;
  o.max_segments = k;
  return dp_route(ch, cs, o);
}

RouteResult dp_route_optimal(const SegmentedChannel& ch,
                             const ConnectionSet& cs, const WeightFn& w,
                             int max_segments) {
  DpOptions o;
  o.max_segments = max_segments;
  o.weight = w;
  return dp_route(ch, cs, o);
}

}  // namespace segroute::alg
