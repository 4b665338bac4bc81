#include "alg/dp.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "alg/frontier_bits.h"
#include "core/routing.h"
#include "obs/instrument.h"

namespace segroute::alg {

RouteResult dp_route(const SegmentedChannel& ch, const ConnectionSet& cs,
                     const DpOptions& opts) {
  RouteResult res;
  res.routing = Routing(cs.size());
  SEGROUTE_SPAN(dp_span, "alg.dp_route");
  if (cs.max_right() > ch.width()) {
    res.fail(FailureKind::kInvalidInput, "connections exceed channel width");
    SEGROUTE_SPAN_TAG(dp_span, "outcome", to_string(res.failure));
    return res;
  }
  harness::BudgetMeter meter(opts.budget);
  // With no bound of any kind, tick() can never fail and its counter is
  // unobservable — skip the per-expansion metering entirely.
  const bool metered = !opts.budget.unlimited();

  const TrackId T = ch.num_tracks();
  const std::size_t Ts = static_cast<std::size_t>(T);

  // All per-call vectors come from a workspace: the caller's, or —
  // when none is supplied — a per-thread fallback, so even the
  // no-workspace path is allocation-free in steady state. Every field is
  // reinitialized per call, so reuse cannot leak state between calls. A
  // re-entrant call on the same thread (a WeightFn that routes, say)
  // finds the fallback busy and degrades to a call-local workspace.
  static thread_local DpWorkspace tl_ws;
  static thread_local bool tl_busy = false;
  DpWorkspace local_ws;
  const bool use_tl = opts.workspace == nullptr && !tl_busy;
  DpWorkspace& ws =
      opts.workspace ? *opts.workspace : (use_tl ? tl_ws : local_ws);
  struct TlGuard {
    bool active;
    bool* flag;
    ~TlGuard() {
      if (active) *flag = false;
    }
  } tl_guard{use_tl, &tl_busy};
  if (use_tl) tl_busy = true;

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
  // Representative track per class: the first member (lowest id; identical
  // segmentation within a class makes it stand for all of them).
  const auto class_rep = [&](int cl) {
    return class_members[static_cast<std::size_t>(
        class_begin[static_cast<std::size_t>(cl)])];
  };

  cs.sorted_by_left(ws.order);
  const std::vector<ConnId>& order = ws.order;
  const ConnId M = cs.size();
  const bool optimizing = opts.weight.has_value();
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
    for (const Segment& s : ch.track(class_rep(cl)).segments()) {
      for (Column c = s.left; c <= s.right; ++c) row[c] = s.right + 1;
    }
  }
  const Column* const nf_tab = ws.cls_next_free.data();

  // Node storage is structure-of-arrays: frontiers live bit-packed in one
  // flat word arena (node i's frontier is arena[i*W .. (i+1)*W) for
  // W = codec.words()), the per-node scalars in parallel vectors. No
  // per-node heap allocation; frontier equality is a compare of W words.
  // Every frontier entry is a column in [0, width+1], so the codec packs
  // bit_width(width+1) bits per track.
  auto& codec = ws.codec;
  codec.init_uniform(Ts, static_cast<std::uint32_t>(ch.width() + 1));
  const std::size_t W = codec.words();
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

  // Field widths of the uniform packing: B bits per frontier entry,
  // fields_per_word entries per 64-bit word, fm the per-field mask.
  const std::uint32_t B = codec.uniform_bits();
  const std::uint32_t fpw = codec.fields_per_word();
  const std::uint64_t fm = (1ull << B) - 1;  // B <= 32 always holds here
  const std::size_t Cs = static_cast<std::size_t>(num_classes);

  // Pooled scratch: one i32 buffer carved into the node-in-hand views
  // and the per-class packed-position table, one u64 buffer carved into
  // the clamped words and the probe-batch staging area. Two allocations
  // instead of seven on the call-local path.
  ws.fields.resize(2 * Ts + 3 * Cs);
  std::int32_t* const cur = ws.fields.data();
  std::int32_t* const clamped = cur + Ts;
  // Per class: word index of its first field, bit shift of that field,
  // and whether the whole class range lives in a single word (enabling
  // the branch-free splice below).
  std::int32_t* const cls_pos = clamped + Ts;
  for (int cl = 0; cl < num_classes; ++cl) {
    const std::uint32_t cb =
        static_cast<std::uint32_t>(class_begin[static_cast<std::size_t>(cl)]);
    const std::uint32_t ce = static_cast<std::uint32_t>(
        class_begin[static_cast<std::size_t>(cl) + 1]);
    cls_pos[3 * cl + 0] = static_cast<std::int32_t>(cb / fpw);
    cls_pos[3 * cl + 1] = static_cast<std::int32_t>((cb % fpw) * B);
    cls_pos[3 * cl + 2] = (cb % fpw) + (ce - cb) <= fpw;
  }

  ws.words.resize(W + bits::ProbeBatch::kCapacity * W);
  std::uint64_t* const clamped_words = ws.words.data();
  auto& batch = ws.batch;
  batch.reset(W, clamped_words + W);

  // SWAR scan constants for the one-word fast path: `swar_lo` has bit 0
  // of every field, and pos2cls maps a class representative's top field
  // bit back to its class index. One subtract-and-mask per node then
  // flags every open class whose representative equals L (see the node
  // loop; rare borrow-ripple false positives are re-checked exactly).
  std::uint64_t swar_lo = 0;
  std::uint8_t pos2cls[64] = {};
  if (W == 1) {
    for (std::size_t j = 0; j < Ts; ++j) swar_lo |= 1ull << (j * B);
    for (int cl = 0; cl < num_classes; ++cl) {
      pos2cls[static_cast<std::uint32_t>(cls_pos[3 * cl + 1]) + B - 1] =
          static_cast<std::uint8_t>(cl);
    }
  }

  // Root: every track free; normalized w.r.t. the first connection's left.
  const Column L0 = M > 0 ? cs[order[0]].left : ch.width() + 1;
  for (std::size_t j = 0; j < Ts; ++j) cur[j] = L0;
  arena.resize(W);
  codec.pack(cur, arena.data());
  parent.push_back(-1);
  edge_class.push_back(-1);
  if (optimizing) node_w.push_back(0.0);

  // Levels are contiguous id ranges: ids are handed out in insertion
  // order, so the current level is [lv_begin, lv_end) and the level
  // under construction is [nl_begin, parent.size()) — no level vectors,
  // no per-insert bookkeeping beyond the appends themselves.
  std::int64_t lv_begin = 0;
  std::int64_t lv_end = 1;
  std::int64_t nl_begin = 1;
  res.stats.nodes_per_level.push_back(1);

  // Dedup hits accumulate in a plain local and are flushed to the metrics
  // registry once per call — never an atomic op inside the hot loop.
  std::uint64_t dedup_hits = 0;

  // Every exit — success, infeasible, budget, node limit — reports the
  // same stats shape: total_nodes, max_level_nodes, and nodes_per_level
  // including any partially built level. Also the single flush point for
  // this call's observability.
  auto finalize_stats = [&] {
    res.stats.total_nodes = parent.size();
    res.stats.max_level_nodes =
        res.stats.nodes_per_level.empty()
            ? 0
            : *std::max_element(res.stats.nodes_per_level.begin(),
                                res.stats.nodes_per_level.end());
    SEGROUTE_COUNT("dp.routes", 1);
    SEGROUTE_COUNT("dp.nodes_created", res.stats.total_nodes);
    SEGROUTE_COUNT("dp.dedup_hits", dedup_hits);
    SEGROUTE_GAUGE_MAX("dp.frontier_high_water", res.stats.max_level_nodes);
    // Packed-word bytes actually held — matches workspace_bytes() and
    // the engine's Scratch::bytes_held() accounting.
    SEGROUTE_GAUGE_MAX("dp.arena_high_water_bytes",
                       arena.capacity() * sizeof(arena[0]));
    SEGROUTE_HIST_RANGE("dp.level_nodes", res.stats.nodes_per_level.data(),
                        res.stats.nodes_per_level.size(),
                        {1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384});
    SEGROUTE_SPAN_TAG(dp_span, "outcome",
                      res.failure == FailureKind::kNone
                          ? "success"
                          : to_string(res.failure));
  };

  // Per-level tables, indexed by class: everything that depends only on
  // (class, connection) is computed once per class per level instead of
  // once per node x class. cls_ok additionally folds into a bitmask so
  // the per-node class scan is a word AND.
  auto& cls_ok = ws.cls_ok;
  auto& cls_free = ws.cls_free;
  auto& cls_w = ws.cls_w;
  cls_ok.assign(Cs, 0);
  cls_free.assign(Cs, 0);
  cls_w.assign(Cs, 0.0);

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
  const auto rehash = [&](std::size_t cap) {
    tbl_cap = cap;
    mask = cap - 1;
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
  // node_w is maintained only under Problem 3 — without weights nothing
  // ever reads it.
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
        if (optimizing) node_w.push_back(wgt);
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
        if (optimizing && wgt < node_w[s]) {
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
        if (optimizing) node_w.push_back(wgt);
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
        if (optimizing && wgt < node_w[s]) {
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
  // slot first just overlaps their cache misses. Inline for the same
  // reason as probe_one: with a batch of 1 this runs once per expansion.
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
    const Connection& conn = cs[order[static_cast<std::size_t>(step)]];
    const Column L = conn.left;  // frontier entries are normalized to >= L
    const Column Lnext = (step + 1 < M)
                             ? cs[order[static_cast<std::size_t>(step) + 1]].left
                             : ch.width() + 1;

    // Per-level class tables: K-segment feasibility, Problem-3 edge
    // weight, and the post-route next-free column (already normalized to
    // the next connection's left).
    for (int cl = 0; cl < num_classes; ++cl) {
      const TrackId rep = class_rep(cl);
      if (opts.max_segments > 0) {
        const int spanned =
            ch.track(rep).segments_spanned(conn.left, conn.right);
        if (spanned > opts.max_segments) {
          cls_ok[static_cast<std::size_t>(cl)] = 0;
          continue;
        }
      }
      if (optimizing) {
        const double w = (*opts.weight)(ch, conn, rep);
        if (std::isinf(w)) {
          cls_ok[static_cast<std::size_t>(cl)] = 0;
          continue;
        }
        cls_w[static_cast<std::size_t>(cl)] = w;
      }
      cls_ok[static_cast<std::size_t>(cl)] = 1;
      const Column free = nf_tab[static_cast<std::size_t>(cl) * nf_stride +
                                 static_cast<std::size_t>(conn.right)];
      cls_free[static_cast<std::size_t>(cl)] = std::max(free, Lnext);
    }
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
    // Probe batching pays for itself only once the slot array outgrows
    // L1; small levels resolve each candidate immediately (batch of 1 —
    // same code path, same semantics).
    const std::size_t flush_at =
        cap * stride * sizeof(std::uint64_t) >= (32u << 10)
            ? bits::ProbeBatch::kCapacity
            : 1;

    // Budget accounting matches the scalar layout exactly — one tick per
    // (node, class) pair, skipped classes included — but the ticks for
    // runs of closed classes are consumed in bulk, so a budget failure
    // cuts the level at the same expansion it always did. On any failure
    // the staged batch is flushed first: everything that was expanded
    // has its node appended, exactly as with immediate insertion.
    const auto fail_budget = [&]() {
      if (flush_batch()) {
        res.fail(FailureKind::kBudgetExhausted,
                 "budget exhausted: " + meter.reason());
      }
      res.stats.nodes_per_level.push_back(parent.size() -
                                    static_cast<std::size_t>(nl_begin));
      finalize_stats();
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
      // Top field bit of every *open* class representative; AND-ing the
      // per-node SWAR zero-detect with this folds the cls_ok test in.
      std::uint64_t ok_hi = 0;
      for (int cl = 0; cl < num_classes; ++cl) {
        if (cls_ok[static_cast<std::size_t>(cl)]) {
          ok_hi |= 1ull
                   << (static_cast<std::uint32_t>(cls_pos[3 * cl + 1]) + B - 1);
        }
      }
      const std::uint64_t bcast_l = swar_lo * Lu;
      for (std::int64_t ni = lv_begin; ni < lv_end; ++ni) {
        const std::uint64_t nodeword = arena[static_cast<std::size_t>(ni)];
        std::uint64_t cw = 0;  // clamped node word, built lazily
        bool clamped_ready = false;
        double base_w = 0.0;
        int last_cl = -1;  // ticks are consumed through this class index
        // Zero-field detect over nodeword ^ broadcast(L): the top bit of
        // a field survives the mask iff that field equals L — except for
        // rare false positives where a borrow ripples out of a lower
        // field (field == L+1 right above a field == L); the exact
        // re-check below rejects those. No false negatives, and bits
        // come out in ascending class order, so the expansion order (and
        // with it every node id) is identical to the full scan.
        const std::uint64_t xw = nodeword ^ bcast_l;
        std::uint64_t cand = (xw - swar_lo) & ~xw & ok_hi;
        while (cand != 0) {
          const auto bpos =
              static_cast<std::uint32_t>(std::countr_zero(cand));
          cand &= cand - 1;
          const std::uint32_t sh = bpos + 1 - B;
          if (((nodeword >> sh) & fm) != Lu) continue;  // borrow ripple
          const int cl = pos2cls[bpos];
          if (metered &&
              !meter.tick(static_cast<std::uint64_t>(cl - last_cl))) {
            fail_budget();
            return res;
          }
          last_cl = cl;
          if (!clamped_ready) {
            if (Lnext == L) {
              // Entries are already normalized to >= L, so an equal
              // next left leaves the word unchanged.
              cw = nodeword;
            } else {
              std::uint64_t x = nodeword;
              for (std::size_t j = 0; j < Ts; ++j, x >>= B) {
                const std::uint64_t f = x & fm;
                cw |= (f > Ln ? f : Ln) << (j * B);
              }
            }
            if (optimizing) base_w = node_w[static_cast<std::size_t>(ni)];
            clamped_ready = true;
          }
          // Splice the post-route next-free column v into the (sorted)
          // class run: cnt = in-class entries below v = v's insertion
          // offset. All shifts on one register word.
          const Column v = cls_free[static_cast<std::size_t>(cl)];
          const auto vv =
              static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
          const int cb = class_begin[static_cast<std::size_t>(cl)];
          const int ce = class_begin[static_cast<std::size_t>(cl) + 1];
          std::uint32_t cnt = 0;
          {
            std::uint64_t x = cw >> (sh + B);
            for (int k = cb + 1; k < ce; ++k, x >>= B) cnt += (x & fm) < vv;
          }
          const std::uint32_t sj = sh + cnt * B;
          const std::uint64_t below = cw & ((1ull << sh) - 1);
          const std::uint64_t mid =
              (cw >> B) & (((1ull << (cnt * B)) - 1) << sh);
          const std::uint32_t ab = sj + B;
          const std::uint64_t above = ab >= 64 ? 0 : (cw >> ab) << ab;
          const std::uint64_t key = below | mid | (vv << sj) | above;
          const std::uint64_t h = bits::hash_word(key);
          const double wgt = base_w + cls_w[static_cast<std::size_t>(cl)];
          bool inserted_ok;
          if (flush_at == 1) {
            inserted_ok =
                probe_w1(key, h, ni, static_cast<std::int32_t>(cl), wgt);
          } else {
            batch.slot_words()[0] = key;
            batch.push(h, ni, static_cast<std::int32_t>(cl), wgt);
            inserted_ok = !batch.full() || flush_batch();
          }
          if (!inserted_ok) {
            res.stats.nodes_per_level.push_back(parent.size() -
                                    static_cast<std::size_t>(nl_begin));
            finalize_stats();
            return res;
          }
        }
        if (metered &&
            !meter.tick(
                static_cast<std::uint64_t>(num_classes - 1 - last_cl))) {
          fail_budget();
          return res;
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
      // class's first field). One u64 load + shift + mask per class —
      // the full frontier is never unpacked just to test it. The arena
      // pointer is re-read each iteration because successor inserts may
      // reallocate it mid-node.
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
          fail_budget();
          return res;
        }
        last_cl = cl;
        if (!clamped_ready) {
          codec.unpack(arena.data() + nbase, cur);
          for (std::size_t j = 0; j < Ts; ++j) {
            clamped[j] = std::max(cur[j], Lnext);
          }
          codec.pack(clamped, clamped_words);
          if (optimizing) base_w = node_w[static_cast<std::size_t>(ni)];
          clamped_ready = true;
        }

        // Successor frontier, built directly in packed form: the
        // class's first entry (== L) is replaced by the post-route
        // next-free column v and repositioned within the (still
        // sorted) class range. Clamping by a constant preserves
        // in-class order, so the insertion offset is just the count
        // of later in-class entries below v. When the class range
        // lives in one word the whole splice — delete field cb, slide
        // the run down B bits, insert v — is a handful of shifts on
        // that word; a class straddling words falls back to per-field
        // rewrites.
        const Column v = cls_free[static_cast<std::size_t>(cl)];
        const int cb = class_begin[static_cast<std::size_t>(cl)];
        const int ce = class_begin[static_cast<std::size_t>(cl) + 1];
        std::uint32_t cnt = 0;
        for (int k = cb + 1; k < ce; ++k) cnt += clamped[k] < v;
        std::uint64_t* dst = batch.slot_words();
        for (std::size_t wj = 0; wj < W; ++wj) dst[wj] = clamped_words[wj];
        if (cls_pos[3 * cl + 2]) {
          const auto wd0 = static_cast<std::size_t>(cls_pos[3 * cl + 0]);
          const auto sh = static_cast<std::uint32_t>(cls_pos[3 * cl + 1]);
          const std::uint64_t word = clamped_words[wd0];
          const std::uint32_t sj = sh + cnt * B;
          const std::uint64_t below = word & ((1ull << sh) - 1);
          const std::uint64_t mid =
              (word >> B) & (((1ull << (cnt * B)) - 1) << sh);
          const std::uint32_t ab = sj + B;
          const std::uint64_t above = ab >= 64 ? 0 : (word >> ab) << ab;
          dst[wd0] =
              below | mid |
              (static_cast<std::uint64_t>(static_cast<std::uint32_t>(v))
               << sj) |
              above;
        } else {
          for (std::uint32_t k = 0; k < cnt; ++k) {
            codec.set_field(dst, static_cast<std::size_t>(cb) + k,
                            clamped[cb + 1 + static_cast<int>(k)]);
          }
          codec.set_field(dst, static_cast<std::size_t>(cb) + cnt, v);
        }

        const std::uint64_t h = bits::hash_words(dst, W);
        const double wgt = base_w + cls_w[static_cast<std::size_t>(cl)];
        bool inserted_ok;
        if (flush_at == 1) {
          // Small level: resolve immediately — dst is the (empty)
          // batch's first staging slot, and every probe argument is
          // still in a register.
          inserted_ok =
              probe_state(dst, h, ni, static_cast<std::int32_t>(cl), wgt);
        } else {
          batch.push(h, ni, static_cast<std::int32_t>(cl), wgt);
          inserted_ok = !batch.full() || flush_batch();
        }
        if (!inserted_ok) {
          res.stats.nodes_per_level.push_back(parent.size() -
                                    static_cast<std::size_t>(nl_begin));
          finalize_stats();
          return res;
        }
      }
      if (metered &&
          !meter.tick(
              static_cast<std::uint64_t>(num_classes - 1 - last_cl))) {
        fail_budget();
        return res;
      }
    }
    }
    if (!flush_batch()) {
      res.stats.nodes_per_level.push_back(parent.size() -
                                    static_cast<std::size_t>(nl_begin));
      finalize_stats();
      return res;
    }
    if (parent.size() == static_cast<std::size_t>(nl_begin)) {
      res.fail(FailureKind::kInfeasible,
               "no valid assignment of connection " +
                   std::to_string(order[static_cast<std::size_t>(step)]) +
                   " extends any frontier (level " + std::to_string(step + 1) +
                   " empty)");
      res.stats.nodes_per_level.push_back(0);
      finalize_stats();
      return res;
    }
    res.stats.nodes_per_level.push_back(parent.size() -
                                    static_cast<std::size_t>(nl_begin));
    lv_begin = nl_begin;
    lv_end = static_cast<std::int64_t>(parent.size());
  }

  finalize_stats();

  // Pick the terminal node: all frontiers at level M are normalized to
  // width+1 everywhere, so there is exactly one node; under Problem 3 the
  // dedup table already kept the minimum-weight path into it.
  std::int64_t best = lv_begin;
  if (optimizing) {
    for (std::int64_t ni = lv_begin; ni < lv_end; ++ni) {
      if (node_w[static_cast<std::size_t>(ni)] <
          node_w[static_cast<std::size_t>(best)]) {
        best = ni;
      }
    }
  }

  // Trace back the class choices, then replay forward against real tracks.
  auto& class_choice = ws.class_choice;
  class_choice.assign(static_cast<std::size_t>(M), -1);
  {
    std::int64_t cur = best;
    for (ConnId step = M; step-- > 0;) {
      class_choice[static_cast<std::size_t>(step)] =
          edge_class[static_cast<std::size_t>(cur)];
      cur = parent[static_cast<std::size_t>(cur)];
    }
  }
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
        nf_tab[static_cast<std::size_t>(cl) * nf_stride +
               static_cast<std::size_t>(conn.right)];
    res.routing.assign(ci, chosen);
  }

  res.weight = optimizing ? node_w[static_cast<std::size_t>(best)] : 0.0;
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
