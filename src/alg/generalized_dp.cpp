#include "alg/generalized_dp.h"

#include <algorithm>
#include <bit>
#include <set>
#include <type_traits>

#include "alg/frontier_bits.h"
#include "obs/instrument.h"

namespace segroute::alg {

namespace {

/// Per-track frontier entry, normalized with respect to the column of the
/// next unit piece (call it l):
///  - next_free: first column whose segment is unoccupied (>= l);
///  - occupant:  parent connection occupying the segment at column l, or
///    kNoConn — kept only while that parent can still extend (right >= l);
///  - prev: parent of the piece at column l-1 on this track (kNoConn if
///    none) — only tracked when a restricted variant needs it;
///  - cur: parent of the piece at column l on this track placed earlier in
///    the current column group (rolls into `prev` at the column boundary).
struct Entry {
  Column next_free = 0;
  ConnId occupant = kNoConn;
  ConnId prev = kNoConn;
  ConnId cur = kNoConn;

  friend bool operator==(const Entry&, const Entry&) = default;
};

// Entry is four int32s with no padding; states are stored bit-packed
// (alg/frontier_bits.h): next_free takes bit_width(width+1) bits and each
// ConnId field bit_width(M) bits (stored +1 so kNoConn packs as 0). When
// no restricted variant is active, prev/cur are kNoConn in every state,
// so they are omitted from the packing — still injective, so word-compare
// dedup stays exact.
static_assert(std::has_unique_object_representations_v<Entry>);
static_assert(sizeof(Entry) == 4 * sizeof(std::int32_t));

/// A unit-column piece of a parent connection (Proposition 11's C').
struct Unit {
  Column col;
  ConnId parent;
};

}  // namespace

GeneralizedRouteResult generalized_dp_route(const SegmentedChannel& ch,
                                            const ConnectionSet& cs,
                                            const GeneralizedDpOptions& opts) {
  GeneralizedRouteResult res;
  res.routing = GeneralizedRouting(cs.size());
  SEGROUTE_SPAN(gdp_span, "alg.generalized_dp_route");
  if (cs.max_right() > ch.width()) {
    res.fail(FailureKind::kInvalidInput, "connections exceed channel width");
    SEGROUTE_SPAN_TAG(gdp_span, "outcome", to_string(res.failure));
    return res;
  }
  harness::BudgetMeter meter(opts.budget);
  const TrackId T = ch.num_tracks();
  const std::size_t Ts = static_cast<std::size_t>(T);
  const bool track_prev =
      opts.allowed_switch_columns.has_value() || opts.switch_requires_overlap;
  std::set<Column> switch_cols;
  if (opts.allowed_switch_columns) {
    switch_cols.insert(opts.allowed_switch_columns->begin(),
                       opts.allowed_switch_columns->end());
  }

  // Expand to unit pieces, sorted by column (Proposition 11).
  std::vector<Unit> units;
  for (ConnId i = 0; i < cs.size(); ++i) {
    for (Column l = cs[i].left; l <= cs[i].right; ++l) {
      units.push_back(Unit{l, i});
    }
  }
  std::stable_sort(units.begin(), units.end(),
                   [](const Unit& a, const Unit& b) { return a.col < b.col; });
  const std::size_t U = units.size();

  // Node storage: states bit-packed in a flat word arena (node i's state
  // is arena[i*W .. (i+1)*W)), scalars in parallel vectors — no per-node
  // heap allocation, equality by word compare.
  const std::uint8_t col_bits = static_cast<std::uint8_t>(
      std::bit_width(static_cast<std::uint32_t>(ch.width() + 1) | 1u));
  const std::uint8_t conn_bits = static_cast<std::uint8_t>(
      std::bit_width(static_cast<std::uint32_t>(cs.size()) | 1u));
  const std::uint8_t pattern[4] = {col_bits, conn_bits, conn_bits, conn_bits};
  const std::size_t fields_per_track = track_prev ? 4 : 2;
  bits::FrontierCodec codec;
  codec.init(pattern, fields_per_track, Ts);
  const std::size_t W = codec.words();
  std::vector<std::int32_t> vals(fields_per_track * Ts);
  const auto pack_entries = [&](const Entry* e, std::uint64_t* out) {
    std::int32_t* vp = vals.data();
    for (std::size_t t2 = 0; t2 < Ts; ++t2) {
      *vp++ = e[t2].next_free;
      *vp++ = e[t2].occupant + 1;
      if (track_prev) {
        *vp++ = e[t2].prev + 1;
        *vp++ = e[t2].cur + 1;
      }
    }
    codec.pack(vals.data(), out);
  };
  const auto unpack_entries = [&](const std::uint64_t* in, Entry* e) {
    codec.unpack(in, vals.data());
    const std::int32_t* vp = vals.data();
    for (std::size_t t2 = 0; t2 < Ts; ++t2) {
      e[t2].next_free = *vp++;
      e[t2].occupant = *vp++ - 1;
      if (track_prev) {
        e[t2].prev = *vp++ - 1;
        e[t2].cur = *vp++ - 1;
      } else {
        e[t2].prev = kNoConn;
        e[t2].cur = kNoConn;
      }
    }
  };

  std::vector<std::uint64_t> arena;
  arena.reserve(W * 1024);
  std::vector<std::int64_t> parent;
  std::vector<TrackId> edge_track;

  const Column L0 = U > 0 ? units[0].col : ch.width() + 1;
  std::vector<Entry> state(Ts, Entry{L0, kNoConn, kNoConn, kNoConn});
  arena.resize(W);
  pack_entries(state.data(), arena.data());
  parent.push_back(-1);
  edge_track.push_back(kNoTrack);

  std::vector<std::int64_t> level = {0};
  res.stats.nodes_per_level.push_back(1);

  // Dedup hits accumulate in a plain local, flushed once per call.
  std::uint64_t dedup_hits = 0;

  // Consistent stats on every exit, including partially built levels;
  // also the single observability flush point for this call.
  auto finalize_stats = [&] {
    res.stats.total_nodes = parent.size();
    res.stats.max_level_nodes =
        res.stats.nodes_per_level.empty()
            ? 0
            : *std::max_element(res.stats.nodes_per_level.begin(),
                                res.stats.nodes_per_level.end());
    SEGROUTE_COUNT("gdp.routes", 1);
    SEGROUTE_COUNT("gdp.nodes_created", res.stats.total_nodes);
    SEGROUTE_COUNT("gdp.dedup_hits", dedup_hits);
    SEGROUTE_GAUGE_MAX("gdp.frontier_high_water", res.stats.max_level_nodes);
    // Packed-word bytes actually held by the state arena.
    SEGROUTE_GAUGE_MAX("gdp.arena_high_water_bytes",
                       arena.capacity() * sizeof(arena[0]));
    SEGROUTE_HIST_RANGE("gdp.level_nodes", res.stats.nodes_per_level.data(),
                        res.stats.nodes_per_level.size(),
                        {1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384});
    SEGROUTE_SPAN_TAG(gdp_span, "outcome",
                      res.failure == FailureKind::kNone
                          ? "success"
                          : to_string(res.failure));
  };

  // Per-level per-track tables: the segment lookup at the unit's column
  // (and at the previous column for the overlap rule) depends only on
  // (track, level), not on the node being expanded.
  std::vector<Column> seg_end(Ts);       // right end of segment at u.col
  std::vector<Column> prev_seg_end(Ts);  // right end of segment at u.col-1

  std::vector<Entry> scratch(Ts);
  std::vector<std::int64_t> slots;
  std::vector<std::int64_t> next_level;
  std::size_t mask = 0;
  const auto rehash = [&](std::size_t cap) {
    slots.assign(cap, -1);
    const std::size_t m = cap - 1;
    for (std::int64_t id : next_level) {
      std::size_t pos =
          static_cast<std::size_t>(bits::hash_words(
              arena.data() + static_cast<std::size_t>(id) * W, W)) &
          m;
      while (slots[pos] >= 0) pos = (pos + 1) & m;
      slots[pos] = id;
    }
  };

  // Staged dedup probes (see alg/frontier_bits.h): resolved strictly in
  // arrival order at each flush, so node ids and dedup outcomes are
  // identical to immediate probing. Returns false iff the node limit was
  // hit (failure recorded; stats not yet pushed).
  bits::ProbeBatch batch;
  std::vector<std::uint64_t> batch_store(bits::ProbeBatch::kCapacity * W);
  batch.reset(W, batch_store.data());
  const auto flush_batch = [&]() -> bool {
    if (batch.count > 1) {
      for (std::size_t i = 0; i < batch.count; ++i) {
        bits::prefetch_ro(
            &slots[static_cast<std::size_t>(batch.hash[i]) & mask]);
      }
    }
    for (std::size_t i = 0; i < batch.count; ++i) {
      const std::uint64_t* key = batch.words + i * W;
      std::size_t pos = static_cast<std::size_t>(batch.hash[i]) & mask;
      for (;;) {
        const std::int64_t s = slots[pos];
        if (s < 0) {
          if (parent.size() >= opts.max_total_nodes) {
            res.fail(FailureKind::kBudgetExhausted,
                     "assignment graph exceeded node limit");
            batch.count = 0;
            return false;
          }
          const std::int64_t id = static_cast<std::int64_t>(parent.size());
          arena.insert(arena.end(), key, key + W);
          parent.push_back(batch.origin[i]);
          edge_track.push_back(batch.aux[i]);
          slots[pos] = id;
          next_level.push_back(id);
          if ((next_level.size() + 1) * 2 > slots.size()) {
            rehash(slots.size() * 2);
            mask = slots.size() - 1;
          }
          break;
        }
        if (bits::words_equal(
                arena.data() + static_cast<std::size_t>(s) * W, key, W)) {
          ++dedup_hits;
          break;
        }
        pos = (pos + 1) & mask;
      }
    }
    batch.count = 0;
    return true;
  };

  for (std::size_t step = 0; step < U; ++step) {
    const Unit u = units[step];
    const Column Lnext = (step + 1 < U) ? units[step + 1].col : ch.width() + 1;
    const bool switch_col_ok =
        !opts.allowed_switch_columns || switch_cols.contains(u.col);

    for (TrackId t = 0; t < T; ++t) {
      const Track& tr = ch.track(t);
      seg_end[static_cast<std::size_t>(t)] =
          tr.segment(tr.segment_at(u.col)).right;
      if (track_prev && opts.switch_requires_overlap && u.col > 1) {
        prev_seg_end[static_cast<std::size_t>(t)] =
            tr.segment(tr.segment_at(u.col - 1)).right;
      }
    }

    next_level.clear();
    std::size_t cap = 64;
    while (cap < level.size() * 4) cap <<= 1;
    slots.assign(cap, -1);
    mask = cap - 1;
    // Batch probes only once the slot array outgrows L1 (see dp.cpp).
    const std::size_t flush_at =
        cap >= 4096 ? bits::ProbeBatch::kCapacity : 1;

    for (std::int64_t ni : level) {
      // Unpack this node's state once; the packed arena may then
      // reallocate freely while successors are inserted.
      unpack_entries(arena.data() + static_cast<std::size_t>(ni) * W,
                     state.data());
      const Entry* ps = state.data();
      for (TrackId t = 0; t < T; ++t) {
        if (!meter.tick()) {
          if (flush_batch()) {
            res.fail(FailureKind::kBudgetExhausted,
                     "budget exhausted: " + meter.reason());
          }
          res.stats.nodes_per_level.push_back(next_level.size());
          finalize_stats();
          return res;
        }
        const Entry e = ps[static_cast<std::size_t>(t)];
        const bool seg_free = e.next_free == u.col;
        const bool share_ok = !seg_free && e.occupant == u.parent;
        if (!seg_free && !share_ok) continue;

        // Restricted variants: a piece that does not continue on the same
        // track as the parent's previous piece starts a new part — a track
        // change at column u.col.
        if (track_prev && u.col > cs[u.parent].left && e.prev != u.parent) {
          if (!switch_col_ok) continue;
          if (opts.switch_requires_overlap) {
            // The previous piece sits on the track t2 with prev == parent;
            // its segment there must extend through column u.col so a
            // vertical jumper can bridge the tracks.
            bool overlap = false;
            for (TrackId t2 = 0; t2 < T; ++t2) {
              if (ps[static_cast<std::size_t>(t2)].prev == u.parent) {
                overlap = prev_seg_end[static_cast<std::size_t>(t2)] >= u.col;
                break;
              }
            }
            if (!overlap) continue;
          }
        }

        // Build the successor state in scratch: apply the placement to
        // track t and normalize every entry w.r.t. the next unit's column
        // in one pass over the parent state.
        for (TrackId t2 = 0; t2 < T; ++t2) {
          Entry e2 = ps[static_cast<std::size_t>(t2)];
          if (t2 == t) {
            e2.next_free = seg_end[static_cast<std::size_t>(t)] + 1;
            e2.occupant = u.parent;
            if (track_prev) e2.cur = u.parent;
          }
          if (Lnext > u.col) {
            // Column boundary: `cur` becomes `prev` if the columns are
            // adjacent, else both expire.
            e2.prev = (Lnext == u.col + 1) ? e2.cur : kNoConn;
            e2.cur = kNoConn;
          }
          if (e2.next_free <= Lnext) {
            e2.next_free = Lnext;
            e2.occupant = kNoConn;
          } else if (e2.occupant != kNoConn && cs[e2.occupant].right < Lnext) {
            e2.occupant = kNoConn;  // parent can no longer extend: forget it
          }
          scratch[static_cast<std::size_t>(t2)] = e2;
        }

        std::uint64_t* dst = batch.slot_words();
        pack_entries(scratch.data(), dst);
        batch.push(bits::hash_words(dst, W), ni, t, 0.0);
        if (batch.count >= flush_at && !flush_batch()) {
          res.stats.nodes_per_level.push_back(next_level.size());
          finalize_stats();
          return res;
        }
      }
    }
    if (!flush_batch()) {
      res.stats.nodes_per_level.push_back(next_level.size());
      finalize_stats();
      return res;
    }
    if (next_level.empty()) {
      res.fail(FailureKind::kInfeasible,
               "no generalized routing: level " + std::to_string(step + 1) +
                   " empty (column " + std::to_string(u.col) + ")");
      res.stats.nodes_per_level.push_back(0);
      finalize_stats();
      return res;
    }
    res.stats.nodes_per_level.push_back(next_level.size());
    std::swap(level, next_level);
  }

  finalize_stats();

  // Trace back per-unit track choices and rebuild parts.
  std::vector<TrackId> unit_track(U, kNoTrack);
  std::int64_t cur = level.front();
  for (std::size_t step = U; step-- > 0;) {
    unit_track[step] = edge_track[static_cast<std::size_t>(cur)];
    cur = parent[static_cast<std::size_t>(cur)];
  }
  std::vector<std::vector<std::pair<Column, TrackId>>> per_parent(
      static_cast<std::size_t>(cs.size()));
  for (std::size_t i = 0; i < U; ++i) {
    per_parent[static_cast<std::size_t>(units[i].parent)].emplace_back(
        units[i].col, unit_track[i]);
  }
  for (ConnId i = 0; i < cs.size(); ++i) {
    auto& pieces = per_parent[static_cast<std::size_t>(i)];
    std::sort(pieces.begin(), pieces.end());
    for (const auto& [col, t] : pieces) {
      res.routing.add_part(i, col, col, t);
    }
  }
  res.routing.normalize();
  res.success = true;
  return res;
}

}  // namespace segroute::alg
