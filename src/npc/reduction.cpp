#include "npc/reduction.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace segroute::npc {

namespace {

void require_ready(const NmtsInstance& inst) {
  if (!inst.reduction_ready()) {
    throw std::invalid_argument(
        "reduction: instance does not satisfy the Section III preconditions; "
        "call NmtsInstance::normalized() first");
  }
}

Column channel_width(const NmtsInstance& inst) {
  return static_cast<Column>(inst.x().back() + inst.y().back() + 7);
}

void require_z_fits(const NmtsInstance& inst) {
  if (inst.z().back() + 5 > channel_width(inst)) {
    throw std::invalid_argument(
        "reduction: z_n too large for the construction (z_n + 5 > N)");
  }
}

/// Connection names "a1", "b2,3": the prefix, then 1-based indices.
/// Built by appending: g++ 12 at -O3 raises a false -Wrestrict on
/// `"literal" + std::string`.
std::string label(const char* prefix, int i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

std::string label(const char* prefix, int i, int j) {
  std::string s = label(prefix, i);
  s += ',';
  s += std::to_string(j);
  return s;
}

/// left(b_kj) for 0-based k (y index) and j (x index).
Column b_left(const NmtsInstance& inst, int k, int j) {
  return static_cast<Column>(inst.x()[static_cast<std::size_t>(j)] + 4 +
                             (inst.n() - (k + 1)));
}

Column b_right(const NmtsInstance& inst, int k, int j) {
  return static_cast<Column>(inst.y()[static_cast<std::size_t>(k)] +
                             inst.x()[static_cast<std::size_t>(j)] + 4);
}

/// The n^2 - n block tracks shared by Q and Q2: block k (one per y_k),
/// inner index j = 0..n-2, with middle segment spanning b_kj .. b_k(j+1).
std::vector<Track> build_block_tracks(const NmtsInstance& inst) {
  const int n = inst.n();
  const Column N = channel_width(inst);
  std::vector<Track> tracks;
  tracks.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1));
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j + 1 < n; ++j) {
      const Column cut1 = b_left(inst, k, j) - 1;
      const Column cut2 = b_right(inst, k, j + 1);
      tracks.push_back(Track(N, {cut1, cut2}));
    }
  }
  return tracks;
}

}  // namespace

UnlimitedReduction build_unlimited(const NmtsInstance& inst) {
  require_ready(inst);
  require_z_fits(inst);
  const int n = inst.n();
  const Column N = channel_width(inst);

  ConnectionSet cs;
  UnlimitedReduction q{SegmentedChannel::unsegmented(1, 1), {}, {}, {}, {},
                       {}, {}, n};

  for (int j = 0; j < n; ++j) {
    q.a.push_back(cs.add(4, static_cast<Column>(inst.x()[static_cast<std::size_t>(j)] + 3),
                         label("a", j + 1)));
  }
  q.b.resize(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      q.b[static_cast<std::size_t>(k)].push_back(
          cs.add(b_left(inst, k, j), b_right(inst, k, j),
                 label("b", k + 1, j + 1)));
    }
  }
  for (int i = 0; i < n; ++i) {
    q.d.push_back(cs.add(1, 3, label("d", i + 1)));
  }
  for (int i = 0; i < n * n - n; ++i) {
    q.e.push_back(cs.add(1, 5, label("e", i + 1)));
  }
  const Column f_left = static_cast<Column>(inst.x().back() + inst.y().back() + 5);
  for (int i = 0; i < n * n; ++i) {
    q.f.push_back(cs.add(f_left, f_left + 2, label("f", i + 1)));
  }

  std::vector<Track> tracks;
  tracks.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  // z-tracks: (1,3), unit segments 4..z_i+4, then (z_i+5, N).
  for (int i = 0; i < n; ++i) {
    std::vector<Column> cuts;
    const Column hi = static_cast<Column>(inst.z()[static_cast<std::size_t>(i)] + 4);
    for (Column c = 3; c <= hi; ++c) cuts.push_back(c);
    tracks.push_back(Track(N, std::move(cuts)));
  }
  for (Track& t : build_block_tracks(inst)) tracks.push_back(std::move(t));

  q.channel = SegmentedChannel(std::move(tracks));
  q.connections = std::move(cs);
  return q;
}

TwoSegmentReduction build_two_segment(const NmtsInstance& inst) {
  require_ready(inst);
  require_z_fits(inst);
  const int n = inst.n();
  const Column N = channel_width(inst);

  ConnectionSet cs;
  TwoSegmentReduction q{SegmentedChannel::unsegmented(1, 1), {}, {}, {}, {},
                        {}, {}, n};

  for (int j = 0; j < n; ++j) {
    q.a.push_back(cs.add(4, static_cast<Column>(inst.x()[static_cast<std::size_t>(j)] + 3),
                         label("a", j + 1)));
  }
  q.b.resize(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      q.b[static_cast<std::size_t>(k)].push_back(
          cs.add(b_left(inst, k, j), b_right(inst, k, j),
                 label("b", k + 1, j + 1)));
    }
  }
  for (int i = 0; i < n * n - n; ++i) {
    q.e.push_back(cs.add(1, 5, label("e", i + 1)));
  }
  const Column f_left = static_cast<Column>(inst.x().back() + inst.y().back() + 5);
  for (int i = 0; i < 2 * n * n - n; ++i) {
    q.f.push_back(cs.add(f_left, f_left + 2, label("f", i + 1)));
  }
  q.g.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j + 1 < n; ++j) {
      q.g[static_cast<std::size_t>(i)].push_back(
          cs.add(4, static_cast<Column>(inst.z()[static_cast<std::size_t>(i)] + 4),
                 label("g", i + 1, j + 1)));
    }
  }

  std::vector<Track> tracks;
  tracks.reserve(static_cast<std::size_t>(2 * n * n - n));
  // t_{i,j}: (1,2), (3,3), (4, x_j+3), (x_j+4, z_i+4), (z_i+5, N).
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const Column xr = static_cast<Column>(inst.x()[static_cast<std::size_t>(j)] + 3);
      const Column zr = static_cast<Column>(inst.z()[static_cast<std::size_t>(i)] + 4);
      tracks.push_back(Track(N, {2, 3, xr, zr}));
    }
  }
  for (Track& t : build_block_tracks(inst)) tracks.push_back(std::move(t));

  q.channel = SegmentedChannel(std::move(tracks));
  q.connections = std::move(cs);
  return q;
}

Routing routing_from_matching(const UnlimitedReduction& q,
                              const NmtsInstance& inst,
                              const NmtsSolution& sol) {
  if (!inst.check(sol)) {
    throw std::invalid_argument("routing_from_matching: invalid NMTS solution");
  }
  const int n = q.n;
  Routing r(q.connections.size());
  // d_i and f_i per Proposition 1; e_i to the block tracks.
  for (int i = 0; i < n; ++i) {
    r.assign(q.d[static_cast<std::size_t>(i)], static_cast<TrackId>(i));
  }
  for (int i = 0; i < n * n; ++i) {
    r.assign(q.f[static_cast<std::size_t>(i)], static_cast<TrackId>(i));
  }
  for (int i = 0; i < n * n - n; ++i) {
    r.assign(q.e[static_cast<std::size_t>(i)], static_cast<TrackId>(n + i));
  }
  // Matched pairs on the z-tracks.
  std::vector<int> bstar(static_cast<std::size_t>(n), -1);  // per y-index k:
                                                            // the x-index used
  for (int i = 0; i < n; ++i) {
    const int aj = sol.alpha[static_cast<std::size_t>(i)];
    const int bk = sol.beta[static_cast<std::size_t>(i)];
    r.assign(q.a[static_cast<std::size_t>(aj)], static_cast<TrackId>(i));
    r.assign(q.b[static_cast<std::size_t>(bk)][static_cast<std::size_t>(aj)],
             static_cast<TrackId>(i));
    bstar[static_cast<std::size_t>(bk)] = aj;
  }
  // Remaining b's into the block tracks (Lemma 1, step 3): within block k,
  // b_kj goes to inner track j when j < j*, else to inner track j - 1.
  for (int k = 0; k < n; ++k) {
    const int jstar = bstar[static_cast<std::size_t>(k)];
    for (int j = 0; j < n; ++j) {
      if (j == jstar) continue;
      const int inner = (j < jstar) ? j : j - 1;
      const TrackId t = static_cast<TrackId>(n + k * (n - 1) + inner);
      r.assign(q.b[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)], t);
    }
  }
  return r;
}

std::optional<NmtsSolution> matching_from_routing(const UnlimitedReduction& q,
                                                  const NmtsInstance& inst,
                                                  const Routing& r) {
  const int n = q.n;
  if (!validate(q.channel, q.connections, r)) return std::nullopt;
  NmtsSolution sol;
  sol.alpha.assign(static_cast<std::size_t>(n), -1);
  sol.beta.assign(static_cast<std::size_t>(n), -1);
  // Lemma 2: each z-track t_i hosts exactly one a and one b.
  for (int j = 0; j < n; ++j) {
    const TrackId t = r.track_of(q.a[static_cast<std::size_t>(j)]);
    if (t < 0 || t >= n) return std::nullopt;
    if (sol.alpha[static_cast<std::size_t>(t)] != -1) return std::nullopt;
    sol.alpha[static_cast<std::size_t>(t)] = j;
  }
  // The y-index of the b connection each z-track hosts. When y contains
  // repeated values, a valid routing may draw several b's from the same
  // y-family (their segments are identical), so these raw indices need
  // not be distinct; remap them to distinct indices of equal y value.
  std::vector<int> raw_k(static_cast<std::size_t>(n), -1);
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      const TrackId t =
          r.track_of(q.b[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)]);
      if (t >= 0 && t < n) {
        if (raw_k[static_cast<std::size_t>(t)] != -1) return std::nullopt;
        raw_k[static_cast<std::size_t>(t)] = k;
      }
    }
  }
  std::vector<bool> used(static_cast<std::size_t>(n), false);
  for (int t = 0; t < n; ++t) {
    const int k = raw_k[static_cast<std::size_t>(t)];
    if (k == -1) return std::nullopt;
    int pick = -1;
    for (int k2 = 0; k2 < n; ++k2) {
      if (!used[static_cast<std::size_t>(k2)] &&
          inst.y()[static_cast<std::size_t>(k2)] ==
              inst.y()[static_cast<std::size_t>(k)]) {
        pick = k2;
        break;
      }
    }
    if (pick == -1) return std::nullopt;
    used[static_cast<std::size_t>(pick)] = true;
    sol.beta[static_cast<std::size_t>(t)] = pick;
  }
  if (!inst.check(sol)) return std::nullopt;
  return sol;
}

Routing routing_from_matching_two_segment(const TwoSegmentReduction& q2,
                                          const NmtsInstance& inst,
                                          const NmtsSolution& sol) {
  if (!inst.check(sol)) {
    throw std::invalid_argument(
        "routing_from_matching_two_segment: invalid NMTS solution");
  }
  const int n = q2.n;
  const TrackId blocks_base = static_cast<TrackId>(n * n);
  Routing r(q2.connections.size());
  // f_i: one per track (2n^2 - n tracks).
  for (int i = 0; i < 2 * n * n - n; ++i) {
    r.assign(q2.f[static_cast<std::size_t>(i)], static_cast<TrackId>(i));
  }
  // e_i: first segments of the block tracks.
  for (int i = 0; i < n * n - n; ++i) {
    r.assign(q2.e[static_cast<std::size_t>(i)], blocks_base + i);
  }
  std::vector<int> bstar(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    const int aj = sol.alpha[static_cast<std::size_t>(i)];
    const int bk = sol.beta[static_cast<std::size_t>(i)];
    const TrackId tij = static_cast<TrackId>(i * n + aj);
    r.assign(q2.a[static_cast<std::size_t>(aj)], tij);
    r.assign(q2.b[static_cast<std::size_t>(bk)][static_cast<std::size_t>(aj)], tij);
    bstar[static_cast<std::size_t>(bk)] = aj;
    // g_{i,*} fill the other n-1 tracks of row i.
    int gi = 0;
    for (int j = 0; j < n; ++j) {
      if (j == aj) continue;
      r.assign(q2.g[static_cast<std::size_t>(i)][static_cast<std::size_t>(gi)],
               static_cast<TrackId>(i * n + j));
      ++gi;
    }
  }
  for (int k = 0; k < n; ++k) {
    const int jstar = bstar[static_cast<std::size_t>(k)];
    for (int j = 0; j < n; ++j) {
      if (j == jstar) continue;
      const int inner = (j < jstar) ? j : j - 1;
      const TrackId t = blocks_base + static_cast<TrackId>(k * (n - 1) + inner);
      r.assign(q2.b[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)], t);
    }
  }
  return r;
}

}  // namespace segroute::npc
