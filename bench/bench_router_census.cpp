// Router census (ROADMAP item 5): does each registry router earn its
// place with a number?
//
// Section A — `dp` against `branch_bound` on Problem 3 (minimum total
// occupied length) at K = 0, 1, 2, on three families: the frozen suite,
// the NMTS reduction instances Q and Q2 at n = 2 and 3 (the NP-hard
// family of Section III and the Appendix), and progressive channels
// (T = 8..16 tracks of 3 or 4 segment-length types). Every call runs
// under a 1 s deadline. Where both routers finish, they must agree on
// feasibility and on the optimal weight; a disagreement exits 1.
//
// Section B — robust_route's fixed cascade (dp -> greedy1 -> match1 ->
// lp -> anneal) in feasibility mode at 1..100 ms deadlines, over the
// suite and staggered channels (T = 12..30) at K = 0 and 2: how often
// each stage is the winner.
//
// Times are the best of three calls for calls under 10 ms, else one
// call; the agreement check and the counts are the result, the
// milliseconds are context. Runs in about half a minute on a 4-thread
// host. Not a gate: it prints, and fails only on a disagreement.
//
// Usage: bench_router_census
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "segroute.h"

using namespace segroute;

namespace {

constexpr std::chrono::milliseconds kExactDeadline{1000};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

template <class... Parts>
std::string cat(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

struct Instance {
  std::string name;
  SegmentedChannel channel;
  ConnectionSet connections;
};

struct Family {
  std::string name;
  std::vector<Instance> instances;
};

struct Timed {
  alg::RouteResult result;
  double ms = 0.0;
};

// A completed search: an optimal routing, or a proof that none exists.
// A deadline stop is neither (branch_bound's anytime answer carries a
// note; a stop before any routing is kBudgetExhausted).
bool finished(const alg::RouteResult& r) {
  return r.failure == alg::FailureKind::kInfeasible ||
         (r.success && r.note.empty());
}

Timed run_exact(const char* router, const Instance& inst, int k) {
  RouteRequest rq;
  rq.channel = &inst.channel;
  rq.connections = &inst.connections;
  rq.options.max_segments = k;
  rq.options.weight = weights::occupied_length();
  Timed best;
  for (int rep = 0; rep < 3; ++rep) {
    // A deadline is an end time: each rep gets a fresh allowance.
    rq.budget = harness::Budget::with_deadline(kExactDeadline);
    const auto t0 = std::chrono::steady_clock::now();
    alg::RouteResult r = alg::route(router, rq);
    const double ms = ms_since(t0);
    if (rep == 0 || ms < best.ms) best = {std::move(r), ms};
    if (best.ms >= 10.0) break;
  }
  return best;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<Family> exact_families() {
  std::vector<Family> out;

  Family suite{"suite", {}};
  for (const auto& inst : gen::standard_suite()) {
    suite.instances.push_back({inst.name, inst.channel, inst.connections});
  }
  out.push_back(std::move(suite));

  // Three NMTS instances per n (solvable, perturbed, solvable), each
  // giving Q and Q2.
  Family nmts{"nmts", {}};
  std::mt19937_64 nrng(103);
  for (int n : {2, 3}) {
    for (int i = 0; i < 3; ++i) {
      const auto raw = i % 2 == 0 ? npc::random_solvable_nmts(n, nrng)
                                  : npc::random_perturbed_nmts(n, nrng);
      const auto inst = raw.normalized();
      auto q = npc::build_unlimited(inst);
      nmts.instances.push_back({cat("Q n", n, "#", i), std::move(q.channel),
                                std::move(q.connections)});
      auto q2 = npc::build_two_segment(inst);
      nmts.instances.push_back({cat("Q2 n", n, "#", i),
                                std::move(q2.channel),
                                std::move(q2.connections)});
    }
  }
  out.push_back(std::move(nmts));

  Family prog{"progressive", {}};
  std::mt19937_64 prng(505);
  for (TrackId t = 8; t <= 16; ++t) {
    for (int types : {3, 4}) {
      auto ch = gen::progressive_segmentation(t, 48, 2, types);
      auto cs = gen::routable_workload(ch, 2 * t, 5.0, prng);
      prog.instances.push_back(
          {cat("T", t, "/", types), std::move(ch), std::move(cs)});
    }
  }
  out.push_back(std::move(prog));
  return out;
}

// Section A. Returns false on any disagreement.
bool census_exact() {
  std::cout << "A. dp vs branch_bound, Problem 3 (occupied length), "
            << kExactDeadline.count() << " ms deadline per call\n\n";
  io::Table t({"family", "K", "runs", "both done", "agree", "bb faster",
               "dp deadline", "bb deadline", "dp ms p50", "bb ms p50"});
  bool ok = true;
  for (const Family& fam : exact_families()) {
    for (int k : {0, 1, 2}) {
      int both = 0, agree = 0, bb_faster = 0, dp_stop = 0, bb_stop = 0;
      std::vector<double> dp_ms, bb_ms;
      for (const Instance& inst : fam.instances) {
        const Timed dp = run_exact("dp", inst, k);
        const Timed bb = run_exact("branch_bound", inst, k);
        dp_ms.push_back(dp.ms);
        bb_ms.push_back(bb.ms);
        if (bb.ms < dp.ms) ++bb_faster;
        const bool dp_done = finished(dp.result);
        const bool bb_done = finished(bb.result);
        dp_stop += dp_done ? 0 : 1;
        bb_stop += bb_done ? 0 : 1;
        if (!dp_done || !bb_done) continue;
        ++both;
        const bool same =
            dp.result.success == bb.result.success &&
            (!dp.result.success ||
             std::abs(dp.result.weight - bb.result.weight) <= 1e-9);
        if (same) {
          ++agree;
        } else {
          ok = false;
          std::cerr << "DISAGREE: " << fam.name << " " << inst.name
                    << " K=" << k << ": dp " << dp.result.success << "/"
                    << dp.result.weight << ", branch_bound "
                    << bb.result.success << "/" << bb.result.weight << "\n";
        }
      }
      t.add_row({fam.name, io::Table::num(k),
                 io::Table::num(static_cast<int>(fam.instances.size())),
                 io::Table::num(both), io::Table::num(agree),
                 io::Table::num(bb_faster), io::Table::num(dp_stop),
                 io::Table::num(bb_stop), io::Table::num(median(dp_ms), 3),
                 io::Table::num(median(bb_ms), 3)});
    }
  }
  t.print(std::cout);
  std::cout << "\n";
  return ok;
}

// Section B.
void census_cascade() {
  const std::vector<int> deadlines = {1, 2, 5, 10, 20, 50, 100};
  // One column per outcome: the winning stage, a proof of infeasibility,
  // no answer from the stages that ran, or no stage started at all.
  const std::vector<std::string> outcomes = {
      "dp", "greedy1", "match1", "lp", "anneal", "infeasible", "unrouted",
      "no stage run"};
  std::vector<Instance> pool;
  for (const auto& inst : gen::standard_suite()) {
    pool.push_back({inst.name, inst.channel, inst.connections});
  }
  std::mt19937_64 rng(1290);
  for (TrackId t : {12, 18, 24, 30}) {
    for (int seed = 0; seed < 2; ++seed) {
      auto ch = gen::staggered_segmentation(t, 96, 8);
      auto cs = gen::routable_workload(ch, 3 * t, 6.0, rng);
      pool.push_back({cat("staggered T", t), std::move(ch), std::move(cs)});
    }
  }

  std::cout << "B. robust_route winners (feasibility mode, K = 0 and 2, "
            << pool.size() << " instances)\n\n";
  std::vector<std::string> headers = {"deadline ms", "runs"};
  headers.insert(headers.end(), outcomes.begin(), outcomes.end());
  io::Table t(headers);
  std::map<std::string, int> total;
  const auto add_row = [&](const std::string& label,
                           std::map<std::string, int>& count) {
    int runs = 0;
    for (const auto& [name, n] : count) runs += n;
    std::vector<std::string> row = {label, io::Table::num(runs)};
    for (const auto& o : outcomes) row.push_back(io::Table::num(count[o]));
    t.add_row(std::move(row));
  };
  for (int d : deadlines) {
    std::map<std::string, int> count;
    for (const Instance& inst : pool) {
      for (int k : {0, 2}) {
        harness::RobustOptions o;
        o.max_segments = k;
        o.deadline = std::chrono::milliseconds(d);
        const auto rep =
            harness::robust_route(inst.channel, inst.connections, o);
        const bool ran = std::any_of(
            rep.stages.begin(), rep.stages.end(),
            [](const harness::StageReport& sr) { return sr.attempted; });
        const std::string outcome =
            rep.success ? rep.winner
            : rep.failure == alg::FailureKind::kInfeasible ? "infeasible"
            : ran ? "unrouted"
                  : "no stage run";
        ++count[outcome];
        ++total[outcome];
      }
    }
    add_row(io::Table::num(d), count);
  }
  add_row("all", total);
  t.print(std::cout);
}

}  // namespace

int main() {
  const auto t0 = std::chrono::steady_clock::now();
  std::cout << "Router census — dp vs branch_bound, and robust_route stage "
               "wins\n\n";
  const bool ok = census_exact();
  census_cascade();
  std::cout << "\n"
            << (ok ? "dp and branch_bound agree wherever both finish"
                   : "FAIL: dp and branch_bound disagree")
            << " (" << static_cast<int>(ms_since(t0) / 1000.0) << " s)\n";
  return ok ? 0 : 1;
}
