// Incremental design editing: an OnlineRouter session placing nets,
// then an engineering change order (removes and adds) and a move, each
// as one ChannelEdit through apply(). Every edit returns a RepairOutcome
// saying whether the canonical greedy or the DP fallback produced the
// new state, and the final state is checked against routing the same
// set from scratch. Exits nonzero if the final snapshot is invalid.
//
// Run:  ./build/examples/incremental_edit  [--out output.svg]
// The SVG snapshot defaults to incremental_edit.svg next to the binary
// (never the source tree).
#include <fstream>
#include <iostream>
#include <random>
#include <string>

#include "segroute.h"

using namespace segroute;

int main(int argc, char** argv) {
  std::string out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--out output.svg]\n";
      return 2;
    }
  }
  if (out.empty()) {
    out = argv[0];
    const std::size_t slash = out.find_last_of('/');
    out = (slash == std::string::npos ? std::string(".")
                                      : out.substr(0, slash)) +
          "/incremental_edit.svg";
  }

  const auto channel = gen::staggered_segmentation(5, 32, 8);
  alg::OnlineRouter router(channel);

  std::cout << "Channel: 5 staggered tracks, 32 columns\n\n";

  // A design session: place a first batch of nets.
  std::mt19937_64 rng(7);
  std::vector<ConnId> live;
  for (int i = 0; i < 10; ++i) {
    const Column l = 1 + static_cast<Column>(rng() % 28);
    const Column r = std::min<Column>(32, l + 2 + static_cast<Column>(rng() % 8));
    std::string name = "n";
    name += std::to_string(i);
    const alg::RepairOutcome rc =
        router.apply(alg::ChannelEdit::add(l, r, name));
    std::cout << "add " << name << " [" << l << "," << r << "] -> ";
    if (rc.success) {
      live.push_back(rc.id);
      std::cout << "t" << router.track_of(rc.id) + 1 << " via "
                << alg::to_string(rc.path) << "\n";
    } else {
      std::cout << "REJECTED (" << alg::to_string(rc.failure) << ")\n";
    }
  }

  // An engineering change order: each edit is one ChannelEdit; a
  // rejected one leaves the session unchanged.
  std::cout << "\nECO: removing 3 nets, adding 3 longer ones\n";
  for (int k = 0; k < 3 && !live.empty(); ++k) {
    const ConnId victim = live.back();
    const alg::RepairOutcome rc = router.apply(alg::ChannelEdit::remove(victim));
    std::cout << "  remove #" << victim << " -> " << alg::to_string(rc.path)
              << "\n";
    live.pop_back();
  }
  for (int i = 0; i < 3; ++i) {
    const Column l = 1 + static_cast<Column>(rng() % 16);
    const Column r = std::min<Column>(32, l + 10 + static_cast<Column>(rng() % 6));
    std::string name = "eco";
    name += std::to_string(i);
    const alg::RepairOutcome rc =
        router.apply(alg::ChannelEdit::add(l, r, name));
    if (rc.success) {
      live.push_back(rc.id);
      std::cout << "  add " << name << " [" << l << "," << r << "] -> t"
                << router.track_of(rc.id) + 1 << " via "
                << alg::to_string(rc.path) << "\n";
    } else {
      std::cout << "  add " << name << " [" << l << "," << r
                << "] -> REJECTED (state unchanged)\n";
    }
  }

  // A move: the first net shifts right; it keeps its id and name, and
  // every net is re-placed canonically around its new span.
  if (!live.empty()) {
    const ConnId id = live.front();
    const Connection before = router.connection(id);
    const Column shift = std::min<Column>(4, 32 - before.right);
    const alg::RepairOutcome rc = router.apply(alg::ChannelEdit::move(
        id, before.left + shift, before.right + shift));
    std::cout << "\nmove " << before.name << " [" << before.left << ","
              << before.right << "] -> [" << before.left + shift << ","
              << before.right + shift << "]: ";
    if (rc.success) {
      std::cout << "t" << router.track_of(id) + 1 << " via "
                << alg::to_string(rc.path) << "\n";
    } else {
      std::cout << "REJECTED (state unchanged)\n";
    }
  }

  const auto [cs, routing] = router.snapshot();
  const auto verdict = validate(channel, cs, routing);
  std::cout << "\nFinal state: " << cs.size() << " nets, valid = "
            << (verdict ? "yes" : verdict.error) << "\n"
            << io::render(channel, cs, routing);

  // The session invariant the whole delta layer rests on: the edited
  // state is bit-identical to routing the same set from scratch.
  const alg::CanonicalResult canon = alg::from_scratch(channel, cs, true, 0);
  std::cout << "canonical check: "
            << (canon.result.success && canon.result.routing == routing
                    ? "session == from-scratch (bit-identical)\n"
                    : "MISMATCH\n");

  const auto stats = utilization(channel, cs, routing);
  std::cout << "wire utilization " << io::Table::num(100 * stats.wire_utilization(), 1)
            << "%, overhang " << io::Table::num(stats.overhang(), 2) << "x\n";

  std::ofstream(out) << io::to_svg(channel, cs, &routing);
  std::cout << "SVG written to " << out << "\n";
  return verdict ? 0 : 1;
}
