// Example 1 of the paper, end to end: the Numerical Matching with Target
// Sums instance x = (2,5,8), y = (9,11,12), z = (11,17,19) is turned into
// the segmented-channel instance Q of Section III (9 tracks, 27 columns,
// 30 connections); a routing of Q is found by the DP router; and the
// matching is read back out of the routing (Lemma 2).
//
// Run:  ./build/examples/npc_reduction
#include <iostream>

#include "segroute.h"

using namespace segroute;

int main() {
  const auto inst = gen::fixtures::example1_nmts();
  std::cout << "NMTS instance (Example 1): x = (2,5,8)  y = (9,11,12)  "
               "z = (11,17,19)\n";

  const auto sol = inst.solve();
  std::cout << "Direct solver: " << (sol ? "solvable" : "unsolvable") << "\n";
  if (sol) {
    for (int i = 0; i < inst.n(); ++i) {
      std::cout << "  z[" << i + 1 << "] = " << inst.z()[static_cast<std::size_t>(i)]
                << " = x[" << sol->alpha[static_cast<std::size_t>(i)] + 1
                << "] + y[" << sol->beta[static_cast<std::size_t>(i)] + 1
                << "]\n";
    }
  }

  // Build Q per the Theorem 1 construction.
  const auto q = npc::build_unlimited(inst);
  std::cout << "\nReduction Q: T = " << q.channel.num_tracks()
            << " tracks, N = " << q.channel.width() << " columns, M = "
            << q.connections.size() << " connections\n";

  // Lemma 1: a routing from the matching.
  const auto witness = npc::routing_from_matching(q, inst, *sol);
  std::cout << "Lemma 1 witness routing valid: "
            << (validate(q.channel, q.connections, witness) ? "yes" : "no")
            << "\n";

  // Independently, route Q from scratch with the DP.
  const auto dp = alg::dp_route_unlimited(q.channel, q.connections);
  std::cout << "DP router on Q: " << (dp ? "routed" : "failed")
            << " (depth-first search visited " << dp.stats.total_nodes
            << " states)\n";

  // Lemma 2: extract a matching from whatever routing the DP found.
  const auto back = npc::matching_from_routing(q, inst, dp.routing);
  std::cout << "Lemma 2 extraction: "
            << (back && inst.check(*back) ? "valid matching recovered"
                                          : "FAILED")
            << "\n";

  // The no-instance direction: perturb z so no matching exists; the same
  // construction must then be unroutable.
  const npc::NmtsInstance bad({2, 5, 8}, {9, 11, 12}, {12, 16, 19});
  std::cout << "\nPerturbed z = (12,16,19): solver says "
            << (bad.solve() ? "solvable" : "unsolvable") << "\n";
  const auto qbad = npc::build_unlimited(bad);
  const auto dpbad = alg::dp_route_unlimited(qbad.channel, qbad.connections);
  std::cout << "DP router on perturbed Q: "
            << (dpbad ? "routed (unexpected!)" : "no routing, as Theorem 1 "
                                                 "demands")
            << "\n";
  return 0;
}
