// E4 (Example 1 / Fig. 5, Lemmas 1-2): the published NMTS instance run
// through the Theorem 1 construction in both directions, plus an
// infeasible sibling.
#include <iostream>

#include "segroute.h"

using namespace segroute;

int main() {
  std::cout << "E4 / Example 1 — the Theorem 1 reduction on the published "
               "instance\n\n";
  const auto inst = gen::fixtures::example1_nmts();
  const auto q = npc::build_unlimited(inst);

  io::Table s({"quantity", "formula", "value"});
  const int n = q.n;
  s.add_row({"n", "-", io::Table::num(n)});
  s.add_row({"tracks T", "n^2", io::Table::num(q.channel.num_tracks())});
  s.add_row({"columns N", "x_n + y_n + 7", io::Table::num(q.channel.width())});
  s.add_row({"connections M", "3n^2 + n", io::Table::num(q.connections.size())});
  s.add_row({"a_i", "n", io::Table::num(static_cast<int>(q.a.size()))});
  s.add_row({"b_kj", "n^2",
             io::Table::num(static_cast<int>(q.b.size() * q.b[0].size()))});
  s.add_row({"d_i", "n", io::Table::num(static_cast<int>(q.d.size()))});
  s.add_row({"e_i", "n^2 - n", io::Table::num(static_cast<int>(q.e.size()))});
  s.add_row({"f_i", "n^2", io::Table::num(static_cast<int>(q.f.size()))});
  std::cout << s.str() << "\n";

  io::Table t({"step", "result"});
  const auto sol = inst.solve();
  t.add_row({"NMTS solver", sol ? "solvable" : "unsolvable"});
  const auto witness = npc::routing_from_matching(q, inst, *sol);
  t.add_row({"Lemma 1 routing from matching",
             validate(q.channel, q.connections, witness) ? "valid" : "INVALID"});
  const auto dp = alg::dp_route_unlimited(q.channel, q.connections);
  // The graph's width L is read off the full graph (unit weights: the
  // level sweep); the depth-first search of Problem 1 visits fewer states.
  const auto graph =
      alg::dp_route_optimal(q.channel, q.connections, weights::unit());
  std::string dp_col = "failed";
  if (dp.success) {
    dp_col = "routed (";
    dp_col += std::to_string(dp.stats.total_nodes);
    dp_col += " states visited; graph L = ";
    dp_col += std::to_string(graph.stats.max_level_nodes);
    dp_col += ")";
  }
  t.add_row({"DP router on Q", dp_col});
  const auto back = npc::matching_from_routing(q, inst, dp.routing);
  t.add_row({"Lemma 2 matching from routing",
             back && inst.check(*back) ? "valid matching" : "FAILED"});

  const npc::NmtsInstance bad({2, 5, 8}, {9, 11, 12}, {12, 16, 19});
  const auto qbad = npc::build_unlimited(bad);
  t.add_row({"perturbed z = (12,16,19): NMTS",
             bad.solve() ? "solvable" : "unsolvable"});
  const auto dpbad = alg::dp_route_unlimited(qbad.channel, qbad.connections);
  t.add_row({"perturbed: DP router on Q", dpbad.success ? "routed" : "no routing"});
  std::cout << t.str()
            << "\nShape check: routing exists exactly when the matching "
               "does, in both directions (Theorem 1).\n";
  return 0;
}
