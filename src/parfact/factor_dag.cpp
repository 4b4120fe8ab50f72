#include "parfact/factor_dag.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "dense/kernels.hpp"

namespace sparts::parfact {

namespace {

/// Flop estimate of one coarse supernode task: panel Cholesky + Schur
/// update.
double supernode_task_cost(const symbolic::SupernodePartition& part,
                           index_t s) {
  const index_t t = part.width(s);
  const index_t ns = part.height(s);
  const index_t b = ns - t;
  return static_cast<double>(dense::cholesky_panel_flops(ns, t) +
                             dense::syrk_flops(b, b, t, /*lower_only=*/true));
}

}  // namespace

exec::TaskGraph build_supernode_dag(const symbolic::SupernodePartition& part) {
  exec::TaskGraph g;
  const index_t nsup = part.num_supernodes();
  for (index_t s = 0; s < nsup; ++s) {
    exec::TaskNode node;
    node.label = "sup:" + std::to_string(s);
    node.kind = exec::TaskKind::generic;
    node.cost = supernode_task_cost(part, s);
    node.item = s;
    g.add_task(std::move(node));
  }
  for (index_t s = 0; s < nsup; ++s) {
    const index_t parent = part.stree.parent[static_cast<std::size_t>(s)];
    if (parent != -1) g.add_edge(s, parent);
  }
  return g;
}

exec::GraphStats supernode_dag_stats(const symbolic::SupernodePartition& part) {
  const index_t nsup = part.num_supernodes();
  std::vector<double> path(static_cast<std::size_t>(nsup), 0.0);
  std::vector<std::int64_t> level(static_cast<std::size_t>(nsup), 0);
  // Children precede parents, so ascending ids are a topological order:
  // push each finished chain to the parent.
  exec::GraphStatsBuilder stats;
  for (index_t s = 0; s < nsup; ++s) {
    const auto i = static_cast<std::size_t>(s);
    const double cost = supernode_task_cost(part, s);
    path[i] += cost;
    stats.add_task(exec::TaskKind::generic, cost, level[i], path[i]);
    const index_t parent = part.stree.parent[i];
    if (parent == -1) continue;
    const auto j = static_cast<std::size_t>(parent);
    path[j] = std::max(path[j], path[i]);
    level[j] = std::max(level[j], level[i] + 1);
    stats.add_edges(1);
  }
  return stats.finish();
}

}  // namespace sparts::parfact
