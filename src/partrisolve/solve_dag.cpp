#include "partrisolve/solve_dag.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "dense/kernels.hpp"

namespace sparts::partrisolve {

namespace {

/// One source supernode's contiguous run of below rows owned by one target
/// supernode: below-row indices [lo, hi) of `source` land in the pivot
/// range of the target.
struct ContribSegment {
  index_t source;
  index_t lo;
  index_t hi;
};

/// incoming[s] = the segments targeting s, ascending by source (the order
/// the forward bodies must apply them in for bit-identical sums).
std::vector<std::vector<ContribSegment>> contribution_segments(
    const symbolic::SupernodePartition& part) {
  const index_t nsup = part.num_supernodes();
  const auto& owner = part.sup_of_col;
  std::vector<std::vector<ContribSegment>> incoming(
      static_cast<std::size_t>(nsup));
  for (index_t c = 0; c < nsup; ++c) {
    const auto rows = part.row_indices(c);
    const index_t t = part.width(c);
    const index_t below = part.height(c) - t;
    // Rows ascend, so owners are non-decreasing: one segment per target.
    index_t k = 0;
    while (k < below) {
      const index_t target =
          owner[static_cast<std::size_t>(rows[static_cast<std::size_t>(t + k)])];
      SPARTS_DCHECK(target > c);
      index_t end = k + 1;
      while (end < below &&
             owner[static_cast<std::size_t>(
                 rows[static_cast<std::size_t>(t + end)])] == target) {
        ++end;
      }
      incoming[static_cast<std::size_t>(target)].push_back(
          ContribSegment{c, k, end});
      k = end;
    }
  }
  return incoming;
}

/// Per-right-hand-side flop estimate of one supernode's solve task
/// (either phase): triangle solve + rectangle gemm.
double solve_task_cost(const symbolic::SupernodePartition& part, index_t s) {
  const index_t t = part.width(s);
  return static_cast<double>(dense::trsm_panel_flops(t, 1) +
                             dense::gemm_flops(part.height(s) - t, 1, t));
}

exec::TaskGraph build_solve_dag(const symbolic::SupernodePartition& part,
                                exec::TaskKind kind) {
  exec::TaskGraph g;
  const index_t nsup = part.num_supernodes();
  const bool forward = kind == exec::TaskKind::fwd_solve;
  for (index_t s = 0; s < nsup; ++s) {
    exec::TaskNode node;
    node.label = (forward ? "fw:" : "bw:") + std::to_string(s);
    node.kind = kind;
    node.cost = solve_task_cost(part, s);
    node.item = s;
    g.add_task(std::move(node));
  }
  const auto incoming = contribution_segments(part);
  for (index_t s = 0; s < nsup; ++s) {
    for (const ContribSegment& seg : incoming[static_cast<std::size_t>(s)]) {
      if (forward) {
        g.add_edge(seg.source, s);
      } else {
        g.add_edge(s, seg.source);
      }
    }
  }
  return g;
}

}  // namespace

exec::TaskGraph build_forward_dag(const symbolic::SupernodePartition& part) {
  return build_solve_dag(part, exec::TaskKind::fwd_solve);
}

exec::TaskGraph build_backward_dag(const symbolic::SupernodePartition& part) {
  return build_solve_dag(part, exec::TaskKind::bwd_solve);
}

SolveDagStats solve_dag_stats(const symbolic::SupernodePartition& part) {
  const index_t nsup = part.num_supernodes();
  // Calls visit(target) once per forward edge s -> target: below rows
  // ascend and column owners are monotone, so each target is one run.
  auto for_each_target = [&part](index_t s, auto&& visit) {
    const auto rows = part.row_indices(s);
    index_t prev = -1;
    for (std::size_t k = static_cast<std::size_t>(part.width(s));
         k < rows.size(); ++k) {
      const index_t target =
          part.sup_of_col[static_cast<std::size_t>(rows[k])];
      if (target != prev) visit(target);
      prev = target;
    }
  };
  std::vector<double> path(static_cast<std::size_t>(nsup), 0.0);
  std::vector<std::int64_t> level(static_cast<std::size_t>(nsup), 0);

  // Forward: ascending ids are a topological order (every edge goes to a
  // larger id), so push each finished chain to the targets.
  exec::GraphStatsBuilder fw;
  for (index_t s = 0; s < nsup; ++s) {
    const auto i = static_cast<std::size_t>(s);
    const double cost = solve_task_cost(part, s);
    path[i] += cost;
    fw.add_task(exec::TaskKind::fwd_solve, cost, level[i], path[i]);
    for_each_target(s, [&](index_t target) {
      const auto j = static_cast<std::size_t>(target);
      path[j] = std::max(path[j], path[i]);
      level[j] = std::max(level[j], level[i] + 1);
      fw.add_edges(1);
    });
  }

  // Backward: the same edges reversed, so descending ids are a
  // topological order and each task pulls from its forward targets.
  exec::GraphStatsBuilder bw;
  for (index_t s = nsup - 1; s >= 0; --s) {
    const auto i = static_cast<std::size_t>(s);
    double in = 0.0;
    std::int64_t lvl = 0;
    for_each_target(s, [&](index_t target) {
      const auto j = static_cast<std::size_t>(target);
      in = std::max(in, path[j]);
      lvl = std::max(lvl, level[j] + 1);
      bw.add_edges(1);
    });
    const double cost = solve_task_cost(part, s);
    path[i] = in + cost;
    level[i] = lvl;
    bw.add_task(exec::TaskKind::bwd_solve, cost, lvl, path[i]);
  }
  return {fw.finish(), bw.finish()};
}

}  // namespace sparts::partrisolve
