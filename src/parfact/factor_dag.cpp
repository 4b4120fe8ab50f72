#include "parfact/factor_dag.hpp"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "common/checks.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "dense/kernels.hpp"
#include "ordering/etree.hpp"

namespace sparts::parfact {

namespace {

/// Per-worker front-position scratch (size n, all -1 between uses).  Tasks
/// are non-preemptive on their worker thread, so thread-local storage is
/// safe, and factor_supernode_panel restores the -1 invariant on return.
std::vector<index_t>& pos_scratch(index_t n) {
  thread_local std::vector<index_t> scratch;
  if (static_cast<index_t>(scratch.size()) < n) {
    scratch.assign(static_cast<std::size_t>(n), -1);
  }
  return scratch;
}

void atomic_max(std::atomic<nnz_t>& target, nnz_t value) {
  nnz_t cur = target.load(std::memory_order_relaxed);
  while (cur < value &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

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

exec::TaskGraph build_factor_dag(const symbolic::SupernodePartition& part) {
  exec::TaskGraph g;
  const index_t nsup = part.num_supernodes();
  std::vector<exec::TaskId> factor_task(static_cast<std::size_t>(nsup));
  std::vector<exec::TaskId> update_task(static_cast<std::size_t>(nsup), -1);
  for (index_t s = 0; s < nsup; ++s) {
    const index_t t = part.width(s);
    const index_t ns = part.height(s);
    const index_t b = ns - t;
    exec::TaskNode fnode;
    fnode.label = "factor:" + std::to_string(s);
    fnode.kind = exec::TaskKind::panel_factor;
    fnode.cost = static_cast<double>(dense::cholesky_panel_flops(ns, t));
    fnode.item = s;
    factor_task[static_cast<std::size_t>(s)] = g.add_task(std::move(fnode));
    if (b > 0) {
      exec::TaskNode unode;
      unode.label = "update:" + std::to_string(s);
      unode.kind = exec::TaskKind::update;
      unode.cost = static_cast<double>(
          dense::syrk_flops(b, b, t, /*lower_only=*/true));
      unode.item = s;
      update_task[static_cast<std::size_t>(s)] = g.add_task(std::move(unode));
      g.add_edge(factor_task[static_cast<std::size_t>(s)],
                 update_task[static_cast<std::size_t>(s)]);
    }
  }
  for (index_t s = 0; s < nsup; ++s) {
    const index_t parent = part.stree.parent[static_cast<std::size_t>(s)];
    if (parent == -1) continue;
    const exec::TaskId u = update_task[static_cast<std::size_t>(s)];
    // A supernode with no below rows contributes nothing to its parent's
    // front, so there is no data dependency to encode.
    if (u != -1) g.add_edge(u, factor_task[static_cast<std::size_t>(parent)]);
  }
  return g;
}

numeric::SupernodalFactor taskdag_factor(
    const sparse::SymmetricCsc& a, const symbolic::SupernodePartition& part,
    const exec::TaskScheduler::Config& workers, TaskFactorReport* report) {
  SPARTS_CHECK(part.n() == a.n(), "partition does not match matrix");
  const index_t nsup = part.num_supernodes();
  const index_t n = part.n();

  numeric::SupernodalFactor factor(part);
  auto children = ordering::tree_children(part.stree);
  std::vector<numeric::UpdateMatrix> updates(static_cast<std::size_t>(nsup));
  std::vector<std::vector<real_t>> fronts(static_cast<std::size_t>(nsup));

  std::atomic<nnz_t> flops{0};
  std::atomic<nnz_t> peak_front{0};
  std::atomic<nnz_t> stack_entries{0};
  std::atomic<nnz_t> peak_stack{0};

  exec::TaskGraph g = build_factor_dag(part);
  for (exec::TaskId id = 0; id < g.num_tasks(); ++id) {
    exec::TaskNode& node = g.node(id);
    const index_t s = node.item;
    if (node.kind == exec::TaskKind::panel_factor) {
      node.body = [&, s] {
        auto& front = fronts[static_cast<std::size_t>(s)];
        const auto& ch = children[static_cast<std::size_t>(s)];
        for (index_t c : ch) {
          stack_entries.fetch_sub(
              static_cast<nnz_t>(
                  updates[static_cast<std::size_t>(c)].values.size()),
              std::memory_order_relaxed);
        }
        flops.fetch_add(
            numeric::factor_supernode_panel(a, part, s, ch, updates, factor,
                                            front, pos_scratch(n)),
            std::memory_order_relaxed);
        atomic_max(peak_front, static_cast<nnz_t>(front.size()));
        // Leaf of the fine DAG (no trailing block): the front is final and
        // nothing downstream reads it.
        if (part.height(s) == part.width(s)) front = {};
      };
    } else {
      node.body = [&, s] {
        auto& front = fronts[static_cast<std::size_t>(s)];
        numeric::UpdateMatrix u;
        flops.fetch_add(numeric::supernode_schur_update(part, s, front, &u),
                        std::memory_order_relaxed);
        front = {};  // the Schur complement now lives in `u`
        const nnz_t added = static_cast<nnz_t>(u.values.size());
        updates[static_cast<std::size_t>(s)] = std::move(u);
        atomic_max(peak_stack, stack_entries.fetch_add(
                                   added, std::memory_order_relaxed) +
                                   added);
      };
    }
  }

  WallTimer timer;
  exec::TaskScheduler scheduler(workers);
  scheduler.run_graph(g);
  const double seconds = timer.seconds();

  if (report != nullptr) {
    report->graph = g.analyze();
    report->scheduler = scheduler.stats();
    report->stats.flops = flops.load(std::memory_order_relaxed);
    report->stats.peak_front_entries =
        peak_front.load(std::memory_order_relaxed);
    report->stats.peak_stack_entries =
        peak_stack.load(std::memory_order_relaxed);
    report->seconds = seconds;
  }
  return factor;
}

}  // namespace sparts::parfact
