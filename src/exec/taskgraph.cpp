#include "exec/taskgraph.hpp"

#include <algorithm>
#include <queue>
#include <utility>

namespace sparts::exec {

const char* to_string(TaskKind kind) {
  switch (kind) {
    case TaskKind::generic:
      return "generic";
    case TaskKind::panel_factor:
      return "panel_factor";
    case TaskKind::update:
      return "update";
    case TaskKind::fwd_solve:
      return "fwd_solve";
    case TaskKind::bwd_solve:
      return "bwd_solve";
  }
  return "generic";
}

TaskId TaskGraph::add_task(TaskNode node) {
  SPARTS_CHECK(node.cost >= 0.0, "task cost must be non-negative");
  const TaskId id = num_tasks();
  nodes_.push_back(std::move(node));
  succ_.emplace_back();
  indegree_.push_back(0);
  return id;
}

TaskId TaskGraph::add_task(std::string label, std::function<void()> body,
                           TaskKind kind, double cost) {
  TaskNode node;
  node.label = std::move(label);
  node.body = std::move(body);
  node.kind = kind;
  node.cost = cost;
  return add_task(std::move(node));
}

void TaskGraph::add_edge(TaskId from, TaskId to) {
  SPARTS_CHECK(from >= 0 && from < num_tasks(), "edge source out of range");
  SPARTS_CHECK(to >= 0 && to < num_tasks(), "edge target out of range");
  SPARTS_CHECK(from != to, "self-edge in task graph");
  auto& succ = succ_[static_cast<std::size_t>(from)];
  if (std::find(succ.begin(), succ.end(), to) != succ.end()) return;
  succ.push_back(to);
  ++indegree_[static_cast<std::size_t>(to)];
  ++num_edges_;
}

std::vector<TaskId> TaskGraph::topo_schedule() const {
  const index_t n = num_tasks();
  std::vector<index_t> pending(indegree_.begin(), indegree_.end());
  // Min-heap over ready ids: deterministic output independent of the
  // order edges were added.
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
  for (TaskId id = 0; id < n; ++id) {
    if (pending[static_cast<std::size_t>(id)] == 0) ready.push(id);
  }
  std::vector<TaskId> order;
  order.reserve(static_cast<std::size_t>(n));
  while (!ready.empty()) {
    const TaskId id = ready.top();
    ready.pop();
    order.push_back(id);
    for (const TaskId s : succ_[static_cast<std::size_t>(id)]) {
      if (--pending[static_cast<std::size_t>(s)] == 0) ready.push(s);
    }
  }
  SPARTS_CHECK(static_cast<index_t>(order.size()) == n,
               "task graph contains a cycle");
  return order;
}

void GraphStatsBuilder::add_task(TaskKind kind, double cost,
                                 std::int64_t level, double path_cost) {
  ++st_.tasks;
  st_.total_cost += cost;
  ++st_.kind_counts[static_cast<std::size_t>(kind)];
  st_.critical_path_cost = std::max(st_.critical_path_cost, path_cost);
  st_.depth = std::max(st_.depth, level + 1);
  if (static_cast<std::int64_t>(width_.size()) <= level) {
    width_.resize(static_cast<std::size_t>(level) + 1, 0);
  }
  ++width_[static_cast<std::size_t>(level)];
}

GraphStats GraphStatsBuilder::finish() const {
  GraphStats st = st_;
  for (const std::int64_t w : width_) st.max_width = std::max(st.max_width, w);
  st.avg_parallelism = st.critical_path_cost > 0.0
                           ? st.total_cost / st.critical_path_cost
                           : 0.0;
  return st;
}

GraphStats TaskGraph::analyze() const {
  GraphStatsBuilder stats;
  stats.add_edges(num_edges_);
  // Longest root-to-task chains, by cost and by task count, in one sweep.
  std::vector<double> path_cost(nodes_.size(), 0.0);
  std::vector<std::int64_t> level(nodes_.size(), 0);
  for (const TaskId id : topo_schedule()) {
    const auto i = static_cast<std::size_t>(id);
    const TaskNode& nd = nodes_[i];
    path_cost[i] += nd.cost;
    stats.add_task(nd.kind, nd.cost, level[i], path_cost[i]);
    for (const TaskId s : succ_[i]) {
      const auto j = static_cast<std::size_t>(s);
      path_cost[j] = std::max(path_cost[j], path_cost[i]);
      level[j] = std::max(level[j], level[i] + 1);
    }
  }
  return stats.finish();
}

}  // namespace sparts::exec
