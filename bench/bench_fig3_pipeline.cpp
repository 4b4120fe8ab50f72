// E3 — Figure 3: progression of pipelined forward elimination in a
// hypothetical trapezoidal supernode.
//
// Part 1 reproduces the figure's three schedule matrices (EREW-PRAM,
// row-priority, column-priority; communication ignored, one time unit per
// box) from the actual data dependencies.
//
// Part 2 validates the paper's communication-step count on the real
// simulator: processing an n x t trapezoid on q processors with block
// size b takes q + t/b - 1 pipeline communication steps.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "partrisolve/dense_trisolve.hpp"
#include "simpar/machine.hpp"

namespace sparts::bench {
namespace {

/// Dependency-driven schedule of the trapezoid boxes, one unit per box.
/// mode: 0 = EREW (one processor per row), 1 = row-priority on q procs,
/// 2 = column-priority on q procs.  Returns step[i][k] (1-based; 0 where
/// no box exists).
std::vector<std::vector<index_t>> schedule(index_t n, index_t t, index_t q,
                                           int mode) {
  std::vector<std::vector<index_t>> step(
      static_cast<std::size_t>(n),
      std::vector<index_t>(static_cast<std::size_t>(t), 0));
  // token_ready[k]: completion time of the diagonal box (k, k).
  std::vector<index_t> token_ready(static_cast<std::size_t>(t), 0);

  if (mode == 0) {
    // One processor per row: box (i,k) waits for its left neighbor in the
    // same row and for x_k.
    for (index_t i = 0; i < n; ++i) {
      index_t clock = 0;
      for (index_t k = 0; k <= std::min(i, t - 1); ++k) {
        clock = std::max(clock, k < i ? token_ready[static_cast<std::size_t>(k)]
                                      : clock) +
                1;
        step[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] = clock;
        if (i == k) token_ready[static_cast<std::size_t>(k)] = clock;
      }
    }
    return step;
  }

  // q processors, cyclic row mapping; each processor executes its boxes
  // in the given priority order, stalling on unavailable tokens.
  std::vector<index_t> clock(static_cast<std::size_t>(q), 0);
  struct Box {
    index_t i, k;
  };
  // Build per-processor program.
  std::vector<std::vector<Box>> program(static_cast<std::size_t>(q));
  if (mode == 1) {  // row priority: my rows ascending, columns inside
    for (index_t i = 0; i < n; ++i) {
      for (index_t k = 0; k <= std::min(i, t - 1); ++k) {
        program[static_cast<std::size_t>(i % q)].push_back({i, k});
      }
    }
  } else {  // column priority: columns ascending, my rows inside
    for (index_t k = 0; k < t; ++k) {
      for (index_t i = k; i < n; ++i) {
        program[static_cast<std::size_t>(i % q)].push_back({i, k});
      }
    }
  }
  // Execute: repeatedly advance the runnable processor whose next box can
  // start earliest (deterministic ties by rank).
  std::vector<std::size_t> pc(static_cast<std::size_t>(q), 0);
  bool progress = true;
  while (progress) {
    progress = false;
    index_t best = -1;
    index_t best_start = 0;
    for (index_t r = 0; r < q; ++r) {
      if (pc[static_cast<std::size_t>(r)] >=
          program[static_cast<std::size_t>(r)].size()) {
        continue;
      }
      const Box b = program[static_cast<std::size_t>(r)]
                           [pc[static_cast<std::size_t>(r)]];
      // Box (i,k) with i > k needs token k; the diagonal box needs all its
      // row's earlier boxes, which program order already guarantees.
      index_t ready = clock[static_cast<std::size_t>(r)];
      if (b.i > b.k) {
        if (token_ready[static_cast<std::size_t>(b.k)] == 0) continue;
        ready = std::max(ready, token_ready[static_cast<std::size_t>(b.k)]);
      }
      if (best == -1 || ready < best_start) {
        best = r;
        best_start = ready;
      }
    }
    if (best == -1) break;
    auto& p = pc[static_cast<std::size_t>(best)];
    const Box b = program[static_cast<std::size_t>(best)][p];
    ++p;
    const index_t done = best_start + 1;
    clock[static_cast<std::size_t>(best)] = done;
    step[static_cast<std::size_t>(b.i)][static_cast<std::size_t>(b.k)] = done;
    if (b.i == b.k) token_ready[static_cast<std::size_t>(b.k)] = done;
    progress = true;
  }
  return step;
}

void print_schedule(const char* title,
                    const std::vector<std::vector<index_t>>& step, index_t q) {
  std::cout << "\n" << title << " (rows cyclic on " << q << " procs):\n";
  for (std::size_t i = 0; i < step.size(); ++i) {
    std::cout << "P" << i % static_cast<std::size_t>(q) << "  ";
    for (index_t v : step[i]) {
      if (v == 0) {
        std::cout << "  .";
      } else {
        std::cout << (v < 10 ? "  " : " ") << v;
      }
    }
    std::cout << '\n';
  }
}

void run() {
  print_header("E3 (Figure 3)", "pipelined forward elimination schedules");
  const index_t n = 16, t = 8, q = 4;
  print_schedule("(a) EREW-PRAM, unlimited processors", schedule(n, t, n, 0),
                 n);
  print_schedule("(b) row-priority pipelined", schedule(n, t, q, 1), q);
  print_schedule("(c) column-priority pipelined", schedule(n, t, q, 2), q);

  std::cout << "\nCommunication-step law on the simulator: a dense n x n "
               "triangle on q processors\nwith block size b uses q + n/b - "
               "1 pipeline steps (paper §3.1):\n";
  TextTable table({"q", "n", "b", "tokens (n/b)", "measured steps",
                   "q + n/b - 1", "ratio"});
  exec::CostModel unit = exec::CostModel::unit_comm();
  for (index_t q2 : {2, 4, 8}) {
    for (index_t b : {4, 8}) {
      const index_t n2 = 64;
      dense::Matrix l(n2, n2);
      for (index_t j = 0; j < n2; ++j) {
        for (index_t i = j; i < n2; ++i) l(i, j) = i == j ? 2.0 : 0.1;
      }
      std::vector<real_t> rhs(static_cast<std::size_t>(n2), 1.0);
      simpar::Machine::Config cfg;
      cfg.nprocs = q2;
      cfg.cost = unit;
      cfg.cost.t_w = 0.0;  // steps = startups only
      cfg.topology = exec::TopologyKind::fully_connected;
      simpar::Machine machine(cfg);
      auto stats =
          partrisolve::dense_parallel_forward(machine, l, rhs, 1, b);
      // With t_s = 1 and everything else free, the makespan in "steps" is
      // the pipeline depth.
      table.new_row();
      table.add(static_cast<long long>(q2));
      table.add(static_cast<long long>(n2));
      table.add(static_cast<long long>(b));
      table.add(static_cast<long long>(n2 / b));
      table.add(stats.parallel_time(), 0);
      table.add(static_cast<long long>(q2 + n2 / b - 1));
      table.add(stats.parallel_time() /
                    static_cast<double>(q2 + n2 / b - 1),
                2);
    }
  }
  std::cout << table;
  std::cout << "\nMeasured steps track q + t/b - 1 within a factor of two: "
               "the simulator charges both\nthe sender occupancy and the "
               "in-flight latency of each hop (two startups per\npipeline "
               "stage), where the paper's model counts one.  The scaling in "
               "q and t/b —\nthe content of the law — matches.\n";
}

}  // namespace
}  // namespace sparts::bench

int main() {
  sparts::bench::run();
  return 0;
}
