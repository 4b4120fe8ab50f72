// E18 — task-DAG backend vs thread backend on irregular elimination trees.
//
// Both backends run the *same* SPMD programs (parallel multifrontal
// factorization; pipelined forward+backward trisolve) and produce
// bit-identical numbers; what differs is how the p ranks are executed:
//
//   * threads — one OS thread per rank.  Every blocked recv parks the
//     thread on a condvar, and every matching send pays a kernel wakeup
//     plus a scheduler migration.  With p ranks on few cores the run is
//     mostly handoffs.
//   * tasks — every rank is a fiber multiplexed on a work-stealing worker
//     pool (as many workers as cores).  A blocked recv suspends the fiber
//     in user space and the matching send resumes it on the sender's
//     worker: the handoff is a context switch, not a kernel round trip.
//
// The two irregular workloads below give the schedule little slack and
// the ranks almost no flops, so what they time is the backends' own
// cost:
//
//   * chain — a tridiagonal matrix in natural order: the etree is a path,
//     every supernode has width 1, and the root path is shared by the
//     whole group.  Each of those trapezoids fits in one block, so the
//     group's first rank holds it whole and no phase sends a message:
//     that rank runs every kernel while the others only pass over the
//     supernodes, so the rows time rank start-up and the walk itself.
//   * wide-flat — a block-diagonal forest of small chains: thousands of
//     independent tiny supernodes, so the cost is almost pure task
//     dispatch.
//
// A nested-dissection grid rides along as the regular-etree control.
// Reported per (workload, p): best-of-k wall seconds per backend for the
// factorization and the forward+backward solve, and the tasks-over-threads
// speedups.  JSON lands in BENCH_taskdag.json (tools/bench_gate.py keeps
// the speedups honest in CI).
#include <algorithm>
#include <thread>

#include "bench_common.hpp"
#include "exec/stats.hpp"
#include "exec/task_backend.hpp"
#include "exec/thread_backend.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "parfact/parfact.hpp"

namespace sparts::bench {
namespace {

// chain_matrix / wide_flat_matrix / prepare_natural live in
// bench_common.hpp, shared with bench/e2e's chain workload.

/// Wall seconds of one parallel multifrontal factorization on `comm`.
double factor_time(const PreparedProblem& prob, exec::Comm& comm) {
  const mapping::SubcubeMapping map = mapping::subtree_to_subcube(
      prob.part, comm.nprocs(), mapping::factor_work_weights(prob.part));
  numeric::SupernodalFactor factor;
  const parfact::Report report =
      parfact::parallel_multifrontal(comm, prob.a, prob.part, map, factor);
  return report.time();
}

/// Wall seconds of one pipelined forward+backward solve on `comm`.  If
/// `copied` is non-null it receives the bytes the backend memcpy'd on the
/// message path (the zero-copy handoff lane keeps this near zero).
double solve_time(const PreparedProblem& prob, exec::Comm& comm, index_t m,
                  nnz_t* copied = nullptr) {
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(prob.part, comm.nprocs());
  partrisolve::DistributedTrisolver solver(prob.factor, map, {});
  const index_t n = prob.a.n();
  Rng rng(1234);
  std::vector<real_t> b = sparse::random_rhs(n, m, rng);
  std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
  auto [fw, bw] = solver.solve(comm, b, x, m);
  if (copied != nullptr) {
    *copied = fw.stats.total_bytes_copied() + bw.stats.total_bytes_copied();
  }
  return fw.time() + bw.time();
}

void run_workload(const char* etree, const PreparedProblem& prob, index_t m,
                  BenchJson& json) {
  std::cout << "\nworkload: " << prob.description << "  N = " << prob.a.n()
            << "  supernodes = " << prob.part.num_supernodes()
            << "  nrhs = " << m << "\n";
  TextTable table({"p", "fact thr (s)", "fact task (s)", "fact gain",
                   "solve thr (s)", "solve task (s)", "solve gain",
                   "solve copied MB"});
  constexpr int kReps = 3;
  for (index_t p = 8; p <= std::min<index_t>(bench_max_p(), 16); p *= 2) {
    double fact_thr = 0.0, fact_task = 0.0;
    double solve_thr = 0.0, solve_task = 0.0;
    nnz_t solve_copied = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      {
        exec::ThreadBackend::Config cfg;
        cfg.nprocs = p;
        exec::ThreadBackend backend(cfg);
        const double ft = factor_time(prob, backend);
        const double st = solve_time(prob, backend, m, &solve_copied);
        fact_thr = rep == 0 ? ft : std::min(fact_thr, ft);
        solve_thr = rep == 0 ? st : std::min(solve_thr, st);
      }
      {
        exec::TaskBackend::Config cfg;
        cfg.nprocs = p;
        exec::TaskBackend backend(cfg);
        const double ft = factor_time(prob, backend);
        const double st = solve_time(prob, backend, m);
        fact_task = rep == 0 ? ft : std::min(fact_task, ft);
        solve_task = rep == 0 ? st : std::min(solve_task, st);
      }
    }
    table.new_row();
    table.add(static_cast<long long>(p));
    table.add(fact_thr, 5);
    table.add(fact_task, 5);
    table.add(exec::speedup(fact_thr, fact_task), 2);
    table.add(solve_thr, 5);
    table.add(solve_task, 5);
    table.add(exec::speedup(solve_thr, solve_task), 2);
    table.add(static_cast<double>(solve_copied) / (1024.0 * 1024.0), 3);
    json.row()
        .field("workload", prob.description)
        .field("etree", std::string(etree))
        .field("n", prob.a.n())
        .field("supernodes", prob.part.num_supernodes())
        .field("nrhs", m)
        .field("p", p)
        .field("factor_threads_seconds", fact_thr)
        .field("factor_tasks_seconds", fact_task)
        .field("factor_tasks_speedup", exec::speedup(fact_thr, fact_task))
        .field("solve_threads_seconds", solve_thr)
        .field("solve_tasks_seconds", solve_task)
        .field("solve_tasks_speedup", exec::speedup(solve_thr, solve_task))
        .field("solve_copied_mb",
               static_cast<double>(solve_copied) / (1024.0 * 1024.0));
  }
  std::cout << table;
}

void run() {
  print_header("E18 (taskdag)",
               "fiber task-DAG backend vs one-thread-per-rank on irregular "
               "etrees");
  std::cout << "hardware threads on this host: "
            << std::thread::hardware_concurrency() << "\n";
  const double scale = bench_scale();
  BenchJson json("taskdag", "SPARTS_BENCH_TASKDAG_JSON");

  const index_t chain_n =
      std::max<index_t>(600, static_cast<index_t>(4000 * scale));
  run_workload("chain",
               prepare_natural("chain",
                               "chain " + std::to_string(chain_n),
                               chain_matrix(chain_n)),
               4, json);

  const index_t blocks =
      std::max<index_t>(32, static_cast<index_t>(192 * scale));
  const index_t bs = 16;
  run_workload(
      "wide-flat",
      prepare_natural("wideflat",
                      "wide-flat " + std::to_string(blocks) + "x" +
                          std::to_string(bs),
                      wide_flat_matrix(blocks, bs)),
      4, json);

  const index_t k = std::max<index_t>(31, static_cast<index_t>(63 * scale));
  run_workload("grid-nd", prepare_grid(k, k), 4, json);

  json.write();
  std::cout << "\nReading: 'gain' columns are thread-backend wall clock over "
               "task-backend wall\nclock for the identical SPMD program "
               "(both backends produce bit-identical\nnumbers).  The chain "
               "and wide-flat rows are the irregular etrees the task\n"
               "backend exists for; the grid row is the regular-etree "
               "control.\n";
}

}  // namespace
}  // namespace sparts::bench

int main() { sparts::bench::run(); }
