// E15 — real threads vs. the simulator: the same DistributedTrisolver
// source runs on exec::ThreadBackend (one std::thread per rank, wall-clock
// times) and on simpar::Machine (predicted T3D seconds).  Reported per
// processor count:
//   * measured wall-clock forward+backward time and speedup over 1 thread
//     (best of several repetitions — wall clocks are noisy);
//   * the simulator's predicted time and speedup for the same program.
//
// The wall-clock speedup is bounded by the physical cores of this host
// (printed in the header): on a single-core container every thread count
// serializes, while the predicted column shows what a T3D-like machine
// achieves.  Workload: nested-dissection-ordered k x k grid, multi-RHS —
// the paper's fig. 7/8 setting (default 127 x 127, m = 30; scaled by
// SPARTS_BENCH_SCALE like every other bench).
#include <algorithm>
#include <thread>

#include "dense/kernels.hpp"
#include "exec/stats.hpp"
#include "exec/task_backend.hpp"
#include "exec/thread_backend.hpp"
#include "bench_common.hpp"

namespace sparts::bench {
namespace {

/// Forward+backward wall/virtual time of one solve on `comm`.  Each
/// substitution phase is bracketed with the phase profiler, so the JSON
/// emitter's "phases" array carries the per-phase times and per-rank
/// compute/send/idle splits behind every table cell.
double solve_time(const PreparedProblem& prob, exec::Comm& comm, index_t m,
                  nnz_t* copied = nullptr) {
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(prob.part, comm.nprocs());
  partrisolve::DistributedTrisolver solver(prob.factor, map, {});
  const index_t n = prob.a.n();
  Rng rng(1234);
  std::vector<real_t> b = sparse::random_rhs(n, m, rng);
  std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
  std::vector<real_t> y(static_cast<std::size_t>(n * m), 0.0);
  double fw_time = 0.0, bw_time = 0.0;
  if (copied != nullptr) *copied = 0;
  {
    obs::PhaseScope phase("forward");
    const partrisolve::PhaseReport fw = solver.forward(comm, b, y, m);
    phase.set_parallel(exec::to_phase_stats(fw.stats));
    fw_time = fw.time();
    if (copied != nullptr) *copied += fw.stats.total_bytes_copied();
  }
  {
    obs::PhaseScope phase("backward");
    const partrisolve::PhaseReport bw = solver.backward(comm, y, x, m);
    phase.set_parallel(exec::to_phase_stats(bw.stats));
    bw_time = bw.time();
    if (copied != nullptr) *copied += bw.stats.total_bytes_copied();
  }
  return fw_time + bw_time;
}

void run_grid(index_t k, index_t m, BenchJson& json) {
  PreparedProblem prob = prepare_grid(k, k);
  std::cout << "\nworkload: " << prob.description << "  N = " << prob.a.n()
            << "  nrhs = " << m << "  nnz(L) = " << prob.factor_nnz
            << "\nhardware threads on this host: "
            << std::thread::hardware_concurrency() << "\n";

  // Wall clocks are measured twice per processor count: once with the
  // reference kernels ("before") and once with the tiled kernels
  // ("after"), so this bench doubles as the end-to-end record of what
  // the kernel rewrite buys on a real host.  The simulator column is
  // kernel-independent (its cost model charges the identical flop
  // counts both implementations return).
  TextTable table({"p", "wall ref (s)", "wall tiled (s)", "kern gain",
                   "wall speedup", "wall tasks (s)", "task gain",
                   "copied MB", "sim fb (s)", "sim speedup"});
  constexpr int kReps = 3;
  const dense::KernelImpl saved_impl = dense::kernel_impl();
  double wall1 = 0.0, sim1 = 0.0;
  for (index_t p = 1; p <= std::min<index_t>(bench_max_p(), 8); p *= 2) {
    double wall_ref = 0.0, wall_tiled = 0.0;
    nnz_t copied = 0;
    for (const auto impl :
         {dense::KernelImpl::reference, dense::KernelImpl::tiled}) {
      dense::set_kernel_impl(impl);
      double wall = 0.0;
      for (int rep = 0; rep < kReps; ++rep) {
        exec::ThreadBackend::Config cfg;
        cfg.nprocs = p;
        exec::ThreadBackend backend(cfg);
        const double t = solve_time(prob, backend, m, &copied);
        wall = rep == 0 ? t : std::min(wall, t);
      }
      (impl == dense::KernelImpl::reference ? wall_ref : wall_tiled) = wall;
    }
    // Same program on the fiber task-DAG backend (tiled kernels): ranks
    // multiplex onto a worker pool sized to the host's cores instead of
    // one OS thread each, so blocked recvs cost a user-space context
    // switch rather than a kernel wakeup.
    double wall_tasks = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      exec::TaskBackend::Config cfg;
      cfg.nprocs = p;
      exec::TaskBackend backend(cfg);
      const double t = solve_time(prob, backend, m);
      wall_tasks = rep == 0 ? t : std::min(wall_tasks, t);
    }
    dense::set_kernel_impl(saved_impl);
    simpar::Machine machine(t3d_config(p));
    const double sim = solve_time(prob, machine, m);
    if (p == 1) {
      wall1 = wall_tiled;
      sim1 = sim;
    }
    table.new_row();
    table.add(static_cast<long long>(p));
    table.add(wall_ref, 5);
    table.add(wall_tiled, 5);
    table.add(exec::speedup(wall_ref, wall_tiled), 2);
    table.add(exec::speedup(wall1, wall_tiled), 2);
    table.add(wall_tasks, 5);
    table.add(exec::speedup(wall_tiled, wall_tasks), 2);
    table.add(static_cast<double>(copied) / (1024.0 * 1024.0), 3);
    table.add(sim, 5);
    table.add(exec::speedup(sim1, sim), 2);
    json.row()
        .field("workload", prob.description)
        .field("n", prob.a.n())
        .field("nrhs", m)
        .field("p", p)
        .field("wall_ref_seconds", wall_ref)
        .field("wall_tiled_seconds", wall_tiled)
        .field("kernel_gain", exec::speedup(wall_ref, wall_tiled))
        .field("wall_speedup", exec::speedup(wall1, wall_tiled))
        .field("wall_tasks_seconds", wall_tasks)
        .field("tasks_gain", exec::speedup(wall_tiled, wall_tasks))
        .field("copied_mb", static_cast<double>(copied) / (1024.0 * 1024.0))
        .field("sim_seconds", sim)
        .field("sim_speedup", exec::speedup(sim1, sim));
  }
  std::cout << table;
}

void run() {
  print_header("E15 (real vs sim)",
               "threaded backend wall clock vs simulator prediction");
  const double scale = bench_scale();
  const index_t k = std::max<index_t>(15, static_cast<index_t>(127 * scale));
  BenchJson json("real_vs_sim", "SPARTS_BENCH_REAL_VS_SIM_JSON");
  run_grid(k, 30, json);
  run_grid(k, 1, json);
  json.write();
  std::cout << "\nReading: 'kern gain' is wall clock with reference kernels "
               "over tiled kernels\n(same program, same thread count); 'wall "
               "speedup' is real concurrency on this\nhost (ceiling = "
               "physical cores); 'task gain' is thread-backend wall clock\n"
               "over the fiber task-DAG backend for the identical program "
               "(rank handoffs\nbecome user-space switches, so the gain "
               "grows with p); 'sim speedup' is the\ndeterministic T3D "
               "prediction (kernel-independent).  'copied MB' is what "
               "the\nmessage path memcpy'd end to end (the zero-copy "
               "handoff lane keeps it to the\nsub-threshold messages).  "
               "bench_taskdag times the chain and wide-flat etrees\non "
               "both backends.  Set SPARTS_BENCH_SCALE=1.0 for the full "
               "127 x 127 grid.\n";
}

}  // namespace
}  // namespace sparts::bench

int main() { sparts::bench::run(); }
