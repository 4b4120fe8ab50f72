// E20 — observability cost and the executed-DAG critical path.
//
// Two questions, one binary:
//
//   1. What does *recording* cost?  The tracer's claim is that an enabled
//      run stays within a few percent of an untraced run (the exporter is
//      paid once at exit, outside any timed region).  Measured here as
//      median wall seconds of an identical tasks-backend factorization +
//      pipelined solve with tracing off vs. tracing on — JSON export
//      deliberately excluded, matching how a traced solve is used.
//      tools/bench_gate.py holds trace_overhead_pct under an absolute
//      ceiling in CI.
//
//   2. What did the schedule actually cost?  The tasks backend records
//      the executed fiber-segment DAG (measured span times, sequential +
//      wake edges); obs::critical_path() reduces it to T1, T-inf, the
//      greedy bound T1/p + T-inf, and the measured makespan.  The cp_*
//      row keeps those numbers in BENCH_obs.json so regressions in the
//      *analyzer* (empty profiles, zero spans, broken edges) are caught,
//      not just regressions in the runtime.
#include <algorithm>

#include "bench_common.hpp"
#include "exec/task_backend.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "parfact/parfact.hpp"

namespace sparts::bench {
namespace {

/// One full tasks-backend workload: parallel factorization plus the
/// pipelined forward+backward solve.  Returns wall seconds (backend
/// times, which are wall clock for this backend).
double run_workload(const PreparedProblem& prob, exec::TaskBackend& backend,
                    index_t m) {
  const mapping::SubcubeMapping fact_map = mapping::subtree_to_subcube(
      prob.part, backend.nprocs(), mapping::factor_work_weights(prob.part));
  numeric::SupernodalFactor factor;
  const parfact::Report report = parfact::parallel_multifrontal(
      backend, prob.a, prob.part, fact_map, factor);

  const mapping::SubcubeMapping solve_map =
      mapping::subtree_to_subcube(prob.part, backend.nprocs());
  partrisolve::DistributedTrisolver solver(prob.factor, solve_map, {});
  const index_t n = prob.a.n();
  Rng rng(1234);
  std::vector<real_t> b = sparse::random_rhs(n, m, rng);
  std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
  auto [fw, bw] = solver.solve(backend, b, x, m);
  return report.time() + fw.time() + bw.time();
}

/// Best-of-reps: wall-time noise is one-sided (interrupts, migrations,
/// cpufreq only ever add time), so the minimum is the stable estimator —
/// same policy as bench_taskdag's best-of-k.
double best(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

}  // namespace
}  // namespace sparts::bench

int main() {
  using namespace sparts;
  using namespace sparts::bench;

  print_header("E20", "observability: tracing overhead and executed "
                      "critical path (tasks backend)");
  BenchJson json("obs", "SPARTS_BENCH_OBS_JSON");

  // 3-D grid: the compute-to-message ratio of the factorization is what
  // a production solve looks like, which is the regime the <5% recording
  // overhead claim is about.  (A chain workload is nearly pure message
  // traffic and would measure the per-event cost, not the overhead.)
  const index_t k = std::max<index_t>(
      16, static_cast<index_t>(32 * bench_scale()));
  const PreparedProblem prob = prepare_grid(k, k, k);
  const index_t p = 8;
  const index_t m = 4;
  constexpr int kReps = 7;

  exec::TaskBackend::Config cfg;
  cfg.nprocs = p;
  exec::TaskBackend backend(cfg);

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.disable();
  run_workload(prob, backend, m);  // warm up pools and caches
  tracer.enable();
  run_workload(prob, backend, m);  // first traced run allocates buffers

  // Interleave the two configurations so slow machine drift (thermal,
  // cpufreq, noisy neighbours) lands on both sides of the ratio instead
  // of biasing whichever block ran second.
  std::vector<double> base, traced;
  for (int rep = 0; rep < kReps; ++rep) {
    tracer.disable();
    base.push_back(run_workload(prob, backend, m));
    tracer.enable();
    // No clear() between reps: it would free the per-track rings and
    // make the next traced run re-fault them mid-measurement.  The
    // drop-oldest ring bounds memory by itself.
    traced.push_back(run_workload(prob, backend, m));
  }
  tracer.disable();
  tracer.clear();

  const double base_s = best(base);
  const double traced_s = best(traced);
  const double overhead_pct =
      base_s > 0.0 ? (traced_s - base_s) / base_s * 100.0 : 0.0;

  std::cout << "\nworkload: " << prob.description << "  N = " << prob.a.n()
            << "  p = " << p << "  nrhs = " << m << "\n";
  TextTable table({"reps", "untraced (s)", "traced (s)", "overhead %"});
  table.new_row();
  table.add(static_cast<long long>(kReps));
  table.add(base_s, 5);
  table.add(traced_s, 5);
  table.add(overhead_pct, 2);
  std::cout << table.str();

  json.row()
      .field("workload", prob.description)
      .field("p", p)
      .field("nrhs", m)
      .field("reps", static_cast<long long>(kReps))
      .field("base_seconds", base_s)
      .field("traced_seconds", traced_s)
      .field("trace_overhead_pct", overhead_pct);

  // Critical path of the last executed run (the final traced solve run's
  // profile survives in the backend).  Re-run once untraced so the
  // profile reflects a recording-free execution.
  run_workload(prob, backend, m);
  const obs::CriticalPathReport cp = obs::critical_path(
      backend.last_executed_profile(), backend.last_scheduler_stats().workers);
  std::cout << "\nexecuted critical path (last solve phase):\n"
            << "  spans " << cp.spans << "  edges " << cp.edges << "  T1 "
            << format_fixed(cp.t1, 5) << " s  T-inf "
            << format_fixed(cp.t_inf, 5) << " s\n"
            << "  makespan " << format_fixed(cp.makespan, 5) << " s  bound "
            << format_fixed(cp.span_bound, 5) << " s  parallelism "
            << format_fixed(cp.avg_parallelism, 2) << "  path "
            << cp.path.size() << " segments\n";

  json.row()
      .field("workload", prob.description)
      .field("cp_spans", static_cast<long long>(cp.spans))
      .field("cp_edges", static_cast<long long>(cp.edges))
      .field("cp_t1", cp.t1)
      .field("cp_t_inf", cp.t_inf)
      .field("cp_makespan", cp.makespan)
      .field("cp_span_bound", cp.span_bound)
      .field("cp_parallelism", cp.avg_parallelism)
      .field("cp_slack", cp.slack)
      .field("cp_path_segments", static_cast<long long>(cp.path.size()));

  json.write();
  return 0;
}
