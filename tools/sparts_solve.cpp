// sparts_solve — command-line sparse SPD solver.
//
//   sparts_solve --matrix stiffness.mtx --nrhs 4 --ordering nd
//   sparts_solve --grid3d 20 --procs 64            # simulated machine
//   sparts_solve --grid2d 40 --procs 4 --backend threads --refine 2
//   sparts_solve --grid2d 100 --refine 2 --ordering md
//
// Reads a symmetric Matrix Market file (or generates a test grid),
// factors it once, solves, and prints analysis statistics, per-phase
// times and the residual.  At --procs 0 (the default) everything runs on
// the host; with --procs P the distributed pipeline runs on P ranks of
// the --backend (sim, threads, tasks or proc), in simulated seconds on
// sim and wall-clock seconds on the others.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "exec/socket_backend.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "solver/condest.hpp"
#include "solver/report.hpp"
#include "solver/sparse_solver.hpp"
#include "sparse/generators.hpp"
#include "sparse/io.hpp"
#include "trisolve/trisolve.hpp"

namespace {

using namespace sparts;

void usage() {
  std::cout <<
      R"(sparts_solve — sparse SPD direct solver (SC'95 reproduction library)

input (choose one):
  --matrix FILE.mtx     symmetric Matrix Market file (real or pattern)
  --grid2d K            K x K 5-point test grid
  --grid3d K            K x K x K 7-point test grid

options:
  --nrhs M              number of right-hand sides        (default 1)
  --ordering NAME       nd | md | rcm | natural           (default nd)
  --procs P             run the distributed pipeline on P processors
                        (default 0 = sequential host solve)
  --backend NAME        execution backend for the parallel phases
                        (default sim); registered backends:
)";
  // The backend list is generated from the solver's registry so this text
  // can never drift from what --backend actually accepts.
  for (const solver::BackendInfo& info : solver::execution_backends()) {
    std::cout << "                          " << info.name << " — "
              << info.summary << "\n";
  }
  std::cout <<
      R"(  --check               audit every phase's messages for wildcard races,
                        tag collisions, orphaned sends and deadlock cycles;
                        findings fail the run (sim, threads, tasks;
                        needs --procs P)
  --kernels NAME        tiled (cache-blocked dense kernels) | ref (naive
                        loops; conformance oracle)  (default: SPARTS_KERNELS
                        environment variable, else tiled)
  --refine N            up to N iterative-refinement sweeps toward a
                        1e-15 residual (default 0; a factorization with
                        perturbed pivots refines regardless)
  --report              print the full analysis report
  --condest             estimate the 1-norm condition number
  --amalgamate W,Z      relaxed supernodes: max width W, relax Z zeros/col

robustness (see docs/robustness.md):
  --faults SPEC         inject this fault scenario under the reliability
                        envelope (sim, threads, tasks; needs --procs P),
                        e.g.
                        seed=42,drop=0.05,dup=0.02,delay=0.1:0.01,
                        reorder=0.05,stall=2@0.5,crash=1@40,max_faults=100
  --pivot MODE          fail (throw on a non-positive pivot, default) |
                        perturb (boost tiny pivots and recover accuracy
                        with iterative refinement; result is "degraded")
  SPARTS_TIMEOUT_MS / SPARTS_MAX_RETRY tune the reliability envelope.

process backend (--backend proc; normally driven by sparts_launch):
  --proc-rank R         which rank of the P-process cohort this process is
  --proc-rendezvous DIR directory where ranks publish/find their TCP
                        endpoints (localhost cohorts)
  --proc-rankfile FILE  "RANK HOST:PORT" lines for multi-machine cohorts
                        (exactly one of the two must be given)
  --checkpoint DIR      cache the numeric factor in DIR; a re-run of the
                        same problem (matching fingerprint) skips
                        factorization and goes straight to substitution —
                        crash recovery without re-factoring
  SPARTS_HB_MS / SPARTS_SUSPECT_MS tune heartbeat failure detection;
  SPARTS_CHAOS injects wire faults (docs/robustness.md).
  exit codes: 0 solved, 1 error/residual, 2 usage, 3 structured abort.

observability:
  --trace FILE.json     record per-rank event traces and write them as
                        Chrome trace_event JSON (open in Perfetto or
                        chrome://tracing).  Timestamps are virtual
                        cost-model seconds on sim, wall seconds on
                        threads, tasks and proc.  SPARTS_TRACE=FILE.json
                        does the same; the flag wins.
  --metrics FILE.json   collect counters / gauges / histograms (message
                        sizes, kernel flop rates, per-phase splits) and
                        write them plus the phase profile as JSON
  --flight FILE.json    dump the always-on flight recorder (the last
                        SPARTS_FLIGHT_BUF events per rank) as JSON; on a
                        structured solve failure the same window is also
                        printed to stderr
  --help                this text
)";
}

/// Strict numeric argument parsing: the whole token must be a
/// non-negative integer in range.  std::stoll alone would accept "8abc"
/// and throw opaque std::invalid_argument on junk.
long long parse_count(const std::string& flag, const std::string& value) {
  std::size_t used = 0;
  long long v = 0;
  try {
    v = std::stoll(value, &used);
  } catch (const std::exception&) {
    throw InvalidArgument(flag + " expects an integer, got: " + value);
  }
  if (used != value.size()) {
    throw InvalidArgument(flag + " expects an integer, got: " + value);
  }
  if (v < 0) {
    throw InvalidArgument(flag + " expects a count >= 0, got: " + value);
  }
  return v;
}

dense::PivotMode parse_pivot(const std::string& s) {
  if (s == "fail") return dense::PivotMode::fail;
  if (s == "perturb") return dense::PivotMode::perturb;
  throw InvalidArgument("unknown pivot mode: " + s);
}

dense::KernelImpl parse_kernels(const std::string& s) {
  if (s == "reference" || s == "ref" || s == "naive") {
    return dense::KernelImpl::reference;
  }
  if (s == "tiled" || s == "blocked") return dense::KernelImpl::tiled;
  throw InvalidArgument("unknown kernel implementation: " + s);
}

solver::OrderingMethod parse_ordering(const std::string& s) {
  if (s == "nd") return solver::OrderingMethod::nested_dissection;
  if (s == "md") return solver::OrderingMethod::minimum_degree;
  if (s == "rcm") return solver::OrderingMethod::rcm;
  if (s == "natural") return solver::OrderingMethod::natural;
  throw InvalidArgument("unknown ordering: " + s);
}

}  // namespace

int main(int argc, char** argv) {
  // Outlives the try so a structured solve failure can still flush the
  // metrics collected up to the fault (the CI fault matrix uploads them).
  std::string metrics_path;
  std::string trace_path;
  std::string flight_path;
  auto flush_observability = [&] {
    if (!trace_path.empty()) {
      if (obs::Tracer::instance().write_chrome_trace_file(trace_path)) {
        std::cerr << "trace written to " << trace_path << "\n";
      } else {
        std::cerr << "error: cannot write trace to " << trace_path << "\n";
      }
    }
    if (!flight_path.empty()) {
      if (obs::FlightRecorder::instance().write_json_file(flight_path)) {
        std::cerr << "flight recorder written to " << flight_path << "\n";
      } else {
        std::cerr << "error: cannot write flight recorder to " << flight_path
                  << "\n";
      }
    }
    if (metrics_path.empty()) return;
    if (obs::write_metrics_report_file(metrics_path)) {
      std::cerr << "metrics written to " << metrics_path << "\n";
    } else {
      std::cerr << "error: cannot write metrics to " << metrics_path << "\n";
    }
  };
  try {
    std::string matrix_path;
    index_t grid2 = 0, grid3 = 0;
    index_t nrhs = 1;
    index_t procs = 0;
    int refine = 0;
    bool report = false;
    bool condest = false;
    if (const char* env = std::getenv("SPARTS_TRACE")) {
      if (*env != '\0') trace_path = env;
    }
    solver::Options options;

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw InvalidArgument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--matrix") {
        matrix_path = next();
      } else if (arg == "--grid2d") {
        grid2 = parse_count(arg, next());
      } else if (arg == "--grid3d") {
        grid3 = parse_count(arg, next());
      } else if (arg == "--nrhs") {
        nrhs = parse_count(arg, next());
      } else if (arg == "--ordering") {
        options.ordering = parse_ordering(next());
      } else if (arg == "--procs") {
        procs = parse_count(arg, next());
      } else if (arg == "--backend") {
        options.backend = solver::parse_execution_backend(next());
      } else if (arg == "--kernels") {
        options.kernels = parse_kernels(next());
      } else if (arg == "--check") {
        options.check = true;
      } else if (arg == "--faults") {
        options.faults = exec::FaultPlan::parse(next());
      } else if (arg == "--pivot") {
        options.pivot_mode = parse_pivot(next());
      } else if (arg == "--proc-rank") {
        options.proc_rank = parse_count(arg, next());
      } else if (arg == "--proc-rendezvous") {
        options.proc_rendezvous_dir = next();
      } else if (arg == "--proc-rankfile") {
        options.proc_rankfile = next();
      } else if (arg == "--checkpoint") {
        options.checkpoint_dir = next();
      } else if (arg == "--refine") {
        refine = static_cast<int>(parse_count(arg, next()));
      } else if (arg == "--report") {
        report = true;
      } else if (arg == "--condest") {
        condest = true;
      } else if (arg == "--trace") {
        trace_path = next();
      } else if (arg == "--metrics") {
        metrics_path = next();
      } else if (arg == "--flight") {
        flight_path = next();
      } else if (arg == "--amalgamate") {
        const std::string v = next();
        const auto comma = v.find(',');
        if (comma == std::string::npos) {
          throw InvalidArgument("--amalgamate expects W,Z");
        }
        options.amalgamation_max_width =
            parse_count(arg, v.substr(0, comma));
        options.amalgamation_relax_zeros =
            parse_count(arg, v.substr(comma + 1));
      } else if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        usage();
        return 2;
      }
    }

    if (options.backend == solver::ExecutionBackend::proc) {
      if (procs <= 0) {
        throw InvalidArgument("--backend proc needs --procs P > 0");
      }
      if (options.proc_rendezvous_dir.empty() ==
          options.proc_rankfile.empty()) {
        throw InvalidArgument(
            "--backend proc needs exactly one of --proc-rendezvous DIR or "
            "--proc-rankfile FILE");
      }
      if (options.proc_rank < 0 || options.proc_rank >= procs) {
        throw InvalidArgument("--proc-rank must be in [0, --procs)");
      }
    }

    if (!trace_path.empty()) obs::Tracer::instance().enable();
    if (!metrics_path.empty()) obs::enable_metrics();

    sparse::SymmetricCsc a;
    if (!matrix_path.empty()) {
      a = sparse::read_matrix_market(matrix_path);
      std::cout << "matrix: " << matrix_path << "\n";
    } else if (grid2 > 0) {
      a = sparse::grid2d(grid2, grid2);
      std::cout << "matrix: grid2d " << grid2 << "x" << grid2 << "\n";
    } else if (grid3 > 0) {
      a = sparse::grid3d(grid3, grid3, grid3);
      std::cout << "matrix: grid3d " << grid3 << "^3\n";
    } else {
      usage();
      return 2;
    }
    std::cout << "N = " << a.n() << "   nnz(lower) = " << a.nnz_lower()
              << "   nrhs = " << nrhs << "\n";

    Rng rng(12345);
    const std::vector<real_t> b = sparse::random_rhs(a.n(), nrhs, rng);

    if (refine > 0) options.refine_tolerance = 1e-15;
    const solver::SparseSolver s =
        solver::SparseSolver::factorize(a, options, procs);
    if (report) {
      solver::ReportOptions ropt;
      ropt.nrhs = nrhs;
      std::cout << "\n" << solver::analysis_report(s, ropt) << "\n";
    }
    const solver::ParallelSolveResult result = s.solve(b, nrhs, refine);

    std::cout << "\nanalysis:\n"
              << "  nnz(L)          " << s.info().factor_nnz << "\n"
              << "  factor flops    " << s.info().factor_flops << "\n"
              << "  supernodes      " << s.info().num_supernodes << "\n";
    if (procs == 0) {
      std::cout << "host (sequential multifrontal), wall-clock seconds\n";
    } else {
      const solver::BackendInfo& binfo =
          solver::execution_backend_info(options.backend);
      std::cout << "backend " << binfo.name << " (" << binfo.summary
                << "): " << procs
                << (options.backend == solver::ExecutionBackend::simulated
                        ? " processors, simulated seconds\n"
                        : " ranks, wall-clock seconds\n");
    }
    std::cout << "  factorization  " << format_fixed(result.factor_time, 4)
              << (result.factor_from_checkpoint
                      ? " s  (skipped: factor loaded from checkpoint)\n"
                      : " s\n");
    if (procs > 0) {
      std::cout << "  redistribution " << format_fixed(result.redist_time, 4)
                << " s\n";
    }
    std::cout << "  forward solve  " << format_fixed(result.forward_time, 4)
              << " s\n"
              << "  backward solve " << format_fixed(result.backward_time, 4)
              << " s\n";
    if (procs > 0 && options.backend == solver::ExecutionBackend::tasks) {
      std::cout << "task scheduler:  " << result.task_scheduler.workers
                << " workers, " << result.task_scheduler.jobs_run
                << " jobs, " << result.task_scheduler.steals << " steals, "
                << result.task_scheduler.parks << " parks\n";
      // Measured critical paths of the executed fiber-segment DAGs:
      // T1 (work) / T-inf (span) / the greedy bound T1/p + T-inf next
      // to the measured makespan, per parallel phase.
      auto cp_line = [](const char* name, const obs::CriticalPathReport& cp) {
        if (!cp.valid()) return;
        std::cout << "  " << name << " T1 " << format_fixed(cp.t1, 4)
                  << " s, T-inf " << format_fixed(cp.t_inf, 4) << " s over "
                  << cp.path.size() << " segments, makespan "
                  << format_fixed(cp.makespan, 4) << " s (bound "
                  << format_fixed(cp.span_bound, 4) << "), parallelism "
                  << format_fixed(cp.avg_parallelism, 2) << ", slack "
                  << format_fixed(cp.slack, 4) << " s\n";
      };
      std::cout << "executed critical paths:\n";
      cp_line("factor  ", result.factor_critical_path);
      cp_line("forward ", result.forward_critical_path);
      cp_line("backward", result.backward_critical_path);
    }
    if (options.check) {
      std::cout << "message audit:   " << result.checked_messages
                << " sends checked, " << result.analysis_findings
                << " findings\n";
    }
    if (options.faults) {
      std::cout << "fault injection: " << options.faults->summary() << "\n"
                << "  injected " << result.faults_injected
                << " fault(s), recovered with " << result.retransmits
                << " retransmit(s), " << result.dup_discarded
                << " duplicate(s) discarded\n";
    }
    if (result.status == solver::SolveStatus::degraded) {
      std::cout << "status: DEGRADED — " << result.perturbed_pivots
                << " pivot(s) perturbed\n";
    }
    if (result.residual >= 0.0) {
      std::cout << "refinement: " << result.refine_iterations
                << " sweep(s), residual " << result.residual << "\n";
    }
    if (condest) {
      const auto est = solver::estimate_condition(s);
      std::cout << "condition estimate: cond_1(A) ~ " << est.condition()
                << "  (||A||_1 = " << est.norm_a << ", ||A^-1||_1 >= "
                << est.norm_ainv << ", " << est.solves_used << " solves)\n";
    }
    const real_t resid = trisolve::relative_residual(a, result.x, b, nrhs);
    std::cout << "relative residual: " << resid << "\n";
    flush_observability();
    // Clean GOODBYE to the cohort (no-op on the in-process backends).
    exec::socket_session_shutdown();
    return resid < 1e-8 ? 0 : 1;
  } catch (const solver::SolveError& e) {
    // Structured failure: which phase died, why, where every rank was,
    // and the flight recorder's last events before the abort.
    std::cerr << "solve failed in phase: " << e.failed_phase() << "\n"
              << "cause: " << e.cause() << "\n";
    if (!e.progress().empty()) std::cerr << e.progress() << "\n";
    if (!e.flight_dump().empty()) std::cerr << e.flight_dump() << "\n";
    flush_observability();
    exec::socket_session_shutdown();
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    exec::socket_session_shutdown();
    return 1;
  }
}
