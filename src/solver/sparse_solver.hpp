// High-level solver: the four phases of a sparse direct solve (reordering,
// symbolic factorization, numerical factorization, triangular solution)
// behind one object that factors once and solves many times.  At p = 0 it
// factors and solves on the host; at p >= 1 it runs the paper's pipeline
// (2-D-partitioned factorization -> redistribution -> 1-D pipelined
// triangular solves) on p ranks of an exec backend: the simulator, threads,
// fibers on the task scheduler, or a cohort of OS processes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dense/kernels.hpp"
#include "dense/pivot.hpp"
#include "exec/fault_backend.hpp"
#include "exec/task_scheduler.hpp"
#include "numeric/supernodal_factor.hpp"
#include "obs/critical_path.hpp"
#include "simpar/machine.hpp"
#include "sparse/formats.hpp"
#include "sparse/permutation.hpp"
#include "symbolic/supernodes.hpp"

namespace sparts::solver {

enum class OrderingMethod {
  natural,            ///< no reordering
  nested_dissection,  ///< general-graph ND (geometric for generators)
  minimum_degree,
  rcm,
};

/// Which exec backend runs the parallel phases at p >= 1.  The message
/// audit (Options::check) and the fault stack (Options::faults) are layers
/// over it, not backends of their own.
enum class ExecutionBackend {
  simulated,  ///< simpar::Machine: deterministic cost-model clocks
  threads,    ///< exec::ThreadBackend: one std::thread per rank, wall clock
  /// exec::TaskBackend: every rank is a fiber multiplexed on a
  /// work-stealing task-scheduler pool (as many workers as cores, not as
  /// many as ranks).  A recv with no matching message suspends the fiber —
  /// the wait becomes a dependency edge of the executed DAG that
  /// obs::critical_path measures — and the matching send re-readies it on
  /// the sender's worker.
  /// Results are bit-identical to `threads`; times are wall clock.
  tasks,
  /// exec::SocketBackend under the reliability envelope: this process is
  /// ONE rank of a p-process cohort connected over TCP (tools/sparts_launch
  /// forks the cohort on localhost; a rank file scales it out to multiple
  /// machines).  Frames are CRC-checked; corruption becomes a drop the
  /// envelope retransmits.  Heartbeat-based failure detection turns a dead
  /// or wedged peer into a structured SolveError on every surviving rank
  /// instead of a hang.  Results are bit-identical to `sim`/`threads`;
  /// phase outputs are mirrored across the cohort after each phase
  /// (exec::allmerge_nonzero), because process-separated ranks share no
  /// address space.  Its faults live below the wire (SPARTS_CHAOS,
  /// docs/robustness.md), and it takes neither layer.
  proc,
};

/// One row of the execution-backend registry: the single source of truth
/// that the CLI help text, the --backend parser, and make_backend draw
/// from, so the three can never drift apart.
struct BackendInfo {
  const char* name;           ///< CLI spelling (--backend NAME)
  ExecutionBackend backend;
  const char* summary;        ///< one-line description for help text
};

/// Every registered backend, in display order.
std::span<const BackendInfo> execution_backends();

/// The registered CLI spellings joined with " | " (for usage and errors).
std::string execution_backend_names();

/// Parse a CLI spelling; throws InvalidArgument enumerating every
/// registered name on a miss.
ExecutionBackend parse_execution_backend(const std::string& name);

/// The registry row of `backend` (never null).
const BackendInfo& execution_backend_info(ExecutionBackend backend);

struct Options {
  OrderingMethod ordering = OrderingMethod::nested_dissection;
  /// Relaxed supernode amalgamation: 0 disables (fundamental supernodes).
  index_t amalgamation_max_width = 0;
  nnz_t amalgamation_relax_zeros = 0;
  /// Backend of the parallel phases at p >= 1.  With `simulated` the
  /// reported phase times are predicted T3D seconds; on threads, tasks and
  /// proc they are measured wall-clock seconds on this host.
  ExecutionBackend backend = ExecutionBackend::simulated;
  /// Audit every phase's traffic with exec::CheckedBackend (wildcard
  /// races, tag collisions, orphaned sends, deadlock cycles); any finding
  /// raises AnalysisError.  Composes over sim, threads and tasks at
  /// p >= 1 (InvalidArgument at p = 0 or over proc); times stay those of
  /// the backend below.
  bool check = false;
  /// Inject this fault scenario under the reliability envelope
  /// (Reliable(Faulty(backend))): the envelope recovers, or the phase
  /// aborts with a structured SolveError.  Composes over sim, threads and
  /// tasks at p >= 1, like `check`; with `check` the audit sits above the
  /// envelope.
  std::optional<exec::FaultPlan> faults;
  /// Dense kernel implementation used by every phase (reference loops or
  /// the tiled/vectorized kernels).  Defaults to the SPARTS_KERNELS
  /// environment variable, `tiled` when unset.  Flop counts — and hence
  /// simulated times — are identical for both.
  dense::KernelImpl kernels = dense::kernel_impl_from_env();
  /// Pivot handling during factorization: `fail` throws NumericalError on
  /// a non-positive pivot; `perturb` boosts it to a positive floor and
  /// lets iterative refinement absorb the error (result status becomes
  /// `degraded`).  See dense/pivot.hpp and docs/robustness.md.
  dense::PivotMode pivot_mode = dense::PivotMode::fail;
  double pivot_rel_floor = 1e-12;
  /// Bound on the refinement sweeps a solve runs after a degraded
  /// factorization, and the residual every refinement tries to reach.
  int refine_max_iterations = 5;
  real_t refine_tolerance = 1e-10;
  /// Process backend (--backend proc) wiring, ignored by every other
  /// backend: which rank of the p-process cohort THIS process is (the
  /// launcher sets it per forked child), and how ranks find each other —
  /// a rendezvous directory for localhost cohorts (each rank publishes
  /// its ephemeral port there) or a "RANK HOST:PORT" rank file for
  /// multi-machine runs.  Exactly one of the two should be set.
  index_t proc_rank = 0;
  std::string proc_rendezvous_dir;
  std::string proc_rankfile;
  /// When non-empty, factorize caches the numeric factor here
  /// (factor.bin + factor.meta carrying a fingerprint of the permuted
  /// matrix and the factor-relevant options) and on a later run of the
  /// same problem loads it and skips factorization — so a solve aborted
  /// by a rank crash re-runs substitution from the cached factor without
  /// re-factoring (docs/robustness.md).  In a proc cohort only rank 0
  /// writes; every rank reads.
  std::string checkpoint_dir;
};

struct AnalysisInfo {
  nnz_t factor_nnz = 0;
  nnz_t factor_flops = 0;
  index_t num_supernodes = 0;
  nnz_t solve_flops_per_rhs = 0;
};

/// A parallel phase failed in a structured way: an injected crash, an
/// exhausted retransmit budget (deadline abort), or a deadlock.  Carries
/// which phase died, the root cause, and — when the run was under the
/// reliability envelope — a per-rank progress report saying where every
/// rank was when the run ended.
class SolveError : public Error {
 public:
  /// `flight_dump` is the obs::FlightRecorder text snapshot taken at the
  /// abort (empty when nothing was recorded): the last few dozen sends /
  /// waits / parks per rank before the run died.
  SolveError(std::string phase, std::string cause, std::string progress,
             std::string flight_dump = {})
      : Error("parallel solve failed in " + phase + " phase: " + cause +
              (progress.empty() ? "" : "\n" + progress) +
              (flight_dump.empty() ? "" : "\n" + flight_dump)),
        phase_(std::move(phase)),
        cause_(std::move(cause)),
        progress_(std::move(progress)),
        flight_dump_(std::move(flight_dump)) {}

  const std::string& failed_phase() const { return phase_; }
  const std::string& cause() const { return cause_; }
  const std::string& progress() const { return progress_; }
  const std::string& flight_dump() const { return flight_dump_; }

 private:
  std::string phase_;
  std::string cause_;
  std::string progress_;
  std::string flight_dump_;
};

/// How much trust to put in ParallelSolveResult::x.
enum class SolveStatus {
  ok,        ///< direct solve, no numerical compromises
  degraded,  ///< pivots were perturbed; x comes from iterative refinement
};

/// A solution and the accounting of the phases that produced it: the
/// factorization's and the solve's.
struct ParallelSolveResult {
  std::vector<real_t> x;       ///< solution, original ordering
  /// Phase times: simulated seconds on `sim`, wall-clock seconds on the
  /// other backends and on the host (p = 0, where redist_time stays 0).
  double factor_time = 0.0;
  double redist_time = 0.0;
  double forward_time = 0.0;
  double backward_time = 0.0;
  /// Totals from the message audit (Options::check), summed over the
  /// parallel phases; all zero without it.  Any finding raises
  /// AnalysisError, so on normal return analysis_findings is always 0 and
  /// checked_messages says how many sends were audited.
  std::int64_t analysis_findings = 0;
  std::int64_t checked_messages = 0;
  /// Fault-tolerance accounting, summed over the parallel phases; all
  /// zero unless a fault plan (or perturbing pivot mode) was used.
  SolveStatus status = SolveStatus::ok;
  std::int64_t faults_injected = 0;   ///< drops/dups/delays/... injected
  std::int64_t retransmits = 0;       ///< envelope recoveries
  std::int64_t dup_discarded = 0;     ///< duplicate deliveries suppressed
  std::int64_t perturbed_pivots = 0;  ///< pivots boosted during factorization
  int refine_iterations = 0;          ///< host refinement sweeps performed
  /// Factorization was skipped: the factor came from Options::checkpoint_dir
  /// (fingerprint matched), so factor_time is 0.
  bool factor_from_checkpoint = false;
  /// Relative residual ||b - A x|| / ||b|| after refinement; negative when
  /// refinement did not run (clean direct solve, residual not computed).
  real_t residual = -1.0;
  /// Work-stealing counters of the tasks backend (all zero otherwise);
  /// jobs/steals/parks are summed over the parallel phases.
  exec::SchedulerStats task_scheduler;
  /// Critical-path analyses of the *executed* fiber-segment DAGs, one per
  /// parallel phase — only the tasks backend records them (invalid() for
  /// the others).  T1 / T-inf / span bound over measured segment times;
  /// see obs::critical_path().
  obs::CriticalPathReport factor_critical_path;
  obs::CriticalPathReport forward_critical_path;
  obs::CriticalPathReport backward_critical_path;

  double solve_time() const { return forward_time + backward_time; }
};

/// Sparse SPD direct solver: factor once, then solve any number of
/// right-hand-side blocks against the kept factor.
class SparseSolver {
 public:
  /// Order, analyse and factor `a`.  At p = 0 the host's multifrontal
  /// factorization.  At p >= 1 the 2-D-partitioned parallel factorization
  /// on p ranks of options.backend, then its 2-D -> 1-D redistribution
  /// into the rank-local storage the pipelined solves read.  Host-side
  /// ordering and symbolic analysis are not timed (the paper's tables
  /// start at numerical factorization).
  static SparseSolver factorize(const sparse::SymmetricCsc& a,
                                const Options& options = {}, index_t p = 0);

  SparseSolver(SparseSolver&&) noexcept;
  SparseSolver& operator=(SparseSolver&&) noexcept;
  ~SparseSolver();

  /// Solve A X = B; `b` is n x m column-major in the *original* ordering,
  /// and so is the returned x.  Runs the forward and backward solves (at
  /// p >= 1 on a fresh backend stack), then iterative refinement against
  /// A: up to options.refine_max_iterations sweeps when pivots were
  /// perturbed, or up to `refine_sweeps` when that is more, each stopping
  /// once the residual reaches options.refine_tolerance or stops falling.
  /// The result carries the factorization's accounting plus this solve's,
  /// and the residual of the x it returns.
  ParallelSolveResult solve(std::span<const real_t> b, index_t m,
                            int refine_sweeps = 0) const;

  const AnalysisInfo& info() const { return info_; }
  const numeric::SupernodalFactor& factor() const;
  const sparse::Permutation& permutation() const { return perm_; }
  const sparse::SymmetricCsc& permuted_matrix() const { return a_perm_; }
  const symbolic::SupernodePartition& partition() const {
    return factor().partition();
  }

 private:
  /// The factor and, at p >= 1, the solve mapping, the rank-local factor
  /// and the trisolver that reads all three; on the heap so that moving
  /// the solver keeps the addresses the trisolver holds.
  struct Factored;

  SparseSolver();

  Options options_;
  index_t p_ = 0;
  sparse::Permutation perm_;
  sparse::SymmetricCsc a_perm_;
  AnalysisInfo info_;
  std::unique_ptr<Factored> factored_;
  /// The factorization's accounting; each solve starts from a copy.
  ParallelSolveResult factor_report_;
};

/// The whole pipeline once: SparseSolver::factorize(a, options, p), then
/// one solve of the n x m block `b`.
ParallelSolveResult parallel_solve(const sparse::SymmetricCsc& a,
                                   std::span<const real_t> b, index_t m,
                                   index_t p, const Options& options = {});

}  // namespace sparts::solver
