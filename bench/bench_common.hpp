// Shared infrastructure for the experiment harness: problem setup, machine
// construction, MFLOPS accounting, and paper-reference bookkeeping.
//
// Every bench binary reproduces one table or figure of the paper (the
// experiment ids E1..E14 in DESIGN.md).  Absolute times come from the
// simulated T3D cost model; the quantities to compare with the paper are
// the *shapes*: speedups, crossovers, and ratios.
//
// Environment knobs:
//   SPARTS_BENCH_SCALE  linear problem-size scale in (0, 1]; default 0.35
//                       so the full harness runs in minutes.  Set to 1.0
//                       to reproduce the paper's N exactly.
//   SPARTS_BENCH_MAXP   largest simulated processor count (default 64;
//                       the paper uses 256).
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "exec/stats.hpp"
#include "obs/phase.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "numeric/multifrontal.hpp"
#include "ordering/nested_dissection.hpp"
#include "partrisolve/partrisolve.hpp"
#include "simpar/machine.hpp"
#include "solver/sparse_solver.hpp"
#include "solver/workloads.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"
#include "symbolic/supernodes.hpp"
#include "symbolic/symbolic.hpp"
#include "trisolve/trisolve.hpp"

namespace sparts::bench {

inline double bench_scale() {
  if (const char* env = std::getenv("SPARTS_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0 && s <= 1.0) return s;
  }
  return 0.35;
}

inline index_t bench_max_p() {
  if (const char* env = std::getenv("SPARTS_BENCH_MAXP")) {
    const long p = std::atol(env);
    if (p >= 1) return static_cast<index_t>(p);
  }
  return 64;
}

inline simpar::Machine::Config t3d_config(index_t p) {
  simpar::Machine::Config cfg;
  cfg.nprocs = p;
  cfg.cost = exec::CostModel::t3d();
  cfg.topology = exec::TopologyKind::hypercube;
  return cfg;
}

/// A fully prepared problem: permuted matrix, partition, numeric factor.
struct PreparedProblem {
  std::string name;
  std::string description;
  sparse::SymmetricCsc a;  ///< permuted (solver ordering applied)
  symbolic::SupernodePartition part;
  numeric::SupernodalFactor factor;
  nnz_t factor_flops = 0;
  nnz_t factor_nnz = 0;
  index_t paper_n = 0;
  nnz_t paper_factor_nnz = 0;
  nnz_t paper_factor_opcount = 0;
};

/// Order with the problem's geometric nested dissection, run symbolic
/// analysis and the sequential numeric factorization.
inline PreparedProblem prepare(solver::TestProblem problem) {
  PreparedProblem out;
  out.name = std::move(problem.name);
  out.description = std::move(problem.description);
  out.paper_n = problem.paper_n;
  out.paper_factor_nnz = problem.paper_factor_nnz;
  out.paper_factor_opcount = problem.paper_factor_opcount;
  out.a = sparse::permute_symmetric(problem.matrix, problem.nd_ordering);
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(out.a);
  out.part = symbolic::fundamental_supernodes(sym);
  out.factor_flops = sym.factorization_flops();
  out.factor_nnz = sym.nnz();
  out.factor = numeric::multifrontal_cholesky(out.a, out.part);
  return out;
}

/// Prepare a problem keeping the natural ordering (the irregular-etree
/// workloads are *constructed* in the shape we want; reordering would
/// destroy it).
inline PreparedProblem prepare_natural(std::string name,
                                       std::string description,
                                       sparse::SymmetricCsc a) {
  PreparedProblem out;
  out.name = std::move(name);
  out.description = std::move(description);
  out.a = std::move(a);
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(out.a);
  out.part = symbolic::fundamental_supernodes(sym);
  out.factor_flops = sym.factorization_flops();
  out.factor_nnz = sym.nnz();
  out.factor = numeric::multifrontal_cholesky(out.a, out.part);
  return out;
}

/// Tridiagonal SPD matrix of order n: path graph, path etree — the
/// maximally deep, message-dominated workload for the pipelined solve.
inline sparse::SymmetricCsc chain_matrix(index_t n) {
  sparse::Triplets t(n, n);
  for (index_t i = 0; i < n; ++i) {
    t.add(i, i, 4.0);
    if (i + 1 < n) t.add(i + 1, i, -1.0);
  }
  return sparse::SymmetricCsc::from_triplets(t);
}

/// Block-diagonal forest: `blocks` independent tridiagonal chains of
/// order `bs` each.  The etree is maximally wide and flat.
inline sparse::SymmetricCsc wide_flat_matrix(index_t blocks, index_t bs) {
  const index_t n = blocks * bs;
  sparse::Triplets t(n, n);
  for (index_t b = 0; b < blocks; ++b) {
    const index_t base = b * bs;
    for (index_t i = 0; i < bs; ++i) {
      t.add(base + i, base + i, 4.0);
      if (i + 1 < bs) t.add(base + i + 1, base + i, -1.0);
    }
  }
  return sparse::SymmetricCsc::from_triplets(t);
}

/// Prepare a grid problem with the exact geometric ND ordering.
inline PreparedProblem prepare_grid(index_t kx, index_t ky, index_t kz = 1,
                                    int stencil = 0) {
  PreparedProblem out;
  const bool three_d = kz > 1;
  out.name = three_d ? "grid3d" : "grid2d";
  out.description = out.name + " " + std::to_string(kx) + "x" +
                    std::to_string(ky) +
                    (three_d ? "x" + std::to_string(kz) : "");
  const sparse::SymmetricCsc a0 =
      three_d ? sparse::grid3d(kx, ky, kz, stencil == 0 ? 7 : stencil)
              : sparse::grid2d(kx, ky, stencil == 0 ? 5 : stencil);
  const sparse::Permutation perm =
      three_d ? ordering::nested_dissection_grid3d(kx, ky, kz)
              : ordering::nested_dissection_grid2d(kx, ky);
  out.a = sparse::permute_symmetric(a0, perm);
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(out.a);
  out.part = symbolic::fundamental_supernodes(sym);
  out.factor_flops = sym.factorization_flops();
  out.factor_nnz = sym.nnz();
  out.factor = numeric::multifrontal_cholesky(out.a, out.part);
  return out;
}

/// Result of one distributed solve measurement.
struct SolveMeasurement {
  double fb_time = 0.0;  ///< forward + backward simulated seconds
  double fw_time = 0.0;  ///< forward phase alone
  double bw_time = 0.0;  ///< backward phase alone
  double mflops = 0.0;   ///< useful solve flops / time
  nnz_t messages = 0;
};

/// Run forward+backward on p simulated processors with m RHS.  The two
/// substitution phases are bracketed with the phase profiler so bench
/// JSON emitters (BenchJson) can report per-phase times and splits.
inline SolveMeasurement measure_solve(const PreparedProblem& prob, index_t p,
                                      index_t m,
                                      partrisolve::Options opts = {}) {
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(prob.part, p);
  partrisolve::DistributedTrisolver solver(prob.factor, map, opts);
  simpar::Machine machine(t3d_config(p));
  const index_t n = prob.a.n();
  Rng rng(1234);
  std::vector<real_t> b = sparse::random_rhs(n, m, rng);
  std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
  SolveMeasurement out;
  std::vector<real_t> y(static_cast<std::size_t>(n * m), 0.0);
  {
    obs::PhaseScope phase("forward");
    const partrisolve::PhaseReport fw = solver.forward(machine, b, y, m);
    phase.set_parallel(exec::to_phase_stats(fw.stats));
    out.fw_time = fw.time();
    out.messages += fw.stats.total_messages();
  }
  {
    obs::PhaseScope phase("backward");
    const partrisolve::PhaseReport bw = solver.backward(machine, y, x, m);
    phase.set_parallel(exec::to_phase_stats(bw.stats));
    out.bw_time = bw.time();
    out.messages += bw.stats.total_messages();
  }
  out.fb_time = out.fw_time + out.bw_time;
  // Useful flops: the sparse count 4 nnz(L) m, as the paper reports.
  out.mflops =
      static_cast<double>(4 * prob.factor_nnz * m) / out.fb_time / 1e6;
  return out;
}

/// Machine-readable bench output: accumulates one flat-object row per
/// measurement and writes {"bench", "scale", "max_p", "rows", "phases"}
/// to BENCH_<name>.json (override with SPARTS_BENCH_<NAME>_JSON-style env
/// vars — each bench names its own).  The "phases" array is whatever the
/// phase profiler recorded since this object was constructed, giving the
/// per-phase times and per-rank splits behind each row.
///
/// Everything goes to the side file plus a stderr note: bench *stdout* is
/// a stable, diffable artifact and must stay byte-identical whether or
/// not anyone consumes the JSON.
class BenchJson {
 public:
  /// `name` keys the default file name BENCH_<name>.json; `env_var` (may
  /// be nullptr) overrides the path when set and non-empty.
  BenchJson(std::string name, const char* env_var)
      : name_(std::move(name)), env_var_(env_var) {
    obs::PhaseProfiler::instance().clear();
  }

  BenchJson& row() {
    rows_.emplace_back();
    return *this;
  }
  BenchJson& field(const std::string& key, double v) {
    std::ostringstream s;
    s << v;
    return raw(key, s.str());
  }
  BenchJson& field(const std::string& key, long long v) {
    return raw(key, std::to_string(v));
  }
  BenchJson& field(const std::string& key, index_t v) {
    return raw(key, std::to_string(v));
  }
  BenchJson& field(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    return raw(key, quoted);
  }

  /// Write the file and note the path on stderr.  Returns false (with a
  /// stderr warning) if the file cannot be opened.
  bool write() const {
    const char* env = env_var_ ? std::getenv(env_var_) : nullptr;
    const std::string path =
        (env != nullptr && *env != '\0') ? env : "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "warning: cannot write " << path << "\n";
      return false;
    }
    out << "{\n\"bench\": \"" << name_ << "\",\n\"scale\": " << bench_scale()
        << ",\n\"max_p\": " << bench_max_p() << ",\n\"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n") << "  {";
      const auto& row = rows_[i];
      for (std::size_t j = 0; j < row.size(); ++j) {
        out << (j == 0 ? "" : ", ") << "\"" << row[j].first
            << "\": " << row[j].second;
      }
      out << "}";
    }
    out << (rows_.empty() ? "" : "\n") << "],\n\"phases\":\n";
    obs::PhaseProfiler::instance().write_json(out);
    out << "\n}\n";
    std::cerr << "note: wrote " << path << "\n";
    return static_cast<bool>(out);
  }

 private:
  BenchJson& raw(const std::string& key, std::string value) {
    SPARTS_CHECK(!rows_.empty(), "BenchJson::field before row()");
    rows_.back().emplace_back(key, std::move(value));
    return *this;
  }

  std::string name_;
  const char* env_var_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

inline void print_header(const std::string& experiment,
                         const std::string& what) {
  std::cout << "\n=================================================="
            << "==============================\n"
            << experiment << ": " << what << "\n"
            << "scale=" << bench_scale() << "  max_p=" << bench_max_p()
            << "  (SPARTS_BENCH_SCALE / SPARTS_BENCH_MAXP to change)\n"
            << "=================================================="
            << "==============================\n";
}

}  // namespace sparts::bench
