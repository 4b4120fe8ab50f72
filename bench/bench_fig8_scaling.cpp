// E11 — Figure 8: FBsolve MFLOPS versus processor count for four test
// matrices and NRHS in {1, 5, 10, 20, 30}.
//
// The paper's qualitative claims to reproduce:
//   * MFLOPS grow with p for every NRHS (reasonable speedups on hundreds
//     of processors despite the solvers' lower scalability);
//   * both the absolute rate and the *speedup* improve markedly with more
//     right-hand sides (BLAS-3 effect + amortized index computation).
#include <iostream>

#include "exec/stats.hpp"
#include "bench_common.hpp"

namespace sparts::bench {
namespace {

void run_matrix(const PreparedProblem& prob) {
  std::cout << "\n--- " << prob.name << " (N = " << prob.a.n() << ") ---\n";
  std::vector<index_t> procs;
  for (index_t p = 1; p <= bench_max_p(); p *= 4) procs.push_back(p);

  std::vector<std::string> headers{"NRHS"};
  for (index_t p : procs) headers.push_back("p=" + std::to_string(p));
  headers.push_back("speedup@max_p");
  TextTable table(headers);

  for (index_t m : {1, 5, 10, 20, 30}) {
    table.new_row();
    table.add(static_cast<long long>(m));
    double first = 0.0, last = 0.0;
    for (index_t p : procs) {
      const SolveMeasurement meas = measure_solve(prob, p, m);
      table.add(meas.mflops, 1);
      if (p == 1) first = meas.fb_time;
      last = meas.fb_time;
    }
    table.add(exec::speedup(first, last), 2);
  }
  std::cout << table;
}

void run() {
  print_header("E11 (Figure 8)", "FBsolve MFLOPS vs processors");
  const double scale = bench_scale();
  for (const char* name : {"BCSSTK15", "BCSSTK31", "CUBE35", "COPTER2"}) {
    run_matrix(prepare(solver::paper_problem(name, scale)));
  }
  std::cout << "\nPaper reference shape: every curve increases with p;"
               " larger NRHS shifts curves up\nand steepens them (BLAS-3"
               " rates + amortized pipeline startups).\n";
}

}  // namespace
}  // namespace sparts::bench

int main() {
  sparts::bench::run();
  return 0;
}
