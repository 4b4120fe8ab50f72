// Flop-rate sweep of the dense panel kernels on the host: every kernel,
// reference against tiled, across a size ladder, printed to stdout as
// GFLOP/s.  These are *host* rates, as opposed to the simulated T3D times
// of the experiment benches; bench/e2e's `dense.*` rows are the tracked
// kernel numbers (docs/kernels.md).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dense/kernels.hpp"

namespace sparts {
namespace {

/// One timed case: `flops` per call, `run` performs exactly one call
/// (any per-call reset it needs is included in the timing — it is the
/// same for both implementations, so speedups stay comparable).
struct RateCase {
  std::string kernel;
  index_t size;
  nnz_t flops;
  std::function<void()> run;
};

struct RateResult {
  std::string kernel;
  index_t size;
  double gflops_ref;
  double gflops_tiled;
};

double best_seconds(const std::function<void()>& run, int reps) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// Workload bundle shared by the cases of one size step; keeps the
/// buffers alive for the std::function closures.
struct RateWorkload {
  index_t n = 0;
  std::vector<real_t> a, b, c, chol_base, chol, x;

  explicit RateWorkload(index_t size) : n(size) {
    Rng rng(7);
    const auto nn = static_cast<std::size_t>(n * n);
    a.resize(nn);
    b.resize(nn);
    c.resize(nn, 0.0);
    for (auto& v : a) v = rng.uniform(-1.0, 1.0);
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    // Lower-triangular / SPD panel: diagonally dominant so every solve
    // and factorization is well-conditioned at any size.
    chol_base.assign(nn, 0.0);
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = j; i < n; ++i) {
        chol_base[static_cast<std::size_t>(i + j * n)] =
            i == j ? static_cast<real_t>(n) : rng.uniform(-0.5, 0.5);
      }
    }
    chol = chol_base;
    x.resize(nn, 1.0);
  }
};

std::vector<RateCase> make_cases(RateWorkload& w) {
  const index_t n = w.n;
  const index_t nrhs = 30;  // the paper's multi-RHS width
  std::vector<RateCase> cases;
  cases.push_back({"panel_gemm", n, dense::gemm_flops(n, n, n), [&w, n] {
                     dense::panel_gemm(n, n, n, 1.0, w.a.data(), n, w.b.data(),
                                       n, w.c.data(), n);
                   }});
  cases.push_back({"panel_gemm_at", n, dense::gemm_flops(n, n, n), [&w, n] {
                     dense::panel_gemm_at(n, n, n, 1.0, w.a.data(), n,
                                          w.b.data(), n, w.c.data(), n);
                   }});
  cases.push_back(
      {"panel_trsm_lower", n, dense::trsm_panel_flops(n, nrhs), [&w, n, nrhs] {
         dense::panel_trsm_lower(n, nrhs, w.chol_base.data(), n, w.x.data(), n);
       }});
  cases.push_back({"panel_trsm_lower_transposed", n,
                   dense::trsm_panel_flops(n, nrhs), [&w, n, nrhs] {
                     dense::panel_trsm_lower_transposed(
                         n, nrhs, w.chol_base.data(), n, w.x.data(), n);
                   }});
  cases.push_back(
      {"panel_trsm_right_lt", n, dense::trsm_right_lt_flops(n, n), [&w, n] {
         dense::panel_trsm_right_lt(n, n, w.chol_base.data(), n, w.x.data(), n);
       }});
  cases.push_back({"panel_cholesky", n, dense::cholesky_panel_flops(n, n),
                   [&w, n] {
                     w.chol = w.chol_base;  // refactor a fresh copy each call
                     dense::panel_cholesky(n, n, w.chol.data(), n);
                   }});
  cases.push_back({"panel_syrk", n,
                   dense::syrk_flops(n, n, n, /*lower_only=*/true), [&w, n] {
                     dense::panel_syrk(n, n, n, w.a.data(), n, w.a.data(), n,
                                       w.c.data(), n, /*lower_only=*/true);
                   }});
  return cases;
}

std::vector<RateResult> run_rate_sweep() {
  constexpr index_t kSizes[] = {64, 128, 256};
  constexpr int kReps = 5;
  std::vector<RateResult> results;
  const dense::KernelImpl saved = dense::kernel_impl();
  for (const index_t size : kSizes) {
    RateWorkload w(size);
    for (RateCase& rc : make_cases(w)) {
      RateResult res{rc.kernel, rc.size, 0.0, 0.0};
      for (const auto impl :
           {dense::KernelImpl::reference, dense::KernelImpl::tiled}) {
        dense::set_kernel_impl(impl);
        rc.run();  // warm-up: page faults, pack-workspace allocation
        const double secs = best_seconds(rc.run, kReps);
        const double gf = static_cast<double>(rc.flops) * 1e-9 / secs;
        (impl == dense::KernelImpl::reference ? res.gflops_ref
                                              : res.gflops_tiled) = gf;
      }
      results.push_back(res);
    }
  }
  dense::set_kernel_impl(saved);
  return results;
}

void print_rates(const std::vector<RateResult>& results) {
  std::printf("\nkernel flop rates (best of 5), reference vs tiled:\n");
  std::printf("%-28s %6s %12s %12s %9s\n", "kernel", "n", "ref GF/s",
              "tiled GF/s", "speedup");
  for (const RateResult& r : results) {
    std::printf("%-28s %6lld %12.2f %12.2f %8.2fx\n", r.kernel.c_str(),
                static_cast<long long>(r.size), r.gflops_ref, r.gflops_tiled,
                r.gflops_tiled / r.gflops_ref);
  }
}

}  // namespace
}  // namespace sparts

int main() {
  sparts::print_rates(sparts::run_rate_sweep());
  return 0;
}
