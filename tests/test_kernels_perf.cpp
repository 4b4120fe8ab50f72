// Cheap perf smoke test: the tiled panel_gemm must not be slower than
// the reference kernel at n = 256 in an optimized build.  This is a
// regression tripwire for the kernel dispatch layer (bench_kernels prints
// the full reference-vs-tiled GFLOP/s sweep, and bench/e2e's `dense.*`
// rows track the kernels inside a real solve); it is skipped in
// unoptimized and sanitizer builds, where relative kernel timings are
// meaningless.
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "common/rng.hpp"
#include "dense/kernels.hpp"

namespace sparts::dense {
namespace {

double best_seconds(KernelImpl impl, index_t n, std::vector<real_t>& a,
                    std::vector<real_t>& b, std::vector<real_t>& c,
                    int reps) {
  const KernelImpl saved = kernel_impl();
  set_kernel_impl(impl);
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    panel_gemm(n, n, n, 1.0, a.data(), n, b.data(), n, c.data(), n);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  set_kernel_impl(saved);
  return best;
}

TEST(KernelPerfSmoke, TiledPanelGemmNotSlowerThanReference) {
#ifndef NDEBUG
  GTEST_SKIP() << "unoptimized build: kernel timings are meaningless";
#endif
#ifdef SPARTS_SANITIZE_BUILD
  GTEST_SKIP() << "sanitizer build: kernel timings are meaningless";
#else
  const index_t n = 256;
  Rng rng(42);
  std::vector<real_t> a(static_cast<std::size_t>(n * n));
  std::vector<real_t> b(static_cast<std::size_t>(n * n));
  std::vector<real_t> c(static_cast<std::size_t>(n * n), 0.0);
  for (auto& v : a) v = rng.uniform(-1.0, 1.0);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  // Warm up both paths (page faults, pack-workspace allocation).
  best_seconds(KernelImpl::reference, n, a, b, c, 1);
  best_seconds(KernelImpl::tiled, n, a, b, c, 1);
  const double t_ref = best_seconds(KernelImpl::reference, n, a, b, c, 5);
  const double t_tiled = best_seconds(KernelImpl::tiled, n, a, b, c, 5);
  const double gf = 2.0 * n * n * n * 1e-9;
  RecordProperty("reference_gflops", std::to_string(gf / t_ref));
  RecordProperty("tiled_gflops", std::to_string(gf / t_tiled));
  // 5% slack so scheduler noise cannot flake the test; the expected
  // margin is >= 3x (see ISSUE 2 acceptance criteria).
  EXPECT_LE(t_tiled, t_ref * 1.05)
      << "tiled panel_gemm slower than reference: tiled " << gf / t_tiled
      << " GFLOP/s vs reference " << gf / t_ref << " GFLOP/s";
#endif
}

}  // namespace
}  // namespace sparts::dense
