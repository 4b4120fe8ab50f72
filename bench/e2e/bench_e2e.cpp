// bench_e2e: factor once, solve many — the repository's end-to-end
// benchmark (metric definitions and workload rationale: README.md here).
//
// One process runs one workload along the user path, calling each layer's
// public entry point directly:
//   1. generate the matrix;
//   2. set-up: nested dissection -> permute -> symbolic factor ->
//      fundamental supernodes -> the factor and solve subtree-to-subcube
//      maps;
//   3. factor: parfact::parallel_multifrontal -> redist::redistribute_factor
//      -> DistributedTrisolver construction, on a fresh backend per rep,
//      on exec::ThreadBackend and on exec::TaskBackend at p = 4;
//   4. solve: a closed loop with one client (batch k+1 starts after batch k
//      returns) of trisolve::full_solve as the plain single-thread
//      baseline, then forward()+backward() on both backends, all on the
//      same right-hand sides, for --seconds.
// Set-up and factor are repeated in R slots: the first runs before the
// loop, the others are spread over it; medians over the reps are setup_s
// and factor_s.
// The seed drives only sparse::random_rhs.  Every op is checked: a factor
// rep fails on an exception or when threads and tasks disagree on a single
// factor bit; a batch fails on an exception, on a backward error above
// 1e-12, or when threads and tasks return x that is not bit-identical.
//
// With --trace FILE the timed loop also records one span per layer call on
// every other batch (the untraced half gives trace_overhead_pct), the
// per-layer probes run after the loop, and the spans are written as Chrome
// trace_event B/E JSON.
//
// usage: bench_e2e --workload NAME --seed S --seconds T --json FILE
//                  [--trace FILE]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "dense/kernels.hpp"
#include "exec/task_backend.hpp"
#include "exec/thread_backend.hpp"
#include "mapping/load_balance.hpp"
#include "obs/critical_path.hpp"
#include "parfact/parfact.hpp"
#include "redist/redist.hpp"

namespace sparts::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr index_t kProcs = 4;
constexpr double kMaxBackwardError = 1e-12;
constexpr const char* kBackends[] = {"threads", "tasks"};
/// Each set-up/factor slot repeats set-up for at least this long.
constexpr double kSetupSlotSeconds = 0.1;
/// Batches per post-loop probe (p = 1 solves, critical path).
constexpr int kProbeBatches = 5;

double now_s() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// q-quantile with linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Spans: one per layer call, kept in memory, written at exit.
// ---------------------------------------------------------------------------

class Spans {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span under the innermost open one; -1 when disabled.
  std::int64_t open(std::string name, std::string backend) {
    if (!enabled_) return -1;
    const auto id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({std::move(name), std::move(backend), now_s(), 0.0,
                      open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return id;
  }

  void close(std::int64_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s();
    open_.pop_back();
  }

  /// Chrome trace_event JSON: B/E pairs on one track, emitted by walking
  /// the parent links so nesting holds even for zero-length spans.
  void write(std::ostream& out, const std::string& workload) const {
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
        << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"args\": {\"name\": \"bench_e2e " << workload << "\"}}";
    out << std::fixed << std::setprecision(3);
    std::vector<std::int64_t> stack;
    const auto end_top = [&] {
      const Span& s = spans_[static_cast<std::size_t>(stack.back())];
      out << ",\n{\"name\": \"" << s.name << "\", \"cat\": \"layer\", "
          << "\"ph\": \"E\", \"pid\": 1, \"tid\": 1, \"ts\": " << s.end * 1e6
          << "}";
      stack.pop_back();
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      while (!stack.empty() && stack.back() != s.parent) end_top();
      out << ",\n{\"name\": \"" << s.name << "\", \"cat\": \"layer\", "
          << "\"ph\": \"B\", \"pid\": 1, \"tid\": 1, \"ts\": " << s.start * 1e6
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"workload\": \"" << workload << "\", \"backend\": \""
          << s.backend << "\"}}";
      stack.push_back(static_cast<std::int64_t>(i));
    }
    while (!stack.empty()) end_top();
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    std::string backend;
    double start;
    double end;
    std::int64_t parent;
  };
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
  bool enabled_ = false;
};

Spans& spans() {
  static Spans s;
  return s;
}

/// Run `fn` inside a span; returns its wall seconds.
template <typename Fn>
double timed(const std::string& name, const std::string& backend, Fn&& fn) {
  struct Scope {
    std::int64_t id;
    ~Scope() { spans().close(id); }
  } scope{spans().open(name, backend)};
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

// ---------------------------------------------------------------------------
// Metrics: insertion-ordered name -> (value, unit).
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  void write(std::ostream& out) const {
    out << "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Metric& m = items_[i];
      out << (i == 0 ? "\n" : ",\n") << "    \"" << m.name
          << "\": {\"value\": ";
      if (std::isfinite(m.value)) {
        out << std::setprecision(17) << m.value;
      } else {
        out << "null";
      }
      out << ", \"unit\": \"" << m.unit << "\"}";
    }
    out << "\n  }";
  }

 private:
  std::vector<Metric> items_;
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  index_t m;            ///< right-hand sides per batch
  int factor_reps;      ///< R: set-up/factor slots (factor reps per backend)
  int job_batches;      ///< B of the job e2e_s prices: B batches of m RHS
  bool dissect;         ///< nested dissection (false: natural order)
  std::function<sparse::SymmetricCsc()> matrix;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"grid2d-m30", 30, 9, 100, true,
       [] { return sparse::grid2d(255, 255); }},
      {"grid2d-m1", 1, 9, 100, true, [] { return sparse::grid2d(255, 255); }},
      {"bcsstk31", 30, 5, 100, true,
       [] { return solver::paper_problem("BCSSTK31", 1.0).matrix; }},
      {"chain", 4, 9, 200, false, [] { return chain_matrix(4000); }},
      // Smoke-test sizes (bench/e2e/run.py --smoke).
      {"smoke-grid", 4, 2, 5, true, [] { return sparse::grid2d(31, 31); }},
      {"smoke-chain", 4, 2, 5, false, [] { return chain_matrix(200); }},
  };
  return w;
}

// ---------------------------------------------------------------------------
// The pipeline stages.
// ---------------------------------------------------------------------------

struct Setup {
  sparse::SymmetricCsc a;  ///< permuted
  symbolic::SupernodePartition part;
  mapping::SubcubeMapping fact_map;
  mapping::SubcubeMapping solve_map;
  nnz_t nnz_l = 0;
  nnz_t factor_flops = 0;
};

struct SetupTimes {
  std::vector<double> total, ordering, symbolic, mapping;
};

Setup run_setup(const sparse::SymmetricCsc& a0, bool dissect,
                SetupTimes& times) {
  Setup s;
  const double t0 = now_s();
  times.ordering.push_back(timed("ordering", "", [&] {
    const sparse::Permutation perm = dissect
                                         ? ordering::nested_dissection(a0)
                                         : sparse::Permutation(a0.n());
    s.a = sparse::permute_symmetric(a0, perm);
  }));
  times.symbolic.push_back(timed("symbolic", "", [&] {
    const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(s.a);
    s.part = symbolic::fundamental_supernodes(sym);
    s.nnz_l = sym.nnz();
    s.factor_flops = sym.factorization_flops();
  }));
  times.mapping.push_back(timed("mapping", "", [&] {
    s.fact_map = mapping::subtree_to_subcube(
        s.part, kProcs, mapping::factor_work_weights(s.part));
    s.solve_map = mapping::subtree_to_subcube(s.part, kProcs);
  }));
  times.total.push_back(now_s() - t0);
  return s;
}

std::unique_ptr<exec::Comm> make_backend(const std::string& backend,
                                         index_t p) {
  if (backend == "threads") {
    exec::ThreadBackend::Config cfg;
    cfg.nprocs = p;
    cfg.cost = exec::CostModel::t3d();
    return std::make_unique<exec::ThreadBackend>(cfg);
  }
  exec::TaskBackend::Config cfg;
  cfg.nprocs = p;
  cfg.cost = exec::CostModel::t3d();
  return std::make_unique<exec::TaskBackend>(cfg);
}

/// The output of one factor rep, kept at a stable address because the
/// solver holds references into it.
struct Factored {
  numeric::SupernodalFactor factor;
  partrisolve::DistributedFactor local;
  std::unique_ptr<partrisolve::DistributedTrisolver> solver;
};

struct FactorSample {
  double total = 0.0, parfact = 0.0, redist = 0.0;
  exec::RunStats parfact_stats, redist_stats;
};

std::unique_ptr<Factored> run_factor(const Setup& s, const std::string& b,
                                     FactorSample& sample) {
  auto out = std::make_unique<Factored>();
  sample.total = timed("factor", b, [&] {
    auto comm = make_backend(b, kProcs);
    sample.parfact = timed("parfact", b, [&] {
      sample.parfact_stats =
          parfact::parallel_multifrontal(*comm, s.a, s.part, s.fact_map,
                                         out->factor)
              .stats;
    });
    sample.redist = timed("redist", b, [&] {
      sample.redist_stats =
          redist::redistribute_factor(*comm, out->factor, s.solve_map, {},
                                      &out->local)
              .stats;
    });
    timed("partrisolve.build", b, [&] {
      out->solver = std::make_unique<partrisolve::DistributedTrisolver>(
          out->factor, &out->local, s.solve_map, partrisolve::Options{});
    });
  });
  return out;
}

struct SolveSample {
  double fwd = 0.0, bwd = 0.0;
  exec::RunStats fwd_stats, bwd_stats;
  double total() const { return fwd + bwd; }
};

SolveSample run_solve(const partrisolve::DistributedTrisolver& solver,
                      exec::Comm& comm, const std::string& b,
                      const std::vector<real_t>& rhs, std::vector<real_t>& y,
                      std::vector<real_t>& x, index_t m) {
  SolveSample out;
  out.fwd = timed("partrisolve.forward", b, [&] {
    out.fwd_stats = solver.forward(comm, rhs, y, m).stats;
  });
  out.bwd = timed("partrisolve.backward", b, [&] {
    out.bwd_stats = solver.backward(comm, y, x, m).stats;
  });
  return out;
}

/// Row sums of |A| over the full symmetric matrix: ||A||_inf.
double norm_inf(const sparse::SymmetricCsc& a) {
  std::vector<double> row(static_cast<std::size_t>(a.n()), 0.0);
  for (index_t j = 0; j < a.n(); ++j) {
    const auto rows = a.col_rows(j);
    const auto vals = a.col_values(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const double v = std::abs(vals[k]);
      row[static_cast<std::size_t>(rows[k])] += v;
      if (rows[k] != j) row[static_cast<std::size_t>(j)] += v;
    }
  }
  return row.empty() ? 0.0 : *std::max_element(row.begin(), row.end());
}

/// max over columns of ||A x - b||_inf / (||A||_inf ||x||_inf + ||b||_inf).
double backward_error(const sparse::SymmetricCsc& a, double a_norm,
                      const std::vector<real_t>& x,
                      const std::vector<real_t>& b, index_t m) {
  const auto n = static_cast<std::size_t>(a.n());
  std::vector<real_t> r(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) r[i] = -b[i];
  a.symm(1.0, x.data(), r.data(), m);
  double worst = 0.0;
  for (index_t c = 0; c < m; ++c) {
    double rn = 0.0, xn = 0.0, bn = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t z = static_cast<std::size_t>(c) * n + i;
      rn = std::max(rn, std::abs(r[z]));
      xn = std::max(xn, std::abs(x[z]));
      bn = std::max(bn, std::abs(b[z]));
    }
    const double denom = a_norm * xn + bn;
    worst = std::max(worst, denom > 0.0 ? rn / denom : rn);
  }
  return worst;
}

/// Fractions of p * (parallel time) over a forward+backward pair.
struct Split {
  double compute, send, idle;
};

Split split_of(const exec::RunStats& f, const exec::RunStats& b) {
  double compute = 0.0, send = 0.0, idle = 0.0;
  for (const exec::RunStats* rs : {&f, &b}) {
    for (const exec::ProcStats& ps : rs->procs) {
      compute += ps.compute_time;
      send += ps.send_time;
      idle += ps.idle_time;
    }
  }
  const double denom =
      static_cast<double>(f.procs.size()) * f.parallel_time() +
      static_cast<double>(b.procs.size()) * b.parallel_time();
  if (denom <= 0.0) return {0.0, 0.0, 0.0};
  return {compute / denom, send / denom, idle / denom};
}

double mb_of_words(nnz_t words) {
  return static_cast<double>(words) * sizeof(real_t) / 1e6;
}

// ---------------------------------------------------------------------------
// Host facts and probes.
// ---------------------------------------------------------------------------

std::string isa_name() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) return "avx512";
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return "avx2";
  }
  return "x86-64";
#elif defined(__aarch64__)
  return "neon";
#else
  return "portable";
#endif
}

double isa_tier(const std::string& isa) {
  if (isa == "avx512") return 2.0;
  if (isa == "avx2" || isa == "neon") return 1.0;
  return 0.0;
}

/// Single-thread panel_gemm rate at a fixed 256^3 shape, best of 5 (a
/// host-drift probe, so the best case is the stable number).
double gemm_probe_gflops() {
  constexpr index_t k = 256;
  const auto sz = static_cast<std::size_t>(k * k);
  std::vector<real_t> a(sz, 0.5), b(sz, 0.25), c(sz, 0.0);
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    for (int it = 0; it < 8; ++it) {
      dense::panel_gemm(k, k, k, 1e-3, a.data(), k, b.data(), k, c.data(), k);
    }
    const double dt = now_s() - t0;
    const double flops = 8.0 * static_cast<double>(dense::gemm_flops(k, k, k));
    best = std::max(best, flops / dt / 1e9);
  }
  return best;
}

/// Replay the forward solve's per-supernode panel_trsm_lower + panel_gemm
/// calls at their real shapes under the active kernel implementation,
/// bucketed by supernode width.  Returns seconds and flops per bucket
/// (median of 3 passes; the RHS is restored before every pass).
struct Replay {
  double seconds[3] = {0.0, 0.0, 0.0};
  double flops[3] = {0.0, 0.0, 0.0};
  double total_seconds() const {
    return seconds[0] + seconds[1] + seconds[2];
  }
};

int width_bucket(index_t t) { return t <= 8 ? 0 : (t <= 32 ? 1 : 2); }

Replay replay_kernels(const numeric::SupernodalFactor& l,
                      const std::vector<real_t>& rhs, index_t m) {
  const auto& p = l.partition();
  const index_t n = p.n();
  Replay out;
  std::vector<real_t> buf(rhs.size()), temp;
  for (int bucket = 0; bucket < 3; ++bucket) {
    std::vector<double> passes;
    double flops = 0.0;
    for (int pass = 0; pass < 3; ++pass) {
      std::copy(rhs.begin(), rhs.end(), buf.begin());
      flops = 0.0;
      const double t0 = now_s();
      for (index_t s = 0; s < p.num_supernodes(); ++s) {
        const index_t t = p.width(s);
        if (width_bucket(t) != bucket) continue;
        const index_t ns = p.height(s);
        const index_t j0 = p.first_col[static_cast<std::size_t>(s)];
        const real_t* block = l.block(s).data();
        flops += static_cast<double>(
            dense::panel_trsm_lower(t, m, block, ns, buf.data() + j0, n));
        const index_t below = ns - t;
        if (below > 0) {
          temp.assign(static_cast<std::size_t>(below * m), 0.0);
          dense::panel_gemm(below, m, t, 1.0, block + t, ns, buf.data() + j0,
                            n, temp.data(), below);
          flops += static_cast<double>(dense::gemm_flops(below, m, t));
        }
      }
      passes.push_back(now_s() - t0);
    }
    out.seconds[bucket] = median(passes);
    out.flops[bucket] = flops;
  }
  return out;
}

/// Median microseconds of Comm::run with an empty body.
double empty_run_us(exec::Comm& comm, const std::string& backend) {
  std::vector<double> t;
  for (int i = 0; i < 200; ++i) {
    t.push_back(timed("exec.empty_run", backend, [&] {
      comm.run([](exec::Process&) {});
    }));
  }
  return median(t) * 1e6;
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string json;
  std::string trace;
};

int run(const Args& args) {
  const Workload* wl = nullptr;
  for (const Workload& w : workloads()) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::cerr << "bench_e2e: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const bool traced = !args.trace.empty();
  const index_t m = wl->m;
  Metrics metrics;
  const std::string isa = isa_name();
  spans().set_enabled(traced);
  const auto root = spans().open("workload", "");
  double gemm_start = 0.0;
  if (traced) {
    timed("host.gemm_probe", "", [&] { gemm_start = gemm_probe_gflops(); });
  }

  sparse::SymmetricCsc a0;
  timed("generate", "", [&] { a0 = wl->matrix(); });

  // --- set-up and factor: one slot per factor rep ----------------------------
  // Slot 0 runs before the solve loop and produces the set-up and factors
  // the loop solves with; slots 1..R-1 are spread evenly over the loop, so
  // the set-up and factor reps sample the same stretch of host conditions
  // as the batches do.  Each slot runs set-up reps for at least
  // kSetupSlotSeconds (a cheap set-up is repeated) and one factor rep per
  // backend; a later slot's factors replace the kept ones.
  SetupTimes setup_times;
  Setup s;
  std::int64_t attempted = 0, failed = 0;
  bool identical = true;
  std::unique_ptr<Factored> kept[2];
  std::vector<FactorSample> factor_samples[2];
  const auto run_slot = [&](int slot) {
    const double t0 = now_s();
    do {
      Setup rep = run_setup(a0, wl->dissect, setup_times);
      if (slot == 0) s = std::move(rep);
    } while (now_s() - t0 < kSetupSlotSeconds);
    for (int bi = 0; bi < 2; ++bi) {
      ++attempted;
      try {
        kept[bi].reset();
        FactorSample sample;
        kept[bi] = run_factor(s, kBackends[bi], sample);
        factor_samples[bi].push_back(std::move(sample));
      } catch (const std::exception& e) {
        ++failed;
        std::cerr << "bench_e2e: factor slot " << slot << " on "
                  << kBackends[bi] << " failed: " << e.what() << "\n";
      }
    }
    if (kept[0] != nullptr && kept[1] != nullptr) {
      const auto vt = kept[0]->factor.values();
      const auto vk = kept[1]->factor.values();
      if (vt.size() != vk.size() ||
          std::memcmp(vt.data(), vk.data(), vt.size_bytes()) != 0) {
        identical = false;
        ++failed;
        std::cerr << "bench_e2e: factor slot " << slot
                  << ": threads and tasks factors differ\n";
      }
    }
  };
  run_slot(0);
  const index_t n = s.a.n();
  const double a_norm = norm_inf(s.a);

  // --- solve: closed loop, one client ----------------------------------------
  std::unique_ptr<exec::Comm> comm[2] = {make_backend(kBackends[0], kProcs),
                                         make_backend(kBackends[1], kProcs)};
  Rng rng(args.seed);
  const auto nm = static_cast<std::size_t>(n * m);
  std::vector<real_t> y(nm), x[2] = {std::vector<real_t>(nm),
                                     std::vector<real_t>(nm)};
  std::vector<real_t> xs(nm);
  std::vector<SolveSample> solves[2];
  std::vector<double> seq_times, traced_batch, untraced_batch;
  double max_berr = 0.0;
  std::int64_t batches = 0;
  int slot = 1;
  const int slots = wl->factor_reps;
  const double loop_start = now_s();
  // Progress through the loop in [0, 1).
  const auto progress = [&] { return (now_s() - loop_start) / args.seconds; };
  while (progress() < 1.0) {
    if (slot < slots && progress() >= static_cast<double>(slot) / slots) {
      spans().set_enabled(traced);
      run_slot(slot++);
      continue;
    }
    const bool span_this = traced && batches % 2 == 0;
    spans().set_enabled(span_this);
    ++attempted;
    ++batches;
    try {
      if (kept[0] == nullptr || kept[1] == nullptr) {
        throw Error("no factor to solve with");
      }
      double batch_total = 0.0;
      const auto batch_span = spans().open("batch", "");
      std::vector<real_t> rhs;
      timed("rhs", "", [&] { rhs = sparse::random_rhs(n, m, rng); });
      // The single-thread baseline runs first, on the thread that just
      // wrote the right-hand sides, so it does not start by pulling them
      // from the caches of the backends' workers.
      seq_times.push_back(timed("trisolve", "", [&] {
        std::copy(rhs.begin(), rhs.end(), xs.begin());
        trisolve::full_solve(kept[0]->factor, xs.data(), m);
      }));
      batch_total += seq_times.back();
      for (int bi = 0; bi < 2; ++bi) {
        SolveSample sample = run_solve(*kept[bi]->solver, *comm[bi],
                                       kBackends[bi], rhs, y, x[bi], m);
        batch_total += sample.total();
        solves[bi].push_back(std::move(sample));
      }
      (span_this ? traced_batch : untraced_batch).push_back(batch_total);

      bool ok = std::memcmp(x[0].data(), x[1].data(),
                            nm * sizeof(real_t)) == 0;
      identical = identical && ok;
      timed("verify", "", [&] {
        for (const std::vector<real_t>* sol : {&x[0], &xs}) {
          const double be = backward_error(s.a, a_norm, *sol, rhs, m);
          max_berr = std::max(max_berr, be);
          ok = ok && be <= kMaxBackwardError;
        }
      });
      spans().close(batch_span);
      if (!ok) ++failed;
    } catch (const std::exception& e) {
      ++failed;
      std::cerr << "bench_e2e: batch " << batches << " failed: " << e.what()
                << "\n";
    }
  }
  spans().set_enabled(traced);
  if (factor_samples[0].empty() || factor_samples[1].empty() ||
      solves[0].empty() || solves[1].empty()) {
    std::cerr << "bench_e2e: no successful factor or batch to report\n";
    return 1;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // --- end-to-end metrics ----------------------------------------------------
  const double setup_s = median(setup_times.total);
  const double seq_p50 = median(seq_times);
  metrics.set("setup_s", setup_s, "s");
  double solve_p50[2] = {0.0, 0.0};
  for (int bi = 0; bi < 2; ++bi) {
    const std::string b = kBackends[bi];
    std::vector<double> fact, batch;
    for (const FactorSample& f : factor_samples[bi]) fact.push_back(f.total);
    for (const SolveSample& v : solves[bi]) batch.push_back(v.total());
    double sum = 0.0;
    for (const double t : batch) sum += t;
    solve_p50[bi] = median(batch);
    metrics.set("factor_s." + b, median(fact), "s");
    metrics.set("solve_p50_s." + b, solve_p50[bi], "s");
    metrics.set("solve_p90_s." + b, quantile(batch, 0.9), "s");
    // The loop runs for a fixed time, so its batch count is not the job's:
    // price the workload's B-batch job at the measured mean batch time.
    metrics.set("e2e_s." + b,
                setup_s + median(fact) +
                    wl->job_batches * sum / static_cast<double>(batch.size()),
                "s");
  }
  metrics.set("seq_solve_p50_s", seq_p50, "s");
  metrics.set("peak_rss_mb", peak_rss_mb, "MB");

  // --- per-layer metrics -----------------------------------------------------
  metrics.set("backward_error", max_berr, "1");
  metrics.set("ordering.s", median(setup_times.ordering), "s");
  metrics.set("symbolic.s", median(setup_times.symbolic), "s");
  metrics.set("mapping.s", median(setup_times.mapping), "s");
  const std::vector<double> solve_work = mapping::solve_work_weights(s.part, m);
  metrics.set("mapping.solve_imbalance",
              mapping::analyze_load_balance(s.part, s.solve_map, solve_work)
                  .imbalance(),
              "ratio");
  for (int bi = 0; bi < 2; ++bi) {
    const std::string b = kBackends[bi];
    std::vector<double> pf_compute, pf_idle, pf_gflops, rd_s;
    for (const FactorSample& f : factor_samples[bi]) {
      const Split sp = split_of(f.parfact_stats, exec::RunStats{});
      pf_compute.push_back(sp.compute);
      pf_idle.push_back(sp.idle);
      pf_gflops.push_back(static_cast<double>(f.parfact_stats.total_flops()) /
                          f.parfact / 1e9);
      rd_s.push_back(f.redist);
    }
    const FactorSample& f0 = factor_samples[bi].front();
    metrics.set("parfact." + b + ".compute_frac", median(pf_compute), "1");
    metrics.set("parfact." + b + ".idle_frac", median(pf_idle), "1");
    metrics.set("parfact." + b + ".gflops", median(pf_gflops), "GFLOP/s");
    metrics.set("parfact." + b + ".msgs",
                static_cast<double>(f0.parfact_stats.total_messages()),
                "count");
    metrics.set("parfact." + b + ".mb",
                mb_of_words(f0.parfact_stats.total_words()), "MB");
    metrics.set("redist." + b + ".s", median(rd_s), "s");
    metrics.set("redist." + b + ".msgs",
                static_cast<double>(f0.redist_stats.total_messages()),
                "count");
    metrics.set("redist." + b + ".mb",
                mb_of_words(f0.redist_stats.total_words()), "MB");

    std::vector<double> fwd, bwd, compute, send, idle;
    for (const SolveSample& v : solves[bi]) {
      fwd.push_back(v.fwd);
      bwd.push_back(v.bwd);
      const Split sp = split_of(v.fwd_stats, v.bwd_stats);
      compute.push_back(sp.compute);
      send.push_back(sp.send);
      idle.push_back(sp.idle);
    }
    const SolveSample& v0 = solves[bi].front();
    const std::string pre = "partrisolve." + b;
    metrics.set(pre + ".fwd_s", median(fwd), "s");
    metrics.set(pre + ".bwd_s", median(bwd), "s");
    metrics.set(pre + ".compute_frac", median(compute), "1");
    metrics.set(pre + ".send_frac", median(send), "1");
    metrics.set(pre + ".idle_frac", median(idle), "1");
    metrics.set(pre + ".other_frac",
                1.0 - median(compute) - median(send) - median(idle), "1");
    metrics.set(pre + ".msgs_per_batch",
                static_cast<double>(v0.fwd_stats.total_messages() +
                                    v0.bwd_stats.total_messages()),
                "count");
    metrics.set(pre + ".mb_per_batch",
                mb_of_words(v0.fwd_stats.total_words() +
                            v0.bwd_stats.total_words()),
                "MB");
    metrics.set(pre + ".copied_mb_per_batch",
                static_cast<double>(v0.fwd_stats.total_bytes_copied() +
                                    v0.bwd_stats.total_bytes_copied()) /
                    1e6,
                "MB");
  }
  const double solve_flops = 4.0 * static_cast<double>(s.nnz_l) *
                             static_cast<double>(m);
  metrics.set("trisolve.gflops", solve_flops / seq_p50 / 1e9, "GFLOP/s");
  metrics.set("host.nproc", std::thread::hardware_concurrency(), "count");
  metrics.set("host.isa_tier", isa_tier(isa), "tier");

  if (traced) {
    metrics.set("trace_overhead_pct",
                100.0 * (median(traced_batch) / median(untraced_batch) - 1.0),
                "%");
    Rng probe_rng(args.seed ^ 0x9e3779b97f4a7c15ULL);
    const std::vector<real_t> rhs = sparse::random_rhs(n, m, probe_rng);

    // p = 1 on the same backends: the solver's fixed cost over the
    // sequential baseline.
    const mapping::SubcubeMapping map1 = mapping::subtree_to_subcube(s.part, 1);
    for (int bi = 0; bi < 2; ++bi) {
      const std::string b = kBackends[bi];
      auto comm1 = make_backend(b, 1);
      const partrisolve::DistributedTrisolver solver1(kept[bi]->factor, map1,
                                                      {});
      std::vector<double> t;
      for (int k = 0; k < kProbeBatches; ++k) {
        t.push_back(run_solve(solver1, *comm1, b + ".p1", rhs, y, x[bi], m)
                        .total());
      }
      metrics.set("partrisolve." + b + ".p1_over_seq", median(t) / seq_p50,
                  "ratio");
    }

    // Scheduler counters and the executed critical path on tasks.
    auto& tasks = dynamic_cast<exec::TaskBackend&>(*comm[1]);
    std::vector<double> steals, parks, par, mk;
    for (int k = 0; k < kProbeBatches; ++k) {
      double st = 0.0, pk = 0.0, t1 = 0.0, tinf = 0.0, make = 0.0, bound = 0.0;
      const auto phase = [&](const char* name,
                             const std::function<void()>& fn) {
        timed(name, "tasks.cp", fn);
        const exec::SchedulerStats ss = tasks.last_scheduler_stats();
        obs::CriticalPathReport cp;
        timed("obs.critical_path", "tasks", [&] {
          cp = obs::critical_path(tasks.last_executed_profile(), ss.workers);
        });
        st += static_cast<double>(ss.steals);
        pk += static_cast<double>(ss.parks);
        t1 += cp.t1;
        tinf += cp.t_inf;
        make += cp.makespan;
        bound += cp.span_bound;
      };
      phase("partrisolve.forward",
            [&] { kept[1]->solver->forward(tasks, rhs, y, m); });
      phase("partrisolve.backward",
            [&] { kept[1]->solver->backward(tasks, y, x[1], m); });
      steals.push_back(st);
      parks.push_back(pk);
      par.push_back(tinf > 0.0 ? t1 / tinf : 0.0);
      mk.push_back(bound > 0.0 ? make / bound : 0.0);
    }
    metrics.set("exec.tasks.steals_per_batch", median(steals), "count");
    metrics.set("exec.tasks.parks_per_batch", median(parks), "count");
    metrics.set("exec.tasks.cp_parallelism", median(par), "ratio");
    metrics.set("exec.tasks.cp_makespan_over_bound", median(mk), "ratio");
    for (int bi = 0; bi < 2; ++bi) {
      metrics.set(std::string("exec.") + kBackends[bi] + ".empty_run_us",
                  empty_run_us(*comm[bi], kBackends[bi]), "us");
    }

    // The simulator's T3D prediction for the same program at p = 4.
    double sim_s = 0.0;
    timed("simpar", "", [&] {
      simpar::Machine machine(t3d_config(kProcs));
      const partrisolve::DistributedTrisolver solver(kept[0]->factor,
                                                     s.solve_map, {});
      sim_s = solver.forward(machine, rhs, y, m).time() +
              solver.backward(machine, y, x[0], m).time();
    });
    metrics.set("simpar.solve_s", sim_s, "s");
    for (int bi = 0; bi < 2; ++bi) {
      metrics.set(std::string("model.sim_over_measured.") + kBackends[bi],
                  sim_s / solve_p50[bi], "ratio");
    }

    // Kernel replay at the solve's panel shapes: tiled, then reference.
    const dense::KernelImpl saved = dense::kernel_impl();
    Replay tiled, ref;
    timed("dense.replay", "tiled", [&] {
      dense::set_kernel_impl(dense::KernelImpl::tiled);
      tiled = replay_kernels(kept[0]->factor, rhs, m);
    });
    timed("dense.replay", "reference", [&] {
      dense::set_kernel_impl(dense::KernelImpl::reference);
      ref = replay_kernels(kept[0]->factor, rhs, m);
    });
    dense::set_kernel_impl(saved);
    metrics.set("dense.replay_s", tiled.total_seconds(), "s");
    const char* bucket_names[] = {"w8", "w32", "wide"};
    for (int k = 0; k < 3; ++k) {
      metrics.set(std::string("dense.gflops.") + bucket_names[k],
                  tiled.seconds[k] > 0.0
                      ? tiled.flops[k] / tiled.seconds[k] / 1e9
                      : 0.0,
                  "GFLOP/s");
    }
    metrics.set("dense.tiled_over_ref",
                tiled.total_seconds() / ref.total_seconds(), "ratio");
    metrics.set("host.gemm_gflops.start", gemm_start, "GFLOP/s");
    double gemm_end = 0.0;
    timed("host.gemm_probe", "", [&] { gemm_end = gemm_probe_gflops(); });
    metrics.set("host.gemm_gflops.end", gemm_end, "GFLOP/s");
  }
  spans().close(root);

  // --- output ----------------------------------------------------------------
  std::vector<double> batch0;
  for (const SolveSample& v : solves[0]) batch0.push_back(v.total());
  const double p90 = quantile(batch0, 0.9);
  const auto beyond_p90 = std::count_if(batch0.begin(), batch0.end(),
                                        [&](double t) { return t > p90; });
  std::ofstream out(args.json);
  out << "{\n  \"workload\": \"" << wl->name << "\",\n  \"seed\": "
      << args.seed << ",\n  \"traced\": " << (traced ? "true" : "false")
      << ",\n  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"isa\": \"" << isa << "\", \"build_type\": \""
      << SPARTS_E2E_BUILD_TYPE << "\", \"kernels\": \""
      << dense::kernel_impl_name(dense::kernel_impl()) << "\"},\n"
      << "  \"problem\": {\"n\": " << n << ", \"nnz_a\": " << s.a.nnz_lower()
      << ", \"nnz_l\": " << s.nnz_l << ", \"supernodes\": "
      << s.part.num_supernodes() << ", \"factor_flops\": " << s.factor_flops
      << ", \"m\": " << m << ", \"p\": " << kProcs << "},\n"
      << "  \"samples\": {\"setup\": " << setup_times.total.size()
      << ", \"factor\": " << factor_samples[0].size()
      << ", \"batches\": " << batches << ", \"beyond_p90\": " << beyond_p90
      << "},\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
      << ",\n  \"identical\": " << (identical ? "true" : "false")
      << ",\n  \"metrics\": ";
  metrics.write(out);
  out << "\n}\n";
  if (!out) {
    std::cerr << "bench_e2e: cannot write " << args.json << "\n";
    return 1;
  }
  if (traced) {
    std::ofstream tout(args.trace);
    spans().write(tout, wl->name);
    if (!tout) {
      std::cerr << "bench_e2e: cannot write " << args.trace << "\n";
      return 1;
    }
  }
  return 0;
}

int usage() {
  std::cerr << "usage: bench_e2e --workload NAME --seed S --seconds T "
               "--json FILE [--trace FILE]\nworkloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace
}  // namespace sparts::bench

int main(int argc, char** argv) {
  using sparts::bench::Args;
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return sparts::bench::usage();
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--json") {
        args.json = value;
      } else if (flag == "--trace") {
        args.trace = value;
      } else {
        return sparts::bench::usage();
      }
    }
  } catch (const std::exception&) {
    return sparts::bench::usage();
  }
  if (args.workload.empty() || args.json.empty()) {
    return sparts::bench::usage();
  }
  try {
    return sparts::bench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
}
