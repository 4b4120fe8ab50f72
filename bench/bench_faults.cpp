// E16 — the price of fault tolerance: what the reliability envelope costs
// when nothing goes wrong, and what recovery costs when something does.
//
// All rows run the full parallel pipeline (factorization, redistribution,
// forward, backward) on the real thread backend, where times are wall
// clocks and the envelope's timeouts are physical:
//
//   * clean_threads      — plain exec::ThreadBackend, no envelope.
//   * envelope_threads   — the fault stack with an empty fault plan: every
//     message pays the wire trailer and sequence bookkeeping, but no
//     fault is injected.  `overhead_pct` vs clean_threads is the headline;
//     the budget is < 5% on a compute-dominated workload.
//   * delay_*            — a fraction of messages held for a fixed time;
//     `recovery_seconds` (extra wall time vs envelope_threads) against
//     `injected_delay_seconds` (count x hold time) shows the envelope
//     absorbing delays it never even NACKs for.
//   * drop_10pct         — 10% of data messages silently dropped;
//     recovery is NACK-driven retransmission, so the extra time tracks the
//     retransmit timeout (SPARTS_TIMEOUT_MS) rather than the drop count.
//
// Wall clocks are noisy: each configuration reports the best of kReps
// runs.  JSON lands in BENCH_faults.json (SPARTS_BENCH_FAULTS_JSON
// overrides the path).  See docs/robustness.md.
#include <algorithm>

#include "bench_common.hpp"

namespace sparts::bench {
namespace {

constexpr int kReps = 5;

struct Scenario {
  std::string name;
  std::string plan;  ///< FaultPlan spec; empty = no envelope (plain threads)
  double hold_seconds = 0.0;  ///< per-delayed-message hold, for reporting
};

struct Measurement {
  double seconds = 0.0;
  std::int64_t faults = 0;
  std::int64_t retransmits = 0;
  std::int64_t dup_discarded = 0;
};

Measurement measure(const sparse::SymmetricCsc& a,
                    const std::vector<real_t>& b, const Scenario& sc) {
  solver::Options opt;
  opt.backend = solver::ExecutionBackend::threads;
  if (!sc.plan.empty()) opt.faults = exec::FaultPlan::parse(sc.plan);
  Measurement best;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto r = solver::parallel_solve(a, b, 1, 4, opt);
    SPARTS_CHECK(trisolve::relative_residual(a, r.x, b, 1) < 1e-9,
                 "bench_faults: solve did not converge for " << sc.name);
    const double t = r.factor_time + r.redist_time + r.forward_time +
                     r.backward_time;
    if (rep == 0 || t < best.seconds) {
      best.seconds = t;
      best.faults = r.faults_injected;
      best.retransmits = r.retransmits;
      best.dup_discarded = r.dup_discarded;
    }
  }
  return best;
}

void run() {
  print_header("E16 (fault tolerance)",
               "reliability envelope overhead and recovery latency");
  const double scale = bench_scale();
  // 9-point coupling: enough compute per message that the envelope's
  // per-message bookkeeping has a realistic (small) denominator — the
  // overhead budget is defined for compute-dominated workloads.
  const index_t k = std::max<index_t>(40, static_cast<index_t>(95 * scale));
  const sparse::SymmetricCsc a = sparse::grid2d(k, k, 9);
  Rng rng(1234);
  const std::vector<real_t> b = sparse::random_rhs(a.n(), 1, rng);
  std::cout << "workload: grid2d " << k << "x" << k << " (9-point)  N = "
            << a.n() << "  p = 4  (best of " << kReps
            << " wall-clock runs)\n\n";

  const std::vector<Scenario> scenarios = {
      {"clean_threads", "", 0.0},
      {"envelope_threads", "seed=1", 0.0},
      {"delay_1ms", "seed=3,delay=0.05:0.001", 0.001},
      {"delay_5ms", "seed=3,delay=0.05:0.005", 0.005},
      {"drop_10pct", "seed=42,drop=0.1", 0.0},
  };

  BenchJson json("faults", "SPARTS_BENCH_FAULTS_JSON");
  TextTable table({"scenario", "wall (s)", "vs clean", "faults", "retrans",
                   "recovery (s)", "injected delay (s)"});
  double clean = 0.0, envelope = 0.0;
  for (const Scenario& sc : scenarios) {
    const Measurement m = measure(a, b, sc);
    if (sc.name == "clean_threads") clean = m.seconds;
    if (sc.name == "envelope_threads") envelope = m.seconds;
    const double overhead_pct =
        clean > 0.0 ? (m.seconds / clean - 1.0) * 100.0 : 0.0;
    // Extra wall time attributable to the injected faults (vs the
    // fault-free enveloped run); meaningless for the two baselines.
    const double recovery =
        envelope > 0.0 ? std::max(0.0, m.seconds - envelope) : 0.0;
    const double injected_delay =
        static_cast<double>(m.faults) * sc.hold_seconds;
    table.new_row();
    table.add(sc.name);
    table.add(m.seconds, 5);
    table.add(overhead_pct / 100.0 + 1.0, 3);
    table.add(static_cast<long long>(m.faults));
    table.add(static_cast<long long>(m.retransmits));
    table.add(recovery, 5);
    table.add(injected_delay, 5);
    json.row()
        .field("scenario", sc.name)
        .field("n", a.n())
        .field("p", index_t{4})
        .field("wall_seconds", m.seconds)
        .field("overhead_pct", overhead_pct)
        .field("faults_injected", static_cast<long long>(m.faults))
        .field("retransmits", static_cast<long long>(m.retransmits))
        .field("dup_discarded", static_cast<long long>(m.dup_discarded))
        .field("recovery_seconds", recovery)
        .field("injected_delay_seconds", injected_delay);
  }
  std::cout << table;
  const double overhead =
      clean > 0.0 ? (envelope / clean - 1.0) * 100.0 : 0.0;
  std::cout << "\nenvelope clean-run overhead: " << overhead
            << "%  (budget: < 5% on compute-dominated workloads)\n"
            << "recovery latency for delay rows tracks the injected delay; "
               "for drop rows it\ntracks the retransmit timeout "
               "(SPARTS_TIMEOUT_MS, default 50 ms per NACK round).\n";
  json.write();
}

}  // namespace
}  // namespace sparts::bench

int main() {
  sparts::bench::run();
  return 0;
}
