// Backend stats conformance: the same deterministic SPMD program —
// point-to-point ring exchange, collectives, compute — must produce
// identical per-rank *event counts* (messages/words sent and received,
// flops) on the simulated backend, the threaded backend, and both
// wrapped in the checked decorator.  Times differ by design (virtual
// cost-model seconds vs wall clock); counts may not.  On the wall-clock
// backends the compute/send/idle split must also fit inside each rank's
// clock.  Registered under the CTest label `obs`.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "conformance_program.hpp"
#include "exec/checked_backend.hpp"
#include "exec/task_backend.hpp"
#include "exec/thread_backend.hpp"
#include "simpar/machine.hpp"

namespace sparts {
namespace {

constexpr index_t kProcs = 4;

/// The count fields of one rank (everything except times).
using RankCounts = std::tuple<nnz_t, nnz_t, nnz_t, nnz_t, nnz_t>;

std::vector<RankCounts> counts_of(const exec::RunStats& rs) {
  std::vector<RankCounts> out;
  for (const auto& p : rs.procs) {
    out.emplace_back(p.flops, p.messages_sent, p.words_sent,
                     p.messages_received, p.words_received);
  }
  return out;
}

void expect_same_counts(const exec::RunStats& expected,
                        const exec::RunStats& actual, const char* what) {
  ASSERT_EQ(expected.procs.size(), actual.procs.size()) << what;
  const auto want = counts_of(expected);
  const auto got = counts_of(actual);
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(want[r], got[r]) << what << ": rank " << r
                               << " count mismatch (flops, msgs_sent, "
                                  "words_sent, msgs_recv, words_recv)";
  }
}

/// Wall-clock time split: each part is non-negative and together they
/// fit in the rank's clock (seconds since the run started).  The slack
/// absorbs the rounding of summing nanosecond intervals as doubles.
void expect_wall_split(const exec::RunStats& rs, const char* what) {
  for (std::size_t r = 0; r < rs.procs.size(); ++r) {
    const exec::ProcStats& p = rs.procs[r];
    EXPECT_GE(p.compute_time, 0.0) << what << ": rank " << r;
    EXPECT_GE(p.send_time, 0.0) << what << ": rank " << r;
    EXPECT_GE(p.idle_time, 0.0) << what << ": rank " << r;
    EXPECT_LE(p.compute_time + p.send_time + p.idle_time, p.clock + 1e-9)
        << what << ": rank " << r << " compute+send+idle exceeds its clock";
  }
}

exec::RunStats run_simulated() {
  simpar::Machine::Config cfg;
  cfg.nprocs = kProcs;
  simpar::Machine m(cfg);
  return m.run(conformance_program);
}

TEST(StatsConformance, ProgramIsClosedOnSimulator) {
  const exec::RunStats rs = run_simulated();
  ASSERT_EQ(rs.procs.size(), static_cast<std::size_t>(kProcs));
  EXPECT_GT(rs.total_messages(), 0);
  // Closed run: every send was matched by a recv somewhere.
  EXPECT_EQ(rs.total_messages_received(), rs.total_messages());
  for (const auto& p : rs.procs) {
    EXPECT_GT(p.flops, 0);
    EXPECT_GT(p.messages_sent, 0);
    EXPECT_GT(p.messages_received, 0);
  }
}

TEST(StatsConformance, ThreadBackendMatchesSimulator) {
  const exec::RunStats sim = run_simulated();

  exec::ThreadBackend::Config cfg;
  cfg.nprocs = kProcs;
  cfg.recv_timeout = 30.0;
  exec::ThreadBackend threads(cfg);
  const exec::RunStats thr = threads.run(conformance_program);

  expect_same_counts(sim, thr, "threads vs sim");
  expect_wall_split(thr, "threads");
  EXPECT_EQ(thr.total_messages_received(), thr.total_messages());
}

TEST(StatsConformance, TaskBackendMatchesSimulator) {
  // The fiber-per-rank task backend runs the identical SPMD program on a
  // work-stealing worker pool; per-rank event counts must still match the
  // simulator exactly, at any worker count (including fewer workers than
  // ranks — the whole point of the backend).
  const exec::RunStats sim = run_simulated();
  for (const int workers : {1, 2, 8}) {
    exec::TaskBackend::Config cfg;
    cfg.nprocs = kProcs;
    cfg.scheduler.workers = workers;
    exec::TaskBackend tasks(cfg);
    const exec::RunStats rs = tasks.run(conformance_program);
    expect_same_counts(sim, rs, "tasks vs sim");
    expect_wall_split(rs, "tasks");
    EXPECT_EQ(rs.total_messages_received(), rs.total_messages());
    EXPECT_EQ(tasks.last_scheduler_stats().workers, workers);
  }
}

TEST(StatsConformance, CheckedDecoratorIsTransparentOnBothBackends) {
  const exec::RunStats sim = run_simulated();

  {
    simpar::Machine::Config cfg;
    cfg.nprocs = kProcs;
    simpar::Machine inner(cfg);
    exec::CheckedBackend checked(inner);
    const exec::RunStats rs = checked.run(conformance_program);
    expect_same_counts(sim, rs, "checked(sim) vs sim");
    EXPECT_TRUE(checked.report().clean()) << checked.report().summary();
  }
  {
    exec::ThreadBackend::Config cfg;
    cfg.nprocs = kProcs;
    cfg.recv_timeout = 30.0;
    exec::ThreadBackend inner(cfg);
    exec::CheckedBackend checked(inner);
    const exec::RunStats rs = checked.run(conformance_program);
    expect_same_counts(sim, rs, "checked(threads) vs sim");
    EXPECT_TRUE(checked.report().clean()) << checked.report().summary();
  }
}

}  // namespace
}  // namespace sparts
