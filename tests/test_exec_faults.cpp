// Unit tests of the fault-tolerance exec layer: FaultPlan parsing, the
// polling primitives (try_recv / poll_wait) on both backends, and the
// reliability envelope recovering from injected drops, duplicates,
// reorders, stalls and crashes.  Solver-level scenarios live in
// test_fault_tolerance.cpp; these tests drive the decorator stack
// Reliable(Faulty(backend)) directly with hand-written SPMD bodies.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "exec/checked_backend.hpp"
#include "exec/fault_backend.hpp"
#include "exec/reliable.hpp"
#include "exec/task_backend.hpp"
#include "exec/thread_backend.hpp"
#include "simpar/machine.hpp"

namespace sparts {
namespace {

std::unique_ptr<simpar::Machine> make_sim(index_t p) {
  simpar::Machine::Config cfg;
  cfg.nprocs = p;
  cfg.cost = exec::CostModel::t3d();
  return std::make_unique<simpar::Machine>(cfg);
}

std::unique_ptr<exec::ThreadBackend> make_threads(index_t p,
                                                  double timeout = 30.0) {
  exec::ThreadBackend::Config cfg;
  cfg.nprocs = p;
  cfg.recv_timeout = timeout;
  return std::make_unique<exec::ThreadBackend>(cfg);
}

/// Payload content as a pure function of (src, tag, len): receivers can
/// verify integrity without a side channel.
std::vector<real_t> stamp(index_t src, int tag, index_t len) {
  std::vector<real_t> v(static_cast<std::size_t>(len));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<real_t>(src) * 1000.0 + static_cast<real_t>(tag) +
           static_cast<real_t>(i) * 0.5;
  }
  return v;
}

// ---------------------------------------------------------------------------
// FaultPlan spec parsing.

TEST(FaultPlan, ParseFullSpec) {
  const auto plan = exec::FaultPlan::parse(
      "seed=42,drop=0.05,dup=0.02,delay=0.1:0.01,reorder=0.25,"
      "stall=2@0.5,crash=1@40,max_faults=100");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.drop, 0.05);
  EXPECT_DOUBLE_EQ(plan.dup, 0.02);
  EXPECT_DOUBLE_EQ(plan.delay_prob, 0.1);
  EXPECT_DOUBLE_EQ(plan.delay_seconds, 0.01);
  EXPECT_DOUBLE_EQ(plan.reorder, 0.25);
  EXPECT_EQ(plan.stall_rank, 2);
  EXPECT_DOUBLE_EQ(plan.stall_seconds, 0.5);
  EXPECT_EQ(plan.crash_rank, 1);
  EXPECT_EQ(plan.crash_after, 40);
  EXPECT_EQ(plan.max_faults, 100);
  EXPECT_TRUE(plan.any_message_faults());
  EXPECT_FALSE(plan.summary().empty());
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(exec::FaultPlan::parse("bogus=1"), InvalidArgument);
  EXPECT_THROW(exec::FaultPlan::parse("drop"), InvalidArgument);
  EXPECT_THROW(exec::FaultPlan::parse("drop=abc"), InvalidArgument);
  EXPECT_THROW(exec::FaultPlan::parse("drop=1.5"), InvalidArgument);
  EXPECT_THROW(exec::FaultPlan::parse("dup=-0.1"), InvalidArgument);
  EXPECT_THROW(exec::FaultPlan::parse("delay=0.1"), InvalidArgument);
  EXPECT_THROW(exec::FaultPlan::parse("delay=0.1:-2"), InvalidArgument);
  EXPECT_THROW(exec::FaultPlan::parse("stall=1"), InvalidArgument);
  EXPECT_THROW(exec::FaultPlan::parse("crash=0"), InvalidArgument);
  EXPECT_THROW(exec::FaultPlan::parse("seed=1x"), InvalidArgument);
}

TEST(FaultPlan, DefaultPlanInjectsNothing) {
  const exec::FaultPlan plan;
  EXPECT_FALSE(plan.any_message_faults());
  EXPECT_EQ(plan.stall_rank, -1);
  EXPECT_EQ(plan.crash_rank, -1);
}

// ---------------------------------------------------------------------------
// try_recv / poll_wait semantics.

void try_recv_spmd(exec::Process& proc) {
  if (proc.rank() == 0) {
    proc.send_values<real_t>(1, 7, stamp(0, 7, 16));
  } else {
    exec::ReceivedMessage msg;
    // A tag nobody sends: try_recv must say no without blocking.
    EXPECT_FALSE(proc.try_recv(0, 99, &msg));
    int polls = 0;
    while (!proc.try_recv(0, 7, &msg)) {
      proc.poll_wait(1e-4);
      ASSERT_LT(++polls, 1000000) << "message never arrived";
    }
    EXPECT_EQ(msg.source, 0);
    ASSERT_EQ(msg.payload.size(), 16 * sizeof(real_t));
    const auto want = stamp(0, 7, 16);
    EXPECT_EQ(std::memcmp(msg.payload.data(), want.data(),
                          msg.payload.size()),
              0);
  }
}

TEST(TryRecv, PollsToCompletionOnSimulator) {
  make_sim(2)->run(try_recv_spmd);
}

TEST(TryRecv, PollsToCompletionOnThreads) {
  make_threads(2)->run(try_recv_spmd);
}

// ---------------------------------------------------------------------------
// Reliability envelope, clean path.

TEST(Reliable, CleanPingPongPreservesPayloadAndCountsSends) {
  exec::ReliableBackend backend(make_sim(2),
                                exec::ReliableConfig::for_simulated());
  backend.run([](exec::Process& proc) {
    if (proc.rank() == 0) {
      proc.send_values<real_t>(1, 7, stamp(0, 7, 64));
      const auto back = proc.recv_values<real_t>(1, 8);
      EXPECT_EQ(back, stamp(1, 8, 32));
    } else {
      const auto got = proc.recv_values<real_t>(0, 7);
      EXPECT_EQ(got, stamp(0, 7, 64));
      proc.send_values<real_t>(0, 8, stamp(1, 8, 32));
    }
  });
  const auto& st = backend.stats();
  EXPECT_EQ(st.data_sends, 2);
  EXPECT_EQ(st.retransmits, 0);
  EXPECT_EQ(st.dup_discarded, 0);
  EXPECT_EQ(st.timeouts, 0);
  // Both ranks report a finished body.
  for (const auto& prog : backend.progress()) EXPECT_TRUE(prog.finished);
}

TEST(Reliable, RejectsSendsOnTheControlTag) {
  exec::ReliableBackend backend(make_sim(2),
                                exec::ReliableConfig::for_simulated());
  EXPECT_THROW(backend.run([](exec::Process& proc) {
    if (proc.rank() == 0) {
      proc.send_values<real_t>(1, exec::kCtrlTag, stamp(0, 0, 1));
    }
  }),
               Error);
}

// ---------------------------------------------------------------------------
// Recovery from injected message faults.

/// Ring exchange: `rounds` rounds, every rank sends to its successor and
/// receives from its predecessor, each message on a unique tag.
void ring_spmd(exec::Process& proc, index_t rounds) {
  const index_t p = proc.nprocs();
  const index_t next = (proc.rank() + 1) % p;
  const index_t prev = (proc.rank() + p - 1) % p;
  for (index_t r = 0; r < rounds; ++r) {
    const int tag_out = static_cast<int>(100 + r * p + proc.rank());
    const int tag_in = static_cast<int>(100 + r * p + prev);
    proc.send_values<real_t>(next, tag_out, stamp(proc.rank(), tag_out, 32));
    const auto got = proc.recv_values<real_t>(prev, tag_in);
    ASSERT_EQ(got, stamp(prev, tag_in, 32));
  }
}

TEST(Reliable, RecoversFromDroppedMessagesOnSimulator) {
  auto faulty = std::make_unique<exec::FaultyBackend>(
      make_sim(4), exec::FaultPlan::parse("seed=42,drop=0.4"));
  const exec::FaultyBackend* fb = faulty.get();
  exec::ReliableBackend backend(std::move(faulty),
                                exec::ReliableConfig::for_simulated());
  backend.run([](exec::Process& proc) { ring_spmd(proc, 6); });
  EXPECT_GT(fb->stats().drops, 0);
  const auto& st = backend.stats();
  EXPECT_EQ(st.data_sends, 4 * 6);
  EXPECT_GT(st.retransmits, 0);
  // Bounded-retransmit budget: every message is retransmitted at most
  // max_retry + 1 times, so total retransmits can never exceed that
  // multiple of the data sends.
  const auto budget =
      static_cast<std::int64_t>(backend.config().max_retry + 1) *
      st.data_sends;
  EXPECT_LE(st.retransmits, budget);
  EXPECT_EQ(st.timeouts, 0);
}

TEST(Reliable, RecoversFromDroppedMessagesOnThreads) {
  auto faulty = std::make_unique<exec::FaultyBackend>(
      make_threads(4), exec::FaultPlan::parse("seed=7,drop=0.3"));
  exec::ReliableConfig cfg = exec::ReliableConfig::for_threads();
  cfg.timeout = 0.005;  // keep the retransmit waits short for test speed
  exec::ReliableBackend backend(std::move(faulty), cfg);
  backend.run([](exec::Process& proc) { ring_spmd(proc, 4); });
  EXPECT_GT(backend.stats().retransmits, 0);
  EXPECT_EQ(backend.stats().timeouts, 0);
}

TEST(Reliable, WaitsOutAComputingSenderOnTasks) {
  // poll_wait waits `seconds` of wall time on the fiber backend too.  The
  // envelope counts every poll as that long, so a poll that returned
  // after one yield ran the whole 20-NACK horizon (about 2,400 polls)
  // out in a few milliseconds while the sender was still computing on
  // the other worker.
  exec::TaskBackend::Config cfg;
  cfg.nprocs = 2;
  cfg.scheduler.workers = 2;
  auto faulty = std::make_unique<exec::FaultyBackend>(
      std::make_unique<exec::TaskBackend>(cfg),
      exec::FaultPlan::parse("seed=1"));
  exec::ReliableBackend backend(std::move(faulty),
                                exec::ReliableConfig::for_threads());
  backend.run([](exec::Process& proc) {
    if (proc.rank() == 0) {
      // ~100 ms of computation that, like a kernel, never yields.
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
      while (std::chrono::steady_clock::now() < until) {
      }
      proc.send_values<real_t>(1, 7, stamp(0, 7, 16));
    } else {
      EXPECT_EQ(proc.recv_values<real_t>(0, 7), stamp(0, 7, 16));
    }
  });
  EXPECT_EQ(backend.stats().timeouts, 0);
}

TEST(Reliable, DiscardsDuplicatesOnASharedTagStream) {
  // All messages share one (src, tag) edge so a duplicated copy can be
  // matched by a later recv — exactly the case receiver-side dedup exists
  // for.  With dup=1 every send is delivered twice.
  auto faulty = std::make_unique<exec::FaultyBackend>(
      make_sim(2), exec::FaultPlan::parse("seed=3,dup=1.0"));
  exec::ReliableBackend backend(std::move(faulty),
                                exec::ReliableConfig::for_simulated());
  constexpr index_t kMsgs = 8;
  backend.run([](exec::Process& proc) {
    if (proc.rank() == 0) {
      for (index_t k = 0; k < kMsgs; ++k) {
        const real_t v = static_cast<real_t>(k);
        proc.send_values<real_t>(1, 5, {&v, 1});
      }
    } else {
      for (index_t k = 0; k < kMsgs; ++k) {
        const auto got = proc.recv_values<real_t>(0, 5);
        ASSERT_EQ(got.size(), 1u);
        // Dedup preserves the send order on a FIFO inner backend.
        EXPECT_DOUBLE_EQ(got[0], static_cast<real_t>(k));
      }
    }
  });
  EXPECT_GT(backend.stats().dup_discarded, 0);
}

TEST(Reliable, ReorderedMessagesStillMatchTheirTags) {
  auto faulty = std::make_unique<exec::FaultyBackend>(
      make_sim(2), exec::FaultPlan::parse("seed=5,reorder=1.0"));
  const exec::FaultyBackend* fb = faulty.get();
  exec::ReliableBackend backend(std::move(faulty),
                                exec::ReliableConfig::for_simulated());
  backend.run([](exec::Process& proc) {
    if (proc.rank() == 0) {
      for (int tag = 10; tag < 18; ++tag) {
        proc.send_values<real_t>(1, tag, stamp(0, tag, 8));
      }
    } else {
      // Receive in reverse send order; tag matching must pair each recv
      // with the right payload regardless of arrival order.
      for (int tag = 17; tag >= 10; --tag) {
        EXPECT_EQ(proc.recv_values<real_t>(0, tag), stamp(0, tag, 8));
      }
    }
  });
  EXPECT_GT(fb->stats().reorders, 0);
}

TEST(Faulty, DelayedMessagesAreReleasedAndDelivered) {
  auto faulty = std::make_unique<exec::FaultyBackend>(
      make_sim(2), exec::FaultPlan::parse("seed=9,delay=1.0:0.0005"));
  const exec::FaultyBackend* fb = faulty.get();
  exec::ReliableBackend backend(std::move(faulty),
                                exec::ReliableConfig::for_simulated());
  backend.run([](exec::Process& proc) { ring_spmd(proc, 3); });
  EXPECT_GT(fb->stats().delays, 0);
}

TEST(Faulty, StallFiresOnceAndRunCompletes) {
  auto faulty = std::make_unique<exec::FaultyBackend>(
      make_sim(2), exec::FaultPlan::parse("seed=1,stall=1@0.01"));
  const exec::FaultyBackend* fb = faulty.get();
  exec::ReliableBackend backend(std::move(faulty),
                                exec::ReliableConfig::for_simulated());
  backend.run([](exec::Process& proc) { ring_spmd(proc, 2); });
  EXPECT_EQ(fb->stats().stalls, 1);
}

// ---------------------------------------------------------------------------
// Crash and timeout aborts.

TEST(Faulty, CrashThrowsInjectedFaultOnSimulator) {
  // Bare fault layer, no envelope: the crash must surface as InjectedFault
  // ahead of the secondary deadlock unwind of the blocked peer.
  exec::FaultyBackend backend(make_sim(2),
                              exec::FaultPlan::parse("seed=1,crash=1@2"));
  EXPECT_THROW(backend.run([](exec::Process& proc) { ring_spmd(proc, 4); }),
               InjectedFault);
  EXPECT_EQ(backend.stats().crashes, 1);
}

TEST(Faulty, CrashThrowsInjectedFaultOnThreadsWithoutHanging) {
  auto faulty = std::make_unique<exec::FaultyBackend>(
      make_threads(4, /*timeout=*/5.0),
      exec::FaultPlan::parse("seed=1,crash=2@3"));
  exec::ReliableConfig cfg = exec::ReliableConfig::for_threads();
  cfg.timeout = 0.02;
  cfg.max_retry = 3;
  exec::ReliableBackend backend(std::move(faulty), cfg);
  // The run must end (no leaked threads, no hang) and the root cause must
  // win the rethrow-priority contest over TimeoutError/DeadlockError.
  EXPECT_THROW(backend.run([](exec::Process& proc) { ring_spmd(proc, 8); }),
               InjectedFault);
}

TEST(Reliable, TimeoutAbortCarriesProgressReport) {
  exec::ReliableConfig cfg = exec::ReliableConfig::for_simulated();
  cfg.max_retry = 2;  // give up quickly
  exec::ReliableBackend backend(make_sim(2), cfg);
  try {
    backend.run([](exec::Process& proc) {
      if (proc.rank() == 1) {
        exec::note_progress(proc, "waiting for a ghost");
        proc.recv_values<real_t>(0, 9);  // rank 0 never sends this
      }
    });
    FAIL() << "expected TimeoutError";
  } catch (const TimeoutError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gave up waiting"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("waiting for a ghost"), std::string::npos) << what;
  }
}

TEST(Reliable, NoteProgressIsANoOpOnPlainBackends) {
  // note_progress must be callable from solver code on every backend.
  make_sim(2)->run([](exec::Process& proc) {
    exec::note_progress(proc, "plain backend, nothing to record");
    const exec::ProgressNotes notes(proc);
    notes.note("fw supernode", 7);
  });
}

TEST(Reliable, ProgressNotesNameTheSupernodeInTheReport) {
  // The per-supernode form renders "<what> <id>", the text the solver's
  // timeout and crash reports have always carried — also when the message
  // audit wraps the envelope, as it does in the solver's stack.
  exec::ReliableConfig cfg = exec::ReliableConfig::for_simulated();
  cfg.max_retry = 2;
  for (const bool audited : {false, true}) {
    std::unique_ptr<exec::Comm> backend =
        std::make_unique<exec::ReliableBackend>(make_sim(2), cfg);
    if (audited) {
      backend = std::make_unique<exec::CheckedBackend>(std::move(backend));
    }
    try {
      backend->run([](exec::Process& proc) {
        if (proc.rank() == 1) {
          const exec::ProgressNotes notes(proc);
          notes.note("fw supernode", 111);
          notes.note("fw supernode", 112);
          proc.recv_values<real_t>(0, 9);  // rank 0 never sends this
        }
      });
      ADD_FAILURE() << "expected TimeoutError, audited " << audited;
    } catch (const TimeoutError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("at fw supernode 112"), std::string::npos)
          << "audited " << audited << ": " << what;
    }
  }
}

}  // namespace
}  // namespace sparts
