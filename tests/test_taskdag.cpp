// The task execution core: Latch, the work-stealing scheduler's fork-join
// (run_all), and the fiber-based TaskBackend behind the Comm contract.
//
// The load-bearing assertions are the bit-identical ones: the TaskBackend
// must solve the paper's problems with exactly the floating-point results
// of the thread backend (same SPMD programs, same deterministic message
// matching; the full-pipeline tests live in test_taskdag_lowering.cpp).
// Here we pin the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/collectives.hpp"
#include "exec/latch.hpp"
#include "exec/task_backend.hpp"
#include "exec/task_scheduler.hpp"
#include "exec/thread_backend.hpp"
#include "obs/trace.hpp"

namespace sparts {
namespace {

TEST(Latch, ReleasesWaiterFromAnotherThread) {
  exec::Latch done(2);
  exec::TaskScheduler sched({.workers = 2});
  sched.submit([&](const exec::JobContext&) { done.count_down(); });
  sched.submit([&](const exec::JobContext&) { done.count_down(); });
  done.wait();
  done.wait();  // a latch that has reached zero releases every later wait
}

TEST(Latch, WaitBlocksUntilTheLastArrival) {
  // Arrivals one at a time: the waiter stays blocked through the first
  // two and is released by the third.
  exec::Latch done(3);
  exec::Latch waiter_exited(1);
  std::atomic<bool> released{false};
  exec::TaskScheduler sched({.workers = 1});
  sched.submit([&](const exec::JobContext&) {
    done.wait();
    released = true;
    waiter_exited.count_down();
  });
  done.count_down();
  done.count_down();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(released.load()) << "released before the last arrival";
  done.count_down();
  waiter_exited.wait();
  EXPECT_TRUE(released.load());
}

TEST(Latch, CountingDownPastZeroThrows) {
  exec::Latch done(1);
  done.count_down();
  done.wait();
  EXPECT_THROW(done.count_down(), Error);
  EXPECT_THROW(exec::Latch(-1), Error);
}

TEST(TaskScheduler, RunAllRunsEveryBodyOnceOnEveryWorkerCount) {
  // Every body is released at once and must run exactly once, whatever
  // the pool size and batch size.  The seed makes failures replayable.
  std::mt19937 rng(20260809);
  for (const int workers : {1, 2, 3, 4, 8, 16}) {
    exec::TaskScheduler sched({.workers = workers});
    for (int round = 0; round < 4; ++round) {
      const int n = 1 + static_cast<int>(rng() % 200);
      std::vector<std::atomic<int>> runs(static_cast<std::size_t>(n));
      std::vector<std::function<void()>> bodies;
      for (int i = 0; i < n; ++i) {
        bodies.emplace_back(
            [&runs, i] { runs[static_cast<std::size_t>(i)]++; });
      }
      sched.run_all(bodies);
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
            << "workers=" << workers << " round=" << round << " body=" << i;
      }
    }
    sched.run_all({});  // an empty batch returns at once
  }
}

/// True until `seconds` have passed since the call that made it: bounds
/// the rendezvous waits below, so a scheduler that fails to run bodies
/// side by side fails the test instead of hanging it.
auto within(double seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  return [deadline] { return std::chrono::steady_clock::now() < deadline; };
}

TEST(TaskScheduler, RunAllReleasesEveryBodyAtOnce) {
  // As many bodies as workers, each waiting until all of them have
  // started: they meet only if the call releases every body at once.
  constexpr int kWorkers = 4;
  exec::TaskScheduler sched({.workers = kWorkers});
  std::atomic<int> started{0};
  std::atomic<int> met{0};
  const auto waiting = within(10.0);
  const std::vector<std::function<void()>> bodies(kWorkers, [&] {
    started++;
    while (started.load() < kWorkers && waiting()) std::this_thread::yield();
    if (started.load() == kWorkers) met++;
  });
  sched.run_all(bodies);
  EXPECT_EQ(met.load(), kWorkers) << "bodies were not released together";
}

TEST(TaskScheduler, RunAllJoinsRunningBodiesBeforeRethrowing) {
  // Body 0 throws once the others are running: the call must wait for
  // them to finish before it rethrows (they hold references into the
  // caller's frame), and the error keeps its type.
  constexpr int kWorkers = 4;
  exec::TaskScheduler sched({.workers = kWorkers});
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::atomic<bool> thrown{false};
  const auto waiting = within(10.0);
  std::vector<std::function<void()>> bodies;
  bodies.emplace_back([&] {
    while (started.load() < kWorkers - 1 && waiting()) {
      std::this_thread::yield();
    }
    thrown = true;
    throw NumericalError("body 0");
  });
  for (int i = 1; i < kWorkers; ++i) {
    bodies.emplace_back([&] {
      started++;
      while (!thrown.load() && waiting()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      finished++;
    });
  }
  EXPECT_THROW(sched.run_all(bodies), NumericalError);
  EXPECT_EQ(started.load(), kWorkers - 1);
  EXPECT_EQ(finished.load(), started.load())
      << "the call returned while bodies still ran";
}

TEST(TaskScheduler, RunAllCancelsAfterAThrowAndRethrowsOnce) {
  // One worker runs the bodies one after another, so the first body to
  // run throws and every later one must be skipped: exactly one body
  // starts, and its error is the one rethrown.
  constexpr int kN = 16;
  std::atomic<int> started{0};
  std::atomic<int> first{-1};
  std::vector<std::function<void()>> bodies;
  for (int i = 0; i < kN; ++i) {
    bodies.emplace_back([&, i] {
      started++;
      first.store(i);
      throw Error("body " + std::to_string(i));
    });
  }
  exec::TaskScheduler sched({.workers = 1});
  try {
    sched.run_all(bodies);
    FAIL() << "expected the body's Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("body " + std::to_string(first)),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(started.load(), 1) << "a body started after cancellation";
  // The pool stays usable after a cancelled batch.
  std::atomic<int> ran{0};
  sched.run_all(std::vector<std::function<void()>>(3, [&ran] { ran++; }));
  EXPECT_EQ(ran.load(), 3);
}

TEST(TaskScheduler, RunAllFromAWorkerOfTheSamePoolThrows) {
  exec::TaskScheduler sched({.workers = 2});
  exec::TaskScheduler other({.workers = 1});
  const std::vector<std::function<void()>> one{[] {}};
  std::atomic<bool> same_threw{false};
  std::atomic<bool> other_ran{false};
  exec::Latch done(2);
  sched.submit([&](const exec::JobContext&) {
    try {
      sched.run_all(one);
    } catch (const Error&) {
      same_threw = true;
    }
    done.count_down();
  });
  // A worker of another pool may fork-join on this one.
  other.submit([&](const exec::JobContext&) {
    sched.run_all(one);
    other_ran = true;
    done.count_down();
  });
  done.wait();
  EXPECT_TRUE(same_threw.load());
  EXPECT_TRUE(other_ran.load());
}

/// One exported Chrome trace event: its phase, timestamp (microseconds)
/// and track.
struct ExportedEvent {
  std::string ph;
  double ts = 0.0;
  int tid = 0;
};

/// The exported events named `name`, in file order (the exporter writes
/// one event per line).
std::vector<ExportedEvent> events_named(const std::string& json,
                                        const std::string& name) {
  std::vector<ExportedEvent> out;
  std::istringstream lines(json);
  std::string line;
  const std::string key = "{\"name\": \"" + name + "\"";
  while (std::getline(lines, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto after = [&](const std::string& field) {
      return line.substr(line.find(field) + field.size());
    };
    out.push_back({after("\"ph\": \"").substr(0, 1),
                   std::stod(after("\"ts\": ")),
                   std::stoi(after("\"tid\": "))});
  }
  return out;
}

/// Exported tids of the scheduler worker tracks.
std::vector<int> worker_tids(const std::string& json) {
  std::vector<int> tids;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"thread_name\"") == std::string::npos ||
        line.find("\"worker ") == std::string::npos) {
      continue;
    }
    const std::string field = "\"tid\": ";
    tids.push_back(std::stoi(line.substr(line.find(field) + field.size())));
  }
  return tids;
}

TEST(TaskScheduler, TracedRunAllIsOneRunSegmentWithBalancedTaskSpans) {
  // A traced call opens its own run segment: every body's task_run span
  // lies between the timeline before the call and the timeline after it,
  // on a worker track, with one begin and one end per body.
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(1 << 14);
  tracer.advance_timeline(0.25);  // whatever ran before the call
  constexpr int kN = 24;
  std::atomic<int> ran{0};
  const std::vector<std::function<void()>> bodies(kN, [&ran] { ran++; });
  double before = 0.0;
  double after = 0.0;
  {
    exec::TaskScheduler sched({.workers = 3});
    before = tracer.timeline();
    sched.run_all(bodies);
    after = tracer.timeline();
  }  // joins the workers before the export reads their tracks
  tracer.disable();
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  tracer.clear();

  EXPECT_EQ(ran.load(), kN);
  EXPECT_GT(after, before) << "the call did not close its run segment";
  const std::string json = out.str();
  const std::vector<int> workers = worker_tids(json);
  int begins = 0;
  int ends = 0;
  for (const ExportedEvent& ev : events_named(json, "task_run")) {
    begins += ev.ph == "B" ? 1 : 0;
    ends += ev.ph == "E" ? 1 : 0;
    EXPECT_NE(std::find(workers.begin(), workers.end(), ev.tid),
              workers.end())
        << "task_run off a worker track";
    EXPECT_GE(ev.ts, before * 1e6 - 1.0) << "span before the call's segment";
    EXPECT_LE(ev.ts, after * 1e6 + 1.0) << "span after the call's segment";
  }
  EXPECT_EQ(begins, kN);
  EXPECT_EQ(ends, kN);
}

TEST(TaskScheduler, TracedRunAllThatThrowsStillClosesItsSegment) {
  // An error does not leave the trace inside the call's run segment: the
  // segment is closed before the rethrow, and the throwing body's
  // task_run span is closed too.  One worker, so the bodies after the
  // first are cancelled and write no span.
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(1 << 14);
  tracer.advance_timeline(0.25);  // whatever ran before the call
  double before = 0.0;
  double after = 0.0;
  {
    exec::TaskScheduler sched({.workers = 1});
    const std::vector<std::function<void()>> bodies(
        4, [] { throw Error("traced body"); });
    before = tracer.timeline();
    EXPECT_THROW(sched.run_all(bodies), Error);
    after = tracer.timeline();
  }  // joins the worker before the export reads its track
  tracer.disable();
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  tracer.clear();

  EXPECT_GT(after, before) << "the call did not close its run segment";
  const std::string json = out.str();
  const std::vector<int> workers = worker_tids(json);
  int begins = 0;
  int ends = 0;
  for (const ExportedEvent& ev : events_named(json, "task_run")) {
    begins += ev.ph == "B" ? 1 : 0;
    ends += ev.ph == "E" ? 1 : 0;
    EXPECT_NE(std::find(workers.begin(), workers.end(), ev.tid),
              workers.end())
        << "task_run off a worker track";
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
}

// ---------------------------------------------------------------------------
// TaskBackend: the Comm contract on fibers
// ---------------------------------------------------------------------------

exec::TaskBackend make_tasks(index_t p, int workers = 2) {
  exec::TaskBackend::Config cfg;
  cfg.nprocs = p;
  cfg.scheduler.workers = workers;
  return exec::TaskBackend(cfg);
}

TEST(TaskBackend, RingExchangeCompletesOnFewerWorkersThanRanks) {
  constexpr index_t p = 8;
  exec::TaskBackend backend = make_tasks(p, /*workers=*/2);
  std::vector<index_t> seen(static_cast<std::size_t>(p), -1);
  const exec::RunStats rs = backend.run([&](exec::Process& proc) {
    const index_t r = proc.rank();
    const index_t next = (r + 1) % p;
    proc.send_value<index_t>(next, /*tag=*/7, r);
    seen[static_cast<std::size_t>(r)] =
        proc.recv_value<index_t>((r + p - 1) % p, /*tag=*/7);
  });
  for (index_t r = 0; r < p; ++r) {
    EXPECT_EQ(seen[static_cast<std::size_t>(r)], (r + p - 1) % p);
  }
  EXPECT_EQ(rs.total_messages(), p);
  EXPECT_EQ(rs.total_messages_received(), p);
}

TEST(TaskBackend, CollectivesMatchOnSingleWorker) {
  // One worker, eight fibers: every rank blocks at the broadcast /
  // reduction trees, so progress relies entirely on fiber switching.
  constexpr index_t p = 8;
  exec::TaskBackend backend = make_tasks(p, /*workers=*/1);
  std::vector<real_t> sums(static_cast<std::size_t>(p), 0.0);
  backend.run([&](exec::Process& proc) {
    const exec::Group world{0, proc.nprocs(), 1};
    std::vector<real_t> v{static_cast<real_t>(proc.rank() + 1)};
    exec::reduce_sum_to(proc, world, 0, v, /*tag_base=*/100);
    exec::broadcast_from(proc, world, 0, v, /*tag_base=*/200);
    sums[static_cast<std::size_t>(proc.rank())] = v[0];
  });
  for (index_t r = 0; r < p; ++r) {
    EXPECT_DOUBLE_EQ(sums[static_cast<std::size_t>(r)],
                     static_cast<real_t>(p * (p + 1) / 2));
  }
}

TEST(TaskBackend, AnySourceFanInDrainsEveryMessage) {
  constexpr index_t p = 6;
  exec::TaskBackend backend = make_tasks(p, /*workers=*/3);
  std::atomic<index_t> total{0};
  backend.run([&](exec::Process& proc) {
    if (proc.rank() == 0) {
      for (index_t i = 0; i < p - 1; ++i) {
        total += proc.recv_value<index_t>(exec::kAnySource, /*tag=*/3);
      }
    } else {
      proc.send_value<index_t>(0, /*tag=*/3, proc.rank());
    }
  });
  EXPECT_EQ(total.load(), p * (p - 1) / 2);
}

TEST(TaskBackend, DeadlockIsDetectedWithoutTimeout) {
  // Two ranks each waiting for the other: the exact stall detector must
  // fire (all live fibers blocked), not a timeout.
  exec::TaskBackend backend = make_tasks(2, /*workers=*/2);
  EXPECT_THROW(backend.run([&](exec::Process& proc) {
                 proc.recv(1 - proc.rank(), /*tag=*/1);
               }),
               DeadlockError);
}

TEST(TaskBackend, WaitingOnFinishedPeersIsDeadlock) {
  // Rank 1 exits immediately; rank 0 waits forever on it.
  exec::TaskBackend backend = make_tasks(2, /*workers=*/1);
  EXPECT_THROW(backend.run([&](exec::Process& proc) {
                 if (proc.rank() == 0) proc.recv(1, /*tag=*/9);
               }),
               DeadlockError);
}

TEST(TaskBackend, RankErrorAbortsBlockedPeersAndSurfacesRootCause) {
  constexpr index_t p = 4;
  exec::TaskBackend backend = make_tasks(p, /*workers=*/2);
  try {
    backend.run([&](exec::Process& proc) {
      if (proc.rank() == 2) throw NumericalError("pivot broke");
      proc.recv((proc.rank() + 1) % p, /*tag=*/5);
    });
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("pivot broke"), std::string::npos);
  }
}

TEST(TaskBackend, TryRecvPollsWithoutBlocking) {
  exec::TaskBackend backend = make_tasks(2, /*workers=*/2);
  backend.run([&](exec::Process& proc) {
    if (proc.rank() == 0) {
      exec::ReceivedMessage msg;
      while (!proc.try_recv(1, /*tag=*/4, &msg)) proc.poll_wait(1e-4);
      EXPECT_EQ(msg.source, 1);
    } else {
      proc.send_value<int>(0, /*tag=*/4, 42);
    }
  });
}

TEST(TaskBackend, StatsCountTheSameTrafficAsThreads) {
  // Same program on ThreadBackend and TaskBackend: event counts (flops,
  // messages, words) must agree exactly; only the clocks may differ.
  constexpr index_t p = 4;
  auto program = [p](exec::Process& proc) {
    const index_t r = proc.rank();
    proc.compute(1000.0, exec::FlopKind::blas3);
    std::vector<real_t> payload(static_cast<std::size_t>(r + 1), 1.0);
    proc.send_values<real_t>((r + 1) % p, /*tag=*/11, payload);
    proc.recv((r + p - 1) % p, /*tag=*/11);
  };
  exec::ThreadBackend::Config tcfg;
  tcfg.nprocs = p;
  exec::ThreadBackend threads(tcfg);
  const exec::RunStats a = threads.run(program);
  exec::TaskBackend backend = make_tasks(p, /*workers=*/2);
  const exec::RunStats b = backend.run(program);
  ASSERT_EQ(a.procs.size(), b.procs.size());
  for (std::size_t r = 0; r < a.procs.size(); ++r) {
    EXPECT_EQ(a.procs[r].flops, b.procs[r].flops) << r;
    EXPECT_EQ(a.procs[r].messages_sent, b.procs[r].messages_sent) << r;
    EXPECT_EQ(a.procs[r].words_sent, b.procs[r].words_sent) << r;
    EXPECT_EQ(a.procs[r].messages_received, b.procs[r].messages_received)
        << r;
  }
}

TEST(TaskBackend, ManyRanksOnEveryWorkerCount) {
  // Seeded all-to-all-ish traffic across 1..16 workers: the scheduler
  // shape must never change the delivered data.
  for (const int workers : {1, 2, 3, 5, 8, 16}) {
    constexpr index_t p = 12;
    exec::TaskBackend backend = make_tasks(p, workers);
    std::vector<index_t> sum(static_cast<std::size_t>(p), 0);
    backend.run([&](exec::Process& proc) {
      const index_t r = proc.rank();
      for (index_t d = 0; d < p; ++d) {
        if (d != r) proc.send_value<index_t>(d, static_cast<int>(100 + r), r);
      }
      index_t acc = 0;
      for (index_t s = 0; s < p; ++s) {
        if (s != r) acc += proc.recv_value<index_t>(s, static_cast<int>(100 + s));
      }
      sum[static_cast<std::size_t>(r)] = acc;
    });
    for (index_t r = 0; r < p; ++r) {
      EXPECT_EQ(sum[static_cast<std::size_t>(r)], p * (p - 1) / 2 - r)
          << "workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace sparts
