// Observability over the concurrent core: the flight recorder's
// drop-oldest ring under racing writers, critical-path analysis of
// hand-built executed DAGs, the scheduler/worker track export format,
// and msgpath counter conformance across the threads and tasks
// backends.  Registered under the CTest label `obs`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "exec/collectives.hpp"
#include "exec/inbox.hpp"
#include "exec/task_backend.hpp"
#include "exec/thread_backend.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sparts {
namespace {

std::size_t count_occurrences(const std::string& hay, const std::string& s) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(s); pos != std::string::npos;
       pos = hay.find(s, pos + s.size())) {
    ++n;
  }
  return n;
}

/// The per-rank ring capacity the recorder was built with (it reads the
/// env once at construction; mirror that here instead of assuming 64).
std::size_t flight_capacity() {
  if (const char* env = std::getenv("SPARTS_FLIGHT_BUF")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 64;
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorder, SingleWriterKeepsNewestEntries) {
  obs::FlightRecorder& fr = obs::FlightRecorder::instance();
  fr.clear();
  const std::size_t cap = flight_capacity();
  const std::size_t total = 3 * cap + 5;
  for (std::size_t i = 0; i < total; ++i) {
    fr.note(7, "tick", static_cast<std::int64_t>(i),
            static_cast<std::int64_t>(i) + 1);
  }
  std::vector<obs::FlightEvent> events;
  for (const obs::FlightEvent& ev : fr.snapshot()) {
    if (ev.rank == 7) events.push_back(ev);
  }
  ASSERT_EQ(events.size(), cap);
  // Drop-oldest: exactly the last `cap` notes survive, in order.
  std::sort(events.begin(), events.end(),
            [](const obs::FlightEvent& x, const obs::FlightEvent& y) {
              return x.ticket < y.ticket;
            });
  for (std::size_t i = 0; i < cap; ++i) {
    EXPECT_EQ(events[i].a, static_cast<std::int64_t>(total - cap + i));
    EXPECT_EQ(events[i].b, events[i].a + 1);
  }
  EXPECT_GE(fr.dropped(), static_cast<std::uint64_t>(total - cap));
  fr.clear();
}

TEST(FlightRecorder, ConcurrentWritersNeverYieldTornEntries) {
  // Several threads hammer the *same* rank ring (the multi-writer case
  // the per-slot ticket seqlock exists for: senders note delivery
  // against the destination rank) while a reader snapshots repeatedly.
  // Every recovered entry must be internally consistent (b == a + 1 —
  // a torn slot would mix payloads from two writers) and no ticket may
  // appear twice.
  obs::FlightRecorder& fr = obs::FlightRecorder::instance();
  fr.clear();
  constexpr int kWriters = 4;
  constexpr std::int64_t kPerWriter = 5000;
  constexpr std::int32_t kRank = 3;

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> torn{0};
  std::thread reader([&] {  // sparts-lint: allow(raw-thread)
    while (!stop.load(std::memory_order_acquire)) {
      for (const obs::FlightEvent& ev : fr.snapshot()) {
        if (ev.rank == kRank && ev.b != ev.a + 1) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  std::vector<std::thread> writers;  // sparts-lint: allow(raw-thread)
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&fr, w] {  // sparts-lint: allow(raw-thread)
      for (std::int64_t i = 0; i < kPerWriter; ++i) {
        const std::int64_t a = static_cast<std::int64_t>(w) * kPerWriter + i;
        fr.note(kRank, "race", a, a + 1);
      }
    });
  }
  for (std::thread& t : writers) t.join();  // sparts-lint: allow(raw-thread)
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn.load(), 0u);

  const std::vector<obs::FlightEvent> events = fr.snapshot();
  std::unordered_set<std::uint64_t> tickets;
  std::size_t on_rank = 0;
  for (const obs::FlightEvent& ev : events) {
    if (ev.rank != kRank) continue;
    ++on_rank;
    EXPECT_EQ(ev.b, ev.a + 1) << "torn payload in final snapshot";
    EXPECT_STREQ(ev.name, "race");
    EXPECT_TRUE(tickets.insert(ev.ticket).second)
        << "ticket " << ev.ticket << " recovered twice";
  }
  EXPECT_GT(on_rank, 0u);
  EXPECT_LE(on_rank, flight_capacity());
  // kWriters * kPerWriter notes into a ring of `cap` slots: almost all
  // were overwritten, and the recorder must own up to every one.
  EXPECT_GE(fr.dropped(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter -
                flight_capacity());
  fr.clear();
}

TEST(FlightRecorder, SnapshotIsOldestFirstAndJsonIsWellFormed) {
  obs::FlightRecorder& fr = obs::FlightRecorder::instance();
  fr.clear();
  fr.note(0, "first", 1);
  fr.note(1, "second", 2);
  fr.note(0, "third", 3);

  const std::vector<obs::FlightEvent> events = fr.snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts, events[i - 1].ts);
  }

  const std::string text = fr.dump_text();
  EXPECT_NE(text.find("first"), std::string::npos) << text;
  EXPECT_NE(text.find("rank 1"), std::string::npos) << text;

  std::ostringstream out;
  fr.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"flight_recorder\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ticket\""), 3u);

  fr.clear();
  EXPECT_TRUE(fr.snapshot().empty());
}

// ---------------------------------------------------------------------------
// Critical path on hand-built executed DAGs
// ---------------------------------------------------------------------------

obs::ExecutedProfile diamond_profile() {
  // 1 -> {2 on lane 0, 3 on lane 1} -> 4; span 2 is the long arm.
  //   1: [0,1]  2: [1,3]  3: [1,2]  4: [3,4]
  obs::ExecutedProfile prof;
  prof.spans = {{1, 0.0, 1.0, 0, 0},
                {2, 1.0, 3.0, 0, 0},
                {3, 1.0, 2.0, 1, 0},
                {4, 3.0, 4.0, 0, 0}};
  prof.edges = {{1, 2}, {1, 3}, {2, 4}, {3, 4}};
  return prof;
}

TEST(CriticalPath, DiamondDagNumbersAreExact) {
  const obs::CriticalPathReport cp = obs::critical_path(diamond_profile(), 2);
  ASSERT_TRUE(cp.valid());
  EXPECT_EQ(cp.procs, 2);
  EXPECT_EQ(cp.spans, 4u);
  EXPECT_EQ(cp.edges, 4u);
  EXPECT_DOUBLE_EQ(cp.t1, 5.0);     // 1 + 2 + 1 + 1
  EXPECT_DOUBLE_EQ(cp.t_inf, 4.0);  // 1 -> 2 -> 4
  EXPECT_DOUBLE_EQ(cp.makespan, 4.0);
  EXPECT_DOUBLE_EQ(cp.span_bound, 5.0 / 2.0 + 4.0);
  EXPECT_DOUBLE_EQ(cp.avg_parallelism, 5.0 / 4.0);
  EXPECT_DOUBLE_EQ(cp.slack, 2.0 * 4.0 - 5.0);
  EXPECT_EQ(cp.path, (std::vector<std::int64_t>{1, 2, 4}));
}

TEST(CriticalPath, EmptyProfileIsInvalidNotCrashing) {
  const obs::CriticalPathReport cp =
      obs::critical_path(obs::ExecutedProfile{}, 4);
  EXPECT_FALSE(cp.valid());
  EXPECT_DOUBLE_EQ(cp.t1, 0.0);
  EXPECT_TRUE(cp.path.empty());
}

TEST(CriticalPath, UnknownEdgeIdsAreIgnored) {
  obs::ExecutedProfile prof = diamond_profile();
  prof.edges.push_back({99, 1});  // from a span that was never recorded
  prof.edges.push_back({4, -7});
  const obs::CriticalPathReport cp = obs::critical_path(prof, 2);
  EXPECT_DOUBLE_EQ(cp.t_inf, 4.0);
  EXPECT_EQ(cp.path, (std::vector<std::int64_t>{1, 2, 4}));
}

TEST(CriticalPath, CycleContributesWorkButNotPath) {
  obs::ExecutedProfile prof;
  prof.spans = {{1, 0.0, 1.0, 0, 0},  // honest chain: 1 -> 2
                {2, 1.0, 2.0, 0, 0},
                {10, 0.0, 5.0, 1, 0},  // malformed: 10 <-> 11
                {11, 0.0, 5.0, 1, 0}};
  prof.edges = {{1, 2}, {10, 11}, {11, 10}};
  const obs::CriticalPathReport cp = obs::critical_path(prof, 2);
  EXPECT_DOUBLE_EQ(cp.t1, 12.0);  // cycle spans still count as work
  EXPECT_DOUBLE_EQ(cp.t_inf, 2.0);
  EXPECT_EQ(cp.path, (std::vector<std::int64_t>{1, 2}));
}

// ---------------------------------------------------------------------------
// Scheduler / worker track export
// ---------------------------------------------------------------------------

// The tracer is a process-wide singleton; every test that enables it must
// disable + clear on exit so the suite's tests stay independent.
struct TracerGuard {
  explicit TracerGuard(std::size_t cap) {
    obs::Tracer::instance().enable(cap);
  }
  ~TracerGuard() {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().clear();
  }
};

TEST(WorkerTracks, CounterAndWorkerEventsExportWithChromeFormat) {
  TracerGuard guard(256);
  obs::Tracer& t = obs::Tracer::instance();
  t.record(0, obs::EventKind::counter, obs::Category::sched,
           "sched.deque_depth", 1.0, 3);
  const std::int32_t w0 = obs::worker_track(0);
  t.record_local(w0, obs::EventKind::span_begin, obs::Category::sched,
                 "sched_run", 1.0, 42);
  t.record_local(w0, obs::EventKind::span_end, obs::Category::sched,
                 "sched_run", 2.0, 42);

  std::ostringstream out;
  t.write_chrome_trace(out);
  const std::string json = out.str();
  // Counters use the Chrome "C" phase with the value in args.value —
  // the contract tools/trace_check.py enforces.
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"args\": {\"value\": 3}"), std::string::npos) << json;
  // Worker spans land on a named worker track, not a rank track.
  EXPECT_NE(json.find("\"worker 0\""), std::string::npos) << json;
  EXPECT_EQ(count_occurrences(json, "\"sched_run\""), 2u);
}

TEST(WorkerTracks, TaskBackendRunEmitsSchedulerTimeline) {
  // A real (tiny) tasks-backend run must leave the full scheduler
  // timeline in the trace: per-worker run spans, fiber suspend/resume
  // instants, and the deque-depth / parked-worker counter tracks.
  TracerGuard guard(1 << 14);
  exec::TaskBackend::Config cfg;
  cfg.nprocs = 2;
  cfg.scheduler.workers = 2;
  exec::TaskBackend backend(cfg);
  obs::Tracer::instance().begin_run();
  backend.run([](exec::Process& proc) {
    if (proc.rank() == 0) {
      proc.send_values<real_t>(1, 5, std::vector<real_t>(8, 1.0));
    } else {
      (void)proc.recv_values<real_t>(0, 5);
    }
    proc.compute(10.0);
  });
  obs::Tracer::instance().end_run(0.0);

  std::ostringstream out;
  obs::Tracer::instance().write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_GT(count_occurrences(json, "\"sched_run\""), 0u);
  EXPECT_GT(count_occurrences(json, "\"fiber_resume\""), 0u);
  EXPECT_GT(count_occurrences(json, "\"fiber_suspend\""), 0u);
  EXPECT_GT(count_occurrences(json, "\"sched.deque_depth\""), 0u);
  EXPECT_GT(count_occurrences(json, "\"sched.parked_workers\""), 0u);
  // Spans stay balanced even though workers park/unpark concurrently.
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"B\""),
            count_occurrences(json, "\"ph\": \"E\""));
}

/// Names of the events exported on the track labelled `label`, in order;
/// empty when the trace has no such track.
std::vector<std::string> track_event_names(const std::string& json,
                                           const std::string& label) {
  std::vector<std::string> names;
  std::size_t pos = json.find("\"args\": {\"name\": \"" + label + "\"}}");
  if (pos == std::string::npos) return names;
  pos = json.find("\"thread_sort_index\"", pos);
  const std::string key = "{\"name\": \"";
  for (pos = json.find(key, pos); pos != std::string::npos;
       pos = json.find(key, pos)) {
    pos += key.size();
    const std::string name = json.substr(pos, json.find('"', pos) - pos);
    if (name == "thread_name") break;  // the next track's metadata
    names.push_back(name);
  }
  return names;
}

TEST(WorkerTracks, EveryWorkerOpensItsCounterTracksAtStart) {
  // Each worker writes its counter tracks' initial values before it looks
  // for work, so every worker track of a traced run starts with both
  // counters, whether or not that worker ever parks.
  TracerGuard guard(1 << 14);
  exec::TaskBackend::Config cfg;
  cfg.nprocs = 2;
  cfg.scheduler.workers = 3;
  exec::TaskBackend backend(cfg);
  obs::Tracer::instance().begin_run();
  backend.run([](exec::Process& proc) { proc.compute(10.0); });
  obs::Tracer::instance().end_run(0.0);

  std::ostringstream out;
  obs::Tracer::instance().write_chrome_trace(out);
  const std::string json = out.str();
  for (int w = 0; w < cfg.scheduler.workers; ++w) {
    const std::vector<std::string> names =
        track_event_names(json, "worker " + std::to_string(w));
    ASSERT_GE(names.size(), 2u) << "worker " << w << "\n" << json;
    EXPECT_EQ(names[0], "sched.deque_depth") << "worker " << w;
    EXPECT_EQ(names[1], "sched.parked_workers") << "worker " << w;
  }
}

TEST(WorkerTracks, SingleWorkerSpanStructureIsDeterministic) {
  // With one worker the schedule is sequential, so two identical runs
  // must emit the identical number of run spans and fiber instants
  // (timestamps differ; structure may not).
  auto structure = [] {
    TracerGuard guard(1 << 14);
    exec::TaskBackend::Config cfg;
    cfg.nprocs = 3;
    cfg.scheduler.workers = 1;
    exec::TaskBackend backend(cfg);
    backend.run([](exec::Process& proc) {
      const index_t p = proc.nprocs();
      const index_t r = proc.rank();
      proc.send_values<real_t>((r + 1) % p, 9,
                               std::vector<real_t>(4, 2.0));
      (void)proc.recv_values<real_t>((r + p - 1) % p, 9);
    });
    std::ostringstream out;
    obs::Tracer::instance().write_chrome_trace(out);
    const std::string json = out.str();
    return std::make_tuple(count_occurrences(json, "\"sched_run\""),
                           count_occurrences(json, "\"fiber_resume\""),
                           count_occurrences(json, "\"fiber_suspend\""));
  };
  EXPECT_EQ(structure(), structure());
}

// ---------------------------------------------------------------------------
// Msgpath counters
// ---------------------------------------------------------------------------

/// Bytes of the one panel each rank of exchange_program sends owned.
constexpr std::int64_t kOwnedPanel = 1024;

void exchange_program(exec::Process& proc) {
  const index_t p = proc.nprocs();
  const index_t r = proc.rank();
  for (int round = 0; round < 8; ++round) {
    proc.send_values<real_t>((r + 1) % p, 10 + round,
                             std::vector<real_t>(16, static_cast<double>(r)));
    (void)proc.recv_values<real_t>((r + p - 1) % p, 10 + round);
  }
  proc.send_owned((r + 1) % p, 9, exec::Payload(kOwnedPanel));
  (void)proc.recv((r + p - 1) % p, 9);
}

TEST(MsgpathCounters, EveryDeliveryIsRingHitOrSpillOnBothBackends) {
  // Conformance over the delivery taxonomy: on the threads and the tasks
  // backend alike, each delivered message took exactly one of the two
  // lanes (SPSC ring hit or locked spill), and every payload byte was
  // accounted as either zero-copy or copied.  Which lane wins is timing-
  // dependent; the *sum* is not.  Above Inbox::kMaxRingRanks ranks an
  // inbox has no rings, so there every message spills.
  obs::enable_metrics();
  for (const index_t p : {index_t{4}, exec::Inbox::kMaxRingRanks + 2}) {
    for (const bool use_tasks : {false, true}) {
      obs::metrics().reset();
      exec::RunStats rs;
      if (use_tasks) {
        exec::TaskBackend::Config cfg;
        cfg.nprocs = p;
        cfg.scheduler.workers = 2;
        exec::TaskBackend backend(cfg);
        rs = backend.run(exchange_program);
      } else {
        exec::ThreadBackend::Config cfg;
        cfg.nprocs = p;
        cfg.recv_timeout = 30.0;
        exec::ThreadBackend backend(cfg);
        rs = backend.run(exchange_program);
      }
      const std::string what =
          std::string(use_tasks ? "tasks" : "threads") + " p=" +
          std::to_string(p);
      const std::int64_t ring =
          obs::metrics().counter("msgpath.ring_hit").value();
      const std::int64_t spill =
          obs::metrics().counter("msgpath.spill").value();
      EXPECT_EQ(ring + spill, static_cast<std::int64_t>(rs.total_messages()))
          << what << ": ring " << ring << " + spill " << spill;
      if (p > exec::Inbox::kMaxRingRanks) EXPECT_EQ(ring, 0) << what;
      // The owned panels moved whole; the values were copied.
      EXPECT_EQ(obs::metrics().counter("comm.zero_copy_bytes").value(),
                static_cast<std::int64_t>(p) * kOwnedPanel)
          << what;
      EXPECT_GT(obs::metrics().counter("comm.copied_bytes").value(), 0)
          << what;
      // Wakes can only be claimed for deliveries that happened.
      EXPECT_LE(obs::metrics().counter("msgpath.wakes").value(), ring + spill)
          << what;
    }
  }
  obs::metrics().reset();
}

// ---------------------------------------------------------------------------
// TaskBackend RunStats plumbing (regression for the body-start clock fix)
// ---------------------------------------------------------------------------

TEST(TaskBackendStats, PerRankClocksAreLiveNotZero) {
  // The fiber backend starts each rank's compute clock when its SPMD
  // body starts (the WallProcess is built on the fiber); a regression
  // there reports zero-duration ranks and the phase profiler prints an
  // all-idle timeline.
  exec::TaskBackend::Config cfg;
  cfg.nprocs = 2;
  cfg.scheduler.workers = 2;
  exec::TaskBackend backend(cfg);
  const exec::RunStats rs = backend.run([](exec::Process& proc) {
    proc.compute(1000.0);
    if (proc.rank() == 0) {
      proc.send_values<real_t>(1, 1, std::vector<real_t>(4, 1.0));
    } else {
      (void)proc.recv_values<real_t>(0, 1);
    }
  });
  ASSERT_EQ(rs.procs.size(), 2u);
  for (std::size_t r = 0; r < rs.procs.size(); ++r) {
    EXPECT_GT(rs.procs[r].clock, 0.0) << "rank " << r;
    EXPECT_GT(rs.procs[r].flops, 0) << "rank " << r;
  }
  EXPECT_GT(rs.parallel_time(), 0.0);
}

}  // namespace
}  // namespace sparts
