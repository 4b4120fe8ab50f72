// Exhaustive model-checking suite (ctest -L verify): explores EVERY
// bounded interleaving of the lock-free layer's protocols — SPSC ring
// transfer, the park/wake handshake, deque stealing — and
// proves the negative direction too: seeded concurrency bugs (relaxed
// publish, arm-less park, unpinned notify, lock-order inversion) must be
// CAUGHT, with a deterministic replay token.  Explored-state counts are
// printed so a coverage collapse (a scheduler bug silently exploring 3
// schedules) is visible in test output.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/parking.hpp"
#include "exec/spsc_ring.hpp"
#include "exec/ws_deque.hpp"
#include "verify/verify.hpp"

namespace {

using sparts::verify::explore;
using sparts::verify::Options;
using sparts::verify::Result;
using sparts::verify::Scheduler;
using sparts::verify::spin_yield;
using sparts::verify::VerifyAtomics;

void report(const char* what, const Result& r) {
  std::printf("[ explored ] %-22s %8llu schedules, %9llu steps, %7llu "
              "pruned, complete=%d\n",
              what, static_cast<unsigned long long>(r.schedules),
              static_cast<unsigned long long>(r.steps),
              static_cast<unsigned long long>(r.pruned),
              r.complete ? 1 : 0);
}

auto far_deadline() {
  return std::chrono::steady_clock::now() + std::chrono::hours(1);
}

// ---------------------------------------------------------------------------
// Positive explorations: the production protocols, every interleaving.
// ---------------------------------------------------------------------------

TEST(Verify, SpscRingTransferExhaustive) {
  const Result res = explore([](Scheduler& sch) {
    struct World {
      sparts::exec::SpscRing<int, VerifyAtomics> ring{2};
      std::vector<int> got;
    };
    auto w = std::make_shared<World>();
    sch.thread("producer", [w] {
      for (int m = 1; m <= 3; ++m) {
        int v = m;
        while (!w->ring.try_push(v)) spin_yield();
      }
    });
    sch.thread("consumer", [w] {
      while (w->got.size() < 3) {
        int v = 0;
        if (w->ring.try_pop(&v)) {
          w->got.push_back(v);
        } else {
          spin_yield();
        }
      }
    });
    sch.finally([w] {
      sparts::verify::check(w->got == std::vector<int>({1, 2, 3}),
                            "ring lost, duplicated, or reordered elements");
    });
  });
  report("ring transfer", res);
  EXPECT_TRUE(res.ok) << res.error << "\n" << res.trace;
  EXPECT_TRUE(res.complete);
  // An exhaustive run of this protocol explores thousands of schedules; a
  // collapse to a handful means the explorer stopped exploring.
  EXPECT_GT(res.schedules, 100U);
}

TEST(Verify, ParkHandshakeExhaustive) {
  // The full thread-backend idle protocol: lock-free ring publish +
  // notify_if_armed() vs the owner's arm -> re-check -> park loop.  The
  // checked property is the Dekker claim in exec/parking.hpp: no
  // interleaving loses a wakeup (which would surface here as a deadlock —
  // the park is untimed under the model).
  const Result res = explore([](Scheduler& sch) {
    struct World {
      sparts::exec::SpscRing<int, VerifyAtomics> ring{1};
      sparts::exec::ParkingSlot<VerifyAtomics> park;
      std::vector<int> got;
    };
    auto w = std::make_shared<World>();
    sch.thread("producer", [w] {
      for (int m = 1; m <= 2; ++m) {
        while (!w->ring.has_space()) spin_yield();
        int v = m;
        while (!w->ring.try_push(v)) spin_yield();
        w->park.notify_if_armed();
      }
    });
    sch.thread("owner", [w] {
      using MutexT = sparts::exec::ParkingSlot<VerifyAtomics>::MutexT;
      while (w->got.size() < 2) {
        int v = 0;
        if (w->ring.try_pop(&v)) {
          w->got.push_back(v);
          continue;
        }
        std::unique_lock<MutexT> lock(w->park.mutex());
        w->park.arm();
        if (w->ring.has_items()) {  // post-arm re-check of the work source
          w->park.disarm();
          continue;
        }
        w->park.park_until(lock, far_deadline());
        w->park.disarm();
      }
    });
    sch.finally([w] {
      sparts::verify::check(w->got == std::vector<int>({1, 2}),
                            "handshake lost or reordered a message");
    });
  });
  report("park handshake", res);
  EXPECT_TRUE(res.ok) << res.error << "\n" << res.trace;
  EXPECT_TRUE(res.complete);
  EXPECT_GT(res.schedules, 100U);
}

TEST(Verify, WorkDequeStealExhaustive) {
  const Result res = explore([](Scheduler& sch) {
    struct World {
      sparts::exec::WorkDeque<int, VerifyAtomics> deque;
      int owner_got = 0;
      int thief_got = 0;
    };
    auto w = std::make_shared<World>();
    sch.thread("owner", [w] {
      w->deque.push(1);
      w->deque.push(2);
      int v = 0;
      // Two items were pushed and at most one thief steals once, so the
      // owner's pop must always find something.
      sparts::verify::check(w->deque.try_pop_owner(&v),
                            "owner pop failed with an item still queued");
      w->owner_got = v;
    });
    sch.thread("thief", [w] {
      int v = 0;
      if (w->deque.try_steal(&v)) w->thief_got = v;
    });
    sch.finally([w] {
      sparts::verify::check(w->owner_got == 1 || w->owner_got == 2,
                            "owner popped a value never pushed");
      sparts::verify::check(w->thief_got == 0 || w->thief_got == 1 ||
                                w->thief_got == 2,
                            "thief stole a value never pushed");
      sparts::verify::check(w->thief_got == 0 ||
                                w->thief_got != w->owner_got,
                            "owner and thief took the same element");
    });
  });
  report("deque steal", res);
  EXPECT_TRUE(res.ok) << res.error << "\n" << res.trace;
  EXPECT_TRUE(res.complete);
}

// ---------------------------------------------------------------------------
// Negative explorations: seeded bugs the checker MUST catch.
// ---------------------------------------------------------------------------

TEST(Verify, RelaxedPublishRaceCaught) {
  // The classic broken publish: data written through a non-atomic slot,
  // flag stored relaxed.  No happens-before edge -> data race.
  const Result res = explore([](Scheduler& sch) {
    struct World {
      sparts::verify::Cell<int> data;
      sparts::verify::atomic<int> flag{0};
    };
    auto w = std::make_shared<World>();
    sch.thread("writer", [w] {
      w->data.set(42);
      w->flag.store(1, std::memory_order_relaxed);  // BUG: needs release
    });
    sch.thread("reader", [w] {
      if (w->flag.load(std::memory_order_acquire) == 1) {
        (void)w->data.get();
      }
    });
  });
  report("relaxed publish", res);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("data race"), std::string::npos) << res.error;
  EXPECT_FALSE(res.trace.empty());
  EXPECT_FALSE(res.replay.empty());
}

TEST(Verify, MessagePassingRelaxedStaleCaught) {
  // Same shape but both sides atomic: the weak consumer load is allowed
  // to observe the stale payload — the model makes "works on my x86"
  // orderings fail deterministically.
  const Result res = explore([](Scheduler& sch) {
    struct World {
      sparts::verify::atomic<int> payload{0};
      sparts::verify::atomic<int> flag{0};
    };
    auto w = std::make_shared<World>();
    sch.thread("writer", [w] {
      w->payload.store(1, std::memory_order_relaxed);
      w->flag.store(1, std::memory_order_release);
    });
    sch.thread("reader", [w] {
      if (w->flag.load(std::memory_order_relaxed) == 1) {  // BUG: acquire
        sparts::verify::check(
            w->payload.load(std::memory_order_relaxed) == 1,
            "stale payload after observing the flag");
      }
    });
  });
  report("relaxed mp", res);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("stale payload"), std::string::npos) << res.error;
}

TEST(Verify, ArmlessParkLostWakeupCaught) {
  // Owner parks WITHOUT arming: the producer's notify_if_armed() finds
  // the flag down, claims nothing, notifies nobody -> the owner sleeps
  // forever on a schedule where it parked before the push.
  const Result res = explore([](Scheduler& sch) {
    struct World {
      sparts::exec::SpscRing<int, VerifyAtomics> ring{1};
      sparts::exec::ParkingSlot<VerifyAtomics> park;
      int got = 0;
    };
    auto w = std::make_shared<World>();
    sch.thread("producer", [w] {
      int v = 7;
      while (!w->ring.try_push(v)) spin_yield();
      w->park.notify_if_armed();
    });
    sch.thread("owner", [w] {
      using MutexT = sparts::exec::ParkingSlot<VerifyAtomics>::MutexT;
      while (w->got == 0) {
        int v = 0;
        if (w->ring.try_pop(&v)) {
          w->got = v;
          continue;
        }
        std::unique_lock<MutexT> lock(w->park.mutex());
        // BUG: no arm() before the re-check + park.
        if (w->ring.has_items()) continue;
        w->park.park_until(lock, far_deadline());
      }
    });
  });
  report("armless park", res);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("deadlock"), std::string::npos) << res.error;
}

TEST(Verify, UnpinnedNotifyLostWakeupCaught) {
  // notify_if_armed() without the empty lock/unlock pin: the producer can
  // claim the flag and fire the notify while the owner — armed, re-check
  // done — has not yet entered the wait.  The notify hits nobody, the
  // claim clears the flag, the owner parks forever.
  const Result res = explore([](Scheduler& sch) {
    struct World {
      sparts::verify::atomic<int> work{0};
      sparts::verify::atomic<bool> waiting{false};
      sparts::verify::Mutex m;
      sparts::verify::CondVar cv;
    };
    auto w = std::make_shared<World>();
    sch.thread("producer", [w] {
      w->work.store(1, std::memory_order_seq_cst);
      sparts::verify::fence(std::memory_order_seq_cst);
      bool expected = true;
      if (w->waiting.load(std::memory_order_relaxed) &&
          w->waiting.compare_exchange_strong(expected, false)) {
        // BUG: no { lock_guard pin } before the notify.
        w->cv.notify_one();
      }
    });
    sch.thread("owner", [w] {
      std::unique_lock<sparts::verify::Mutex> lock(w->m);
      w->waiting.store(true, std::memory_order_seq_cst);
      sparts::verify::fence(std::memory_order_seq_cst);
      if (w->work.load(std::memory_order_seq_cst) == 1) {
        w->waiting.store(false, std::memory_order_relaxed);
        return;
      }
      w->cv.wait(lock);
    });
  });
  report("unpinned notify", res);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("deadlock"), std::string::npos) << res.error;
}

TEST(Verify, LockOrderInversionCaught) {
  const Result res = explore([](Scheduler& sch) {
    struct World {
      sparts::verify::Mutex a;
      sparts::verify::Mutex b;
    };
    auto w = std::make_shared<World>();
    sch.thread("ab", [w] {
      std::lock_guard<sparts::verify::Mutex> la(w->a);
      std::lock_guard<sparts::verify::Mutex> lb(w->b);
    });
    sch.thread("ba", [w] {
      std::lock_guard<sparts::verify::Mutex> lb(w->b);
      std::lock_guard<sparts::verify::Mutex> la(w->a);
    });
  });
  report("lock inversion", res);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("deadlock"), std::string::npos) << res.error;
}

// ---------------------------------------------------------------------------
// Replay: the printed token re-runs exactly the failing schedule.
// ---------------------------------------------------------------------------

TEST(Verify, ReplayReproducesFailure) {
  const auto setup = [](Scheduler& sch) {
    struct World {
      sparts::verify::Cell<int> data;
      sparts::verify::atomic<int> flag{0};
    };
    auto w = std::make_shared<World>();
    sch.thread("writer", [w] {
      w->data.set(42);
      w->flag.store(1, std::memory_order_relaxed);
    });
    sch.thread("reader", [w] {
      if (w->flag.load(std::memory_order_acquire) == 1) {
        (void)w->data.get();
      }
    });
  };
  const Result found = explore(setup);
  ASSERT_FALSE(found.ok);
  ASSERT_FALSE(found.replay.empty());

  Options opts;
  opts.replay = found.replay.c_str();
  const Result replayed = explore(opts, setup);
  EXPECT_FALSE(replayed.ok);
  EXPECT_EQ(replayed.error, found.error);
  EXPECT_EQ(replayed.schedules, 1U);
}

}  // namespace
