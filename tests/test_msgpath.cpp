// Message-path tests: the lock-free SPSC ring under adversarial
// interleavings, the inbox's two paths (ring, and spill for a full ring or
// above Inbox::kMaxRingRanks ranks) on the thread and task backends, the
// zero-copy owned-send lane, and the cross-backend conformance promise —
// simulator, thread backend and task backend produce bit-identical
// solves.  Registered under the CTest label `real` so the ring stress runs
// under -DSPARTS_SANITIZE=thread in CI: the SPSC ordering argument in
// spsc_ring.hpp is exactly the kind of claim TSan can refute.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "exec/inbox.hpp"
#include "exec/process.hpp"
#include "exec/spsc_ring.hpp"
#include "exec/task_backend.hpp"
#include "exec/thread_backend.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "numeric/multifrontal.hpp"
#include "ordering/nested_dissection.hpp"
#include "partrisolve/partrisolve.hpp"
#include "simpar/machine.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"

namespace sparts {
namespace {

// ---------------------------------------------------------------------
// SpscRing in isolation.
// ---------------------------------------------------------------------

TEST(SpscRing, FullRingRejectsPushAndLeavesValueIntact) {
  exec::SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) {
    int v = i;
    ASSERT_TRUE(ring.try_push(v));
  }
  int rejected = 99;
  EXPECT_FALSE(ring.try_push(rejected));
  EXPECT_EQ(rejected, 99);  // contract: NOT consumed on failure
  for (int i = 0; i < 4; ++i) {
    int out = -1;
    ASSERT_TRUE(ring.try_pop(&out));
    EXPECT_EQ(out, i);
  }
  int out = -1;
  EXPECT_FALSE(ring.try_pop(&out));
  EXPECT_FALSE(ring.has_items());
}

TEST(SpscRing, WraparoundPreservesFifoOrder) {
  // Default capacity (8) with a push-2/pop-1 cadence drives the cursors
  // across the wrap boundary hundreds of times; any masking bug shows up
  // as a reordered or clobbered element.
  exec::SpscRing<int> ring;
  int next_push = 0, next_pop = 0;
  while (next_pop < 1000) {
    for (int k = 0; k < 2; ++k) {
      int v = next_push;
      if (ring.try_push(v)) ++next_push;
    }
    int out = -1;
    if (ring.try_pop(&out)) {
      ASSERT_EQ(out, next_pop);
      ++next_pop;
    }
  }
}

TEST(SpscRing, CursorArithmeticSurvivesSizeMaxWraparound) {
  // The cursors are free-running std::size_t counters: occupancy is
  // `tail - head` in unsigned arithmetic, which stays correct when tail
  // overflows SIZE_MAX back to 0 while head has not yet.  2^64 pushes are
  // not a practical test, so start both cursors just below the overflow
  // and walk the transfer across it.
  exec::SpscRing<int> ring(4);
  ring.reset_cursors_for_test(std::numeric_limits<std::size_t>::max() - 2);
  for (int i = 0; i < 4; ++i) {  // fill: tail crosses SIZE_MAX -> 1
    int v = i;
    ASSERT_TRUE(ring.try_push(v)) << i;
  }
  EXPECT_TRUE(ring.has_items());
  EXPECT_FALSE(ring.has_space());  // tail - head == 4 across the wrap
  int rejected = 99;
  EXPECT_FALSE(ring.try_push(rejected));
  EXPECT_EQ(rejected, 99);
  for (int i = 0; i < 4; ++i) {  // drain: head crosses SIZE_MAX -> 1
    int out = -1;
    ASSERT_TRUE(ring.try_pop(&out)) << i;
    EXPECT_EQ(out, i);
    EXPECT_TRUE(ring.has_space());
  }
  EXPECT_FALSE(ring.has_items());
  // A second lap entirely on the far side of the wrap.
  int v = 7;
  ASSERT_TRUE(ring.try_push(v));
  int out = -1;
  ASSERT_TRUE(ring.try_pop(&out));
  EXPECT_EQ(out, 7);
}

TEST(SpscRing, MoveOnlyElementsMoveThrough) {
  // The message path moves payload buffers through the ring (the zero-copy
  // lane depends on it); a ring that secretly copied would not compile
  // for a move-only element type.
  exec::SpscRing<std::unique_ptr<int>> ring(2);
  auto v = std::make_unique<int>(42);
  ASSERT_TRUE(ring.try_push(v));
  EXPECT_EQ(v, nullptr);  // moved out on success
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(&out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

TEST(SpscRing, TwoThreadStressIsOrderedAndLossless) {
  // One real producer thread against one real consumer thread, both
  // spinning full-speed with no synchronization besides the ring itself.
  // Small capacities maximize full/empty boundary crossings; run under
  // TSan this is the ordering proof for the release/acquire pair.
  for (const std::size_t capacity : {1ul, 2ul, 8ul, 64ul}) {
    constexpr int kCount = 20000;
    exec::SpscRing<int> ring(capacity);
    // Deliberately raw: the ring sits below the backends, so this
    // stress must not run through one.
    std::thread producer([&ring] {  // sparts-lint: allow(raw-thread)
      for (int i = 0; i < kCount;) {
        int v = i;
        if (ring.try_push(v)) {
          ++i;
        } else {
          std::this_thread::yield();
        }
      }
    });
    int popped = 0;
    int out = -1;
    while (popped < kCount) {
      if (ring.try_pop(&out)) {
        ASSERT_EQ(out, popped) << "capacity " << capacity;
        ++popped;
      } else {
        std::this_thread::yield();
      }
    }
    producer.join();
    EXPECT_FALSE(ring.has_items());
  }
}

TEST(SpscRing, TwoThreadStressWithOwnedBuffers) {
  // Same race, but the elements are heap buffers whose content is a pure
  // function of their index — a use-after-move or double-move in the slot
  // handoff corrupts the stamp even when the int test passes.
  constexpr int kCount = 4000;
  exec::SpscRing<std::vector<int>> ring;  // default (production) capacity
  std::thread producer([&ring] {  // sparts-lint: allow(raw-thread)
    for (int i = 0; i < kCount;) {
      std::vector<int> v(static_cast<std::size_t>(1 + i % 7), i);
      while (!ring.try_push(v)) std::this_thread::yield();
      ++i;
    }
  });
  for (int i = 0; i < kCount; ++i) {
    std::vector<int> out;
    while (!ring.try_pop(&out)) std::this_thread::yield();
    ASSERT_EQ(out.size(), static_cast<std::size_t>(1 + i % 7));
    for (const int x : out) ASSERT_EQ(x, i);
  }
  producer.join();
}

// ---------------------------------------------------------------------
// Zero-copy owned-send lane.
// ---------------------------------------------------------------------

/// Payload of `len` bytes whose content is a pure function of (seed, len).
exec::Payload stamped_payload(unsigned seed, std::size_t len) {
  exec::Payload p(len);
  for (std::size_t i = 0; i < len; ++i) {
    p[i] = static_cast<std::byte>((seed + i * 131) & 0xff);
  }
  return p;
}

void check_stamp(const exec::Payload& p, unsigned seed, std::size_t len) {
  ASSERT_EQ(p.size(), len);
  for (std::size_t i = 0; i < len; ++i) {
    ASSERT_EQ(p[i], static_cast<std::byte>((seed + i * 131) & 0xff))
        << "byte " << i;
  }
}

/// Ping-pong `rounds` owned sends of `len` bytes on `comm` and return the
/// run's total bytes_copied.  At or above kZeroCopyThreshold each receiver
/// also checks that it holds the sender's own buffer, not a copy of it.
nnz_t owned_pingpong_copied(exec::Comm& comm, std::size_t len, int rounds) {
  // sent[r][rank]: the buffer rank sent in round r, recorded before the
  // send, so the message orders the write before the receiver's read.
  std::vector<std::array<const std::byte*, 2>> sent(
      static_cast<std::size_t>(rounds));
  const bool moved = len >= exec::kZeroCopyThreshold;
  const exec::RunStats stats =
      comm.run([len, rounds, moved, &sent](exec::Process& proc) {
        for (int r = 0; r < rounds; ++r) {
          auto& buf = sent[static_cast<std::size_t>(r)];
          const auto seed = static_cast<unsigned>(r);
          if (proc.rank() == 0) {
            exec::Payload out = stamped_payload(seed, len);
            buf[0] = out.data();
            proc.send_owned(1, r, std::move(out));
            const exec::ReceivedMessage back = proc.recv(1, 1000 + r);
            check_stamp(back.payload, seed + 7, len);
            if (moved) EXPECT_EQ(back.payload.data(), buf[1]) << "round " << r;
          } else {
            const exec::ReceivedMessage msg = proc.recv(0, r);
            check_stamp(msg.payload, seed, len);
            if (moved) EXPECT_EQ(msg.payload.data(), buf[0]) << "round " << r;
            exec::Payload out = stamped_payload(seed + 7, len);
            buf[1] = out.data();
            proc.send_owned(0, 1000 + r, std::move(out));
          }
        }
      });
  return stats.total_bytes_copied();
}

TEST(ZeroCopy, OwnedSendsAboveThresholdCopyNothingOnThreads) {
  // The whole point of the owned lane: a panel-sized payload moves
  // through the ring without a single memcpy'd byte...
  exec::ThreadBackend::Config cfg;
  cfg.nprocs = 2;
  {
    exec::ThreadBackend backend(cfg);
    EXPECT_EQ(owned_pingpong_copied(backend, 4096, 20), 0);
  }
  // ...while sub-threshold owned sends deliberately take the copy lane
  // (copying a cacheline-sized message is cheaper than donating the
  // buffer) and must say so in the stats.
  {
    exec::ThreadBackend backend(cfg);
    const std::size_t len = exec::kZeroCopyThreshold / 2;
    EXPECT_EQ(owned_pingpong_copied(backend, len, 10),
              static_cast<nnz_t>(len) * 2 * 10);
  }
}

TEST(ZeroCopy, OwnedSendsAboveThresholdCopyNothingOnTasks) {
  exec::TaskBackend::Config cfg;
  cfg.nprocs = 2;
  {
    exec::TaskBackend backend(cfg);
    EXPECT_EQ(owned_pingpong_copied(backend, 4096, 20), 0);
  }
  {
    exec::TaskBackend backend(cfg);
    const std::size_t len = exec::kZeroCopyThreshold / 2;
    EXPECT_EQ(owned_pingpong_copied(backend, len, 10),
              static_cast<nnz_t>(len) * 2 * 10);
  }
}

TEST(ZeroCopy, BurstThroughRingOverflowPreservesEveryPayload) {
  // Rank 0 fires a burst far deeper than the ring capacity before rank 1
  // drains any of it, forcing the ring-full spill mid-stream; the receiver
  // must still see every message, in tag order, with intact content,
  // regardless of which path each one took — on both backends that share
  // the inbox.
  constexpr int kBurst = 200;  // >> SpscRing kDefaultCapacity
  auto burst = [](exec::Process& proc) {
    if (proc.rank() == 0) {
      for (int i = 0; i < kBurst; ++i) {
        // Mix lanes: even tags owned (zero-copy), odd tags plain copies.
        const std::size_t len = 64 + static_cast<std::size_t>(i % 5) * 256;
        if (i % 2 == 0) {
          proc.send_owned(1, i, stamped_payload(static_cast<unsigned>(i),
                                                len));
        } else {
          const exec::Payload p =
              stamped_payload(static_cast<unsigned>(i), len);
          proc.send(1, i, {p.data(), p.size()});
        }
      }
      proc.recv(1, kBurst);  // barrier: don't exit while 1 still drains
    } else {
      for (int i = 0; i < kBurst; ++i) {
        const exec::ReceivedMessage msg = proc.recv(0, i);
        const std::size_t len = 64 + static_cast<std::size_t>(i % 5) * 256;
        check_stamp(msg.payload, static_cast<unsigned>(i), len);
      }
      proc.send_value<int>(0, kBurst, 1);
    }
  };
  exec::ThreadBackend::Config thread_cfg;
  thread_cfg.nprocs = 2;
  exec::ThreadBackend threads(thread_cfg);
  threads.run(burst);
  exec::TaskBackend::Config task_cfg;
  task_cfg.nprocs = 2;
  exec::TaskBackend tasks(task_cfg);
  tasks.run(burst);
}

TEST(Inbox, RingFullAndRinglessInboxesSpillWithoutLosingTheMessage) {
  // The producer-side contract both backends build on: a push the ring
  // refuses leaves the message with the caller, who spills it, and the
  // owner's drains find both paths' messages.
  auto msg = [](index_t src, int tag) {
    return exec::ReceivedMessage{src, tag, exec::Payload(8, std::byte{1})};
  };
  exec::Inbox ringed(2);
  int pushed = 0;
  for (;; ++pushed) {
    exec::ReceivedMessage m = msg(1, pushed);
    if (!ringed.try_push_ring(m)) {
      EXPECT_EQ(m.tag, pushed);
      EXPECT_EQ(m.payload.size(), 8u);  // not consumed on failure
      ringed.spill_locked(std::move(m));
      break;
    }
  }
  EXPECT_EQ(pushed, static_cast<int>(exec::SpscRing<int>::kDefaultCapacity));
  EXPECT_TRUE(ringed.has_arrivals());
  EXPECT_TRUE(ringed.drain_rings());
  EXPECT_TRUE(ringed.drain_spill_locked());
  EXPECT_FALSE(ringed.has_arrivals());
  for (int t = pushed; t >= 0; --t) {
    exec::ReceivedMessage out;
    ASSERT_TRUE(ringed.match(1, t, &out)) << "tag " << t;
    EXPECT_EQ(out.source, 1);
  }
  EXPECT_FALSE(ringed.match(exec::kAnySource, 0, nullptr));

  exec::Inbox ringless(exec::Inbox::kMaxRingRanks + 1);
  exec::ReceivedMessage m = msg(exec::Inbox::kMaxRingRanks, 7);
  EXPECT_FALSE(ringless.try_push_ring(m));
  EXPECT_FALSE(ringless.has_arrivals());
  ringless.spill_locked(std::move(m));
  EXPECT_TRUE(ringless.has_arrivals());
  EXPECT_FALSE(ringless.drain_rings());
  EXPECT_TRUE(ringless.drain_spill_locked());
  EXPECT_TRUE(ringless.match(exec::kAnySource, 7, nullptr));
}

// ---------------------------------------------------------------------
// Cross-backend conformance.
// ---------------------------------------------------------------------

/// Forward+backward solve of an ND-ordered 13x13 grid on `comm`; returns x.
std::vector<real_t> solve_on(exec::Comm& comm,
                             const numeric::SupernodalFactor& l,
                             const sparse::SymmetricCsc& a,
                             std::span<const real_t> rhs, index_t m) {
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(l.partition(), comm.nprocs());
  partrisolve::DistributedTrisolver solver(l, map, {});
  std::vector<real_t> x(static_cast<std::size_t>(a.n() * m), 0.0);
  solver.solve(comm, rhs, x, m);
  return x;
}

TEST(Conformance, AllBackendsBitIdentical) {
  // The inbox and the zero-copy lane are pure transport: the simulator,
  // the thread backend and the fiber task backend must produce the
  // *bit-identical* x for the same program.
  sparse::SymmetricCsc a0 = sparse::grid2d(13, 13);
  const sparse::Permutation perm = ordering::nested_dissection_grid2d(13, 13);
  sparse::SymmetricCsc a = sparse::permute_symmetric(a0, perm);
  const numeric::SupernodalFactor l = numeric::multifrontal_cholesky(a);
  constexpr index_t m = 3;
  Rng rng(97);
  const std::vector<real_t> rhs = sparse::random_rhs(a.n(), m, rng);

  for (const index_t p : {2, 4, 8}) {
    simpar::Machine::Config sim_cfg;
    sim_cfg.nprocs = p;
    simpar::Machine machine(sim_cfg);
    const std::vector<real_t> ref = solve_on(machine, l, a, rhs, m);

    exec::ThreadBackend::Config thread_cfg;
    thread_cfg.nprocs = p;
    exec::ThreadBackend threads(thread_cfg);
    EXPECT_EQ(solve_on(threads, l, a, rhs, m), ref) << "threads p=" << p;

    exec::TaskBackend::Config task_cfg;
    task_cfg.nprocs = p;
    exec::TaskBackend tasks(task_cfg);
    EXPECT_EQ(solve_on(tasks, l, a, rhs, m), ref) << "tasks p=" << p;
  }
}

}  // namespace
}  // namespace sparts
