#include "exec/thread_backend.hpp"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "exec/wall_process.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sparts::exec {

namespace {

using Clock = std::chrono::steady_clock;

/// Yield-based spin budget before parking.  yield (not pause): rank
/// threads routinely oversubscribe the cores, so giving the scheduler the
/// core is what lets the producer actually produce.
constexpr int kSpinYields = 32;

/// Spinning pays only while a yield is likely to run the producer next:
/// with every rank on its own core, or with exactly two ranks (ping-pong
/// — the yield is a directed handoff even on one core).  Once many ranks
/// share few cores, each blocked rank's yields cycle through the *other*
/// spinners before the one runnable producer, multiplying context
/// switches per delivered message — park immediately instead.
int spin_budget(index_t nprocs) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return nprocs <= std::max<index_t>(2, static_cast<index_t>(hw))
             ? kSpinYields
             : 0;
}

/// Parked waiters re-check their rings at least this often — a liveness
/// backstop (the Dekker handshake should make every wakeup explicit) that
/// also bounds the cost of any missed edge to one slice.
constexpr auto kParkSlice = std::chrono::milliseconds(5);

}  // namespace

// ---------------------------------------------------------------------------
// ThreadBackend
// ---------------------------------------------------------------------------

ThreadBackend::ThreadBackend(const Config& config)
    : config_(config), topology_(config.topology, config.nprocs) {
  SPARTS_CHECK(config.nprocs >= 1, "need at least one processor");
  SPARTS_CHECK(config.recv_timeout > 0.0, "recv_timeout must be positive");
}

void ThreadBackend::deliver(index_t dst, ReceivedMessage&& msg) {
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(dst)];
  obs::flight_note(static_cast<std::int32_t>(msg.source), "send",
                   static_cast<std::int64_t>(msg.payload.size()),
                   static_cast<std::int64_t>(dst));
  bool woke = false;
  if (mb.inbox.try_push_ring(msg)) {
    // Producer half of the Dekker handshake (see exec/parking.hpp for the
    // full argument): fence, probe-and-claim the waiting flag, pinned
    // notify.  Edge-triggered: the first push of a burst claims the flag
    // and pays the lock+notify round trip; the rest of the burst sees
    // false and stays on the pure ring path.
    woke = mb.park.notify_if_armed();
  } else {
    {
      std::lock_guard<std::mutex> lock(mb.park.mutex());
      mb.inbox.spill_locked(std::move(msg));
    }
    // Edge-triggered like the ring path: the spill happened under the
    // mutex the owner holds from its pre-park drain until it waits, so an
    // owner observed waiting is genuinely parked, and one claimed notify
    // per park is enough — a burst that overflows the ring pays the futex
    // wake once, not per spilled message.
    woke = mb.park.notify_if_armed_locked_publish();
  }
  if (woke && obs::metrics_enabled()) {
    obs::metrics().counter("msgpath.wakes").add(1);
  }
}

ReceivedMessage ThreadBackend::take_match(index_t rank, index_t src, int tag) {
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(rank)];
  ReceivedMessage out;
  if (mb.inbox.match(src, tag, &out)) return out;
  // Flight-note only blocking receives (the fast pop above stays silent):
  // when the run dies, the dump shows what each rank was waiting on.
  obs::flight_note(static_cast<std::int32_t>(rank), "recv_wait",
                   static_cast<std::int64_t>(src),
                   static_cast<std::int64_t>(tag));
  const bool metrics_on = obs::metrics_enabled();
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config_.recv_timeout));

  auto throw_aborted = [&] {
    throw DeadlockError("thread backend run aborted: rank " +
                        std::to_string(rank) +
                        " was waiting in recv when another rank failed");
  };

  const int spins = spin_budget(config_.nprocs);
  int idle_rounds = 0;
  for (;;) {
    // Fast path: drain the rings and match from pending.
    if (mb.inbox.drain_rings()) {
      if (mb.inbox.match(src, tag, &out)) return out;
      idle_rounds = 0;  // traffic is flowing; keep consuming the burst
      continue;
    }
    if (aborted_.load(std::memory_order_acquire)) throw_aborted();
    if (idle_rounds < spins) {
      ++idle_rounds;
      if (metrics_on) obs::metrics().counter("msgpath.spin_iters").add(1);
      std::this_thread::yield();
      continue;
    }

    // Slow path: spill queue, then park.
    std::unique_lock<std::mutex> lock(mb.park.mutex());
    mb.inbox.drain_spill_locked();
    if (mb.inbox.match(src, tag, &out)) return out;
    mb.park.arm();
    if (mb.inbox.drain_rings()) {  // consumer half of the Dekker handshake
      mb.park.disarm();
      if (mb.inbox.match(src, tag, &out)) return out;
      idle_rounds = 0;
      continue;
    }
    if (aborted_.load(std::memory_order_acquire)) {
      mb.park.disarm();
      throw_aborted();
    }
    if (active_.load(std::memory_order_acquire) <= 1) {
      mb.park.disarm();
      obs::flight_note(static_cast<std::int32_t>(rank), "recv_deadlock",
                       static_cast<std::int64_t>(src),
                       static_cast<std::int64_t>(tag));
      throw DeadlockError(
          "thread backend deadlock: rank " + std::to_string(rank) +
          " waits for src=" + std::to_string(src) +
          " tag=" + std::to_string(tag) +
          " but every other rank already finished");
    }
    if (metrics_on) obs::metrics().counter("msgpath.parks").add(1);
    mb.park.park_until(lock, std::min(deadline, Clock::now() + kParkSlice));
    mb.park.disarm();
    mb.inbox.drain_spill_locked();
    mb.inbox.drain_rings();
    if (mb.inbox.match(src, tag, &out)) return out;
    if (Clock::now() >= deadline) {
      obs::flight_note(static_cast<std::int32_t>(rank), "recv_timeout",
                       static_cast<std::int64_t>(src),
                       static_cast<std::int64_t>(tag));
      throw DeadlockError(
          "thread backend recv timed out after " +
          std::to_string(config_.recv_timeout) + "s: rank " +
          std::to_string(rank) + " waits for src=" + std::to_string(src) +
          " tag=" + std::to_string(tag) + " (likely deadlock)");
    }
    idle_rounds = 0;
  }
}

bool ThreadBackend::take_match_now(index_t rank, index_t src, int tag,
                                   ReceivedMessage* out) {
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(rank)];
  mb.inbox.drain_rings();
  if (aborted_.load(std::memory_order_acquire)) {
    throw DeadlockError("thread backend run aborted: rank " +
                        std::to_string(rank) +
                        " was polling when another rank failed");
  }
  // Skip the mutex round trip while nothing has spilled.  A concurrent
  // spill we race past is caught by the caller's poll loop: the next
  // poll_wait sees it through the arrival probe.
  if (mb.inbox.spill_nonempty()) {
    std::lock_guard<std::mutex> lock(mb.park.mutex());
    mb.inbox.drain_spill_locked();
  }
  return mb.inbox.match(src, tag, out);
}

void ThreadBackend::poll_wait(index_t rank, double seconds) {
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(rank)];
  // Lock-free early out: arrivals since the caller's last drain mean its
  // next try_recv will find traffic, so skip the mutex and the condvar
  // entirely.  (The caller's take_match_now drains rings and hints first,
  // so a stale hint bit cannot make this loop spin.)
  if (!aborted_.load(std::memory_order_acquire) && mb.inbox.has_arrivals()) {
    return;
  }
  std::unique_lock<std::mutex> lock(mb.park.mutex());
  if (aborted_.load(std::memory_order_acquire)) {
    throw DeadlockError("thread backend run aborted: rank " +
                        std::to_string(rank) +
                        " was polling when another rank failed");
  }
  // Every peer finished: nothing new can arrive, so return at once and
  // let the caller's retry budget expire instead of sleeping it out.
  if (active_.load(std::memory_order_acquire) <= 1) return;
  mb.park.arm();
  // Arrivals after the caller's last drain are exactly the "message
  // delivery" this wait is supposed to wake early for.
  if (!mb.inbox.has_arrivals()) {
    mb.park.park_for(lock, std::chrono::duration<double>(seconds));
  }
  mb.park.disarm();
  if (aborted_.load(std::memory_order_acquire)) {
    throw DeadlockError("thread backend run aborted: rank " +
                        std::to_string(rank) +
                        " was polling when another rank failed");
  }
}

void ThreadBackend::wake_all_mailboxes() {
  for (auto& mb : mailboxes_) mb->park.notify_all();
}

RunStats ThreadBackend::run(const std::function<void(Process&)>& spmd) {
  SPARTS_CHECK(!running_, "ThreadBackend::run is not reentrant");
  running_ = true;
  aborted_.store(false, std::memory_order_release);
  mailboxes_.clear();
  mailboxes_.reserve(static_cast<std::size_t>(config_.nprocs));
  for (index_t r = 0; r < config_.nprocs; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>(config_.nprocs));
  }
  errors_.assign(static_cast<std::size_t>(config_.nprocs), nullptr);
  active_.store(config_.nprocs, std::memory_order_release);
  std::vector<ProcStats> stats(static_cast<std::size_t>(config_.nprocs));
  epoch_ = Clock::now();
  if (obs::Tracer::enabled()) obs::Tracer::instance().begin_run();

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(config_.nprocs));
  for (index_t r = 0; r < config_.nprocs; ++r) {
    threads.emplace_back([this, r, &spmd, &stats] {
      WallProcess<ThreadBackend> proc(*this, r, epoch_);
      try {
        spmd(proc);
      } catch (...) {
        errors_[static_cast<std::size_t>(r)] = std::current_exception();
        aborted_.store(true, std::memory_order_release);
      }
      stats[static_cast<std::size_t>(r)] = proc.finish();
      active_.fetch_sub(1, std::memory_order_acq_rel);
      // Wake peers either to abort or to detect that this rank can no
      // longer send them anything.
      wake_all_mailboxes();
    });
  }
  for (auto& t : threads) t.join();
  running_ = false;

  // All threads are already joined at this point, so a crashed rank can
  // never leave peers running or mailboxes live past this rethrow.
  rethrow_root_cause(errors_);

  RunStats out;
  out.procs = std::move(stats);
  if (obs::Tracer::enabled()) {
    obs::Tracer::instance().end_run(out.parallel_time());
  }
  return out;
}

}  // namespace sparts::exec
