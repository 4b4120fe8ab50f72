#include "exec/thread_backend.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
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

/// Rings are O(p^2) per backend; past this rank count fall back to the
/// locked mailboxes (which are O(p)).
constexpr index_t kMaxRingRanks = 128;
// Mailbox::ring_hint is 2 x 64 bits, one bit per possible ring source.
static_assert(kMaxRingRanks <= 128,
              "ring_hint words must cover every ring source rank");

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

bool env_spsc_default(bool config_default) {
  const char* v = std::getenv("SPARTS_SPSC");
  if (v == nullptr || *v == '\0') return config_default;
  return !(std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0);
}

}  // namespace

// ---------------------------------------------------------------------------
// ThreadBackend
// ---------------------------------------------------------------------------

ThreadBackend::ThreadBackend(const Config& config)
    : config_(config), topology_(config.topology, config.nprocs) {
  SPARTS_CHECK(config.nprocs >= 1, "need at least one processor");
  SPARTS_CHECK(config.recv_timeout > 0.0, "recv_timeout must be positive");
  config_.use_spsc = env_spsc_default(config.use_spsc);
}

void ThreadBackend::deliver(index_t dst, ReceivedMessage&& msg) {
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(dst)];
  const index_t src = msg.source;
  obs::flight_note(static_cast<std::int32_t>(src), "send",
                   static_cast<std::int64_t>(msg.payload.size()),
                   static_cast<std::int64_t>(dst));
  const bool metrics_on = obs::metrics_enabled();
  if (mb.rings != nullptr &&
      mb.rings[static_cast<std::size_t>(src)].try_push(msg)) {
    // Flag our ring as possibly-nonempty so the consumer's drain visits
    // only rings with traffic (O(active sources), not O(p)).  The
    // seq_cst RMW keeps the Dekker argument below intact: it is ordered
    // before the waiting probe, so a consumer that set waiting first
    // observes the hint (and hence the message) in its post-park drain.
    mb.ring_hint[src >> 6].fetch_or(std::uint64_t{1} << (src & 63),
                                    std::memory_order_seq_cst);
    // Producer half of the Dekker handshake (see exec/parking.hpp for the
    // full argument): fence, probe-and-claim the waiting flag, pinned
    // notify.  Edge-triggered: the first push of a burst claims the flag
    // and pays the lock+notify round trip; the rest of the burst sees
    // false and stays on the pure ring path.
    const bool woke = mb.park.notify_if_armed();
    if (metrics_on) {
      obs::metrics().counter("msgpath.ring_hit").add(1);
      if (woke) obs::metrics().counter("msgpath.wakes").add(1);
    }
    return;
  }
  // Ring full or fast path off: locked fallback queue.
  {
    std::lock_guard<std::mutex> lock(mb.park.mutex());
    mb.queue.push_back(std::move(msg));
    mb.queue_size.store(mb.queue.size(), std::memory_order_release);
  }
  if (metrics_on) obs::metrics().counter("msgpath.spill").add(1);
  // Targeted wakeup: each mailbox has exactly one owner, so notify_one
  // suffices (the old notify_all woke the whole herd at high p).  With
  // the rings on the wakeup is edge-triggered like the ring path's: the
  // push happened under the same mutex the consumer's pre-park queue
  // drain holds, so a consumer observed waiting is genuinely parked and
  // one claimed notify per park is enough — a burst that overflows the
  // ring pays the futex wake once, not per spilled message.
  if (mb.rings == nullptr) {
    mb.park.notify_owner();
    if (metrics_on) obs::metrics().counter("msgpath.wakes").add(1);
  } else {
    if (mb.park.notify_if_armed_locked_publish() && metrics_on) {
      obs::metrics().counter("msgpath.wakes").add(1);
    }
  }
}

bool ThreadBackend::drain_rings(Mailbox& mb) {
  if (mb.rings == nullptr) return false;
  bool any = false;
  ReceivedMessage m;
  // Visit only the rings whose producers flagged traffic since the last
  // drain.  exchange(0) claims the whole hint word: a bit set *during*
  // the drain is either satisfied now (we pop the item anyway) or re-read
  // on the next drain; a stale bit (item already popped) costs one empty
  // try_pop.  seq_cst pairs with the producer's fetch_or (see deliver).
  for (std::size_t w = 0; w < 2; ++w) {
    std::uint64_t bits = mb.ring_hint[w].exchange(0, std::memory_order_seq_cst);
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      const std::size_t s = w * 64 + static_cast<std::size_t>(bit);
      while (mb.rings[s].try_pop(&m)) {
        mb.pending.push_back(std::move(m));
        any = true;
      }
    }
  }
  return any;
}

bool ThreadBackend::drain_queue_locked(Mailbox& mb) {
  if (mb.queue.empty()) return false;
  while (!mb.queue.empty()) {
    mb.pending.push_back(std::move(mb.queue.front()));
    mb.queue.pop_front();
  }
  mb.queue_size.store(0, std::memory_order_release);
  return true;
}

ReceivedMessage ThreadBackend::take_match(index_t rank, index_t src, int tag) {
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(rank)];
  ReceivedMessage out;
  if (match_pending(mb.pending, src, tag, &out)) return out;
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
    if (drain_rings(mb)) {
      if (match_pending(mb.pending, src, tag, &out)) return out;
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

    // Slow path: fallback queue, then park.
    std::unique_lock<std::mutex> lock(mb.park.mutex());
    drain_queue_locked(mb);
    if (match_pending(mb.pending, src, tag, &out)) return out;
    mb.park.arm();
    if (drain_rings(mb)) {  // consumer half of the Dekker handshake
      mb.park.disarm();
      if (match_pending(mb.pending, src, tag, &out)) return out;
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
    drain_queue_locked(mb);
    drain_rings(mb);
    if (match_pending(mb.pending, src, tag, &out)) return out;
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
  drain_rings(mb);
  if (aborted_.load(std::memory_order_acquire)) {
    throw DeadlockError("thread backend run aborted: rank " +
                        std::to_string(rank) +
                        " was polling when another rank failed");
  }
  // With the rings on, the fallback queue only sees overflow traffic:
  // skip the mutex round trip whenever the atomic size says it is empty.
  // A concurrent overflow push we race past is caught by the caller's
  // poll loop (the producer's notify wakes the next poll_wait).
  if (mb.rings == nullptr ||
      mb.queue_size.load(std::memory_order_acquire) != 0) {
    std::lock_guard<std::mutex> lock(mb.park.mutex());
    drain_queue_locked(mb);
  }
  return match_pending(mb.pending, src, tag, out);
}

void ThreadBackend::poll_wait(index_t rank, double seconds) {
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(rank)];
  // Lock-free early out: arrivals since the caller's last drain mean its
  // next try_recv will find traffic, so skip the mutex and the condvar
  // entirely.  (The caller's take_match_now drains rings and hints first,
  // so a stale hint bit cannot make this loop spin.)
  if (mb.rings != nullptr &&
      !aborted_.load(std::memory_order_acquire) &&
      (mb.queue_size.load(std::memory_order_acquire) != 0 ||
       mb.ring_hint[0].load(std::memory_order_seq_cst) != 0 ||
       mb.ring_hint[1].load(std::memory_order_seq_cst) != 0)) {
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
  // Undrained ring items (or fallback-queue items) arrived after the
  // caller's last try_recv drain: that is exactly the "message delivery"
  // this wait is supposed to wake early for.
  bool arrivals = !mb.queue.empty();
  if (!arrivals && mb.rings != nullptr) {
    // Peek (not exchange): poll_wait does not drain, so consuming
    // the hint here would hide the arrival from the next drain_rings.
    // A stale hint bit causes at worst one early return; the caller's
    // retry loop re-polls and comes back.
    arrivals = mb.ring_hint[0].load(std::memory_order_seq_cst) != 0 ||
               mb.ring_hint[1].load(std::memory_order_seq_cst) != 0;
  }
  if (!arrivals) {
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
  const bool rings_on = config_.use_spsc && config_.nprocs <= kMaxRingRanks;
  for (index_t r = 0; r < config_.nprocs; ++r) {
    auto mb = std::make_unique<Mailbox>();
    if (rings_on) {
      mb->rings = std::make_unique<SpscRing<ReceivedMessage>[]>(
          static_cast<std::size_t>(config_.nprocs));
    }
    mailboxes_.push_back(std::move(mb));
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
