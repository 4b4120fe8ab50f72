// The backend-agnostic execution layer.
//
// Every parallel algorithm in this repo is written as an SPMD function
// `void(Process&)`: the paper's pipelined trisolvers, the 2-D→1-D
// redistribution, the multifrontal factorization, and the collectives.
// `Process` is the handle a rank uses to talk to its peers; `Comm` is the
// machine that runs p ranks to completion and returns their statistics.
//
// Four backends implement this contract:
//   * simpar::Machine — a conservative sequential discrete-event simulator.
//     Deterministic, cost-model clocks; reproduces the paper's T3D numbers.
//   * exec::ThreadBackend — each rank is a std::thread; messages arrive
//     through an exec::Inbox: lock-free SPSC rings and a locked spill
//     queue.
//   * exec::TaskBackend — each rank is a fiber on a work-stealing pool,
//     with the same inbox.
//   * exec::SocketBackend — each rank is an OS process on TCP.
// The three wall-clock backends hand SPMD code the same Process,
// exec::WallProcess (exec/wall_process.hpp), which does their
// compute/send/idle accounting once over each backend's own transport.
// The message audit, the fault injector and the reliability envelope are
// Comm decorators over any of them, built on ForwardingComm and
// ForwardingProcess below.
//
// SPMD code must not assume more than the contract gives it:
//   * send() is asynchronous and never blocks waiting for the receiver
//     (buffered-send semantics on every backend).
//   * recv() blocks until a message matching (src|kAnySource, tag) exists.
//     When several match, the backend picks its canonical one (earliest
//     simulated arrival / first queued); code needing a total order must
//     disambiguate with tags.
//   * compute()/compute_at()/elapse() declare work to the backend's clock;
//     on the wall-clock backends real time is measured, so these only count
//     flops.
#pragma once

#include <cstddef>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "exec/cost_model.hpp"
#include "exec/stats.hpp"
#include "exec/topology.hpp"

namespace sparts::exec {

/// Wildcard source rank for recv.
inline constexpr index_t kAnySource = -1;

/// Reserved control tag used by the reliability envelope (exec/reliable.hpp)
/// for its nack/fin traffic.  Every algorithm-level tag scheme in the
/// repo (partrisolve, parfact's TagScheme, redist) produces non-negative
/// tags, so this negative plane can never collide with data traffic.
inline constexpr int kCtrlTag = -1000001;

/// The message payload buffer type.  Its allocator is stateless, so an
/// owned buffer moves through a backend's ring whole, without a copy
/// (send_owned below).
using Payload = std::vector<std::byte>;

/// Payloads at least this large take the zero-copy lane when sent with
/// send_owned on a backend that supports it; smaller ones are copied
/// inline (the copy is cheaper than bouncing the buffer's cache lines
/// and the allocator between threads).
inline constexpr std::size_t kZeroCopyThreshold = 256;

/// A received message.
struct ReceivedMessage {
  index_t source = -1;
  int tag = 0;
  Payload payload;
};

/// Handle through which SPMD code interacts with its processor.  Only valid
/// inside Comm::run, on the thread executing that rank.
class Process {
 public:
  virtual ~Process() = default;
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  virtual index_t rank() const = 0;
  virtual index_t nprocs() const = 0;

  /// Local time: simulated seconds on the simulator, wall-clock seconds
  /// since the start of the run on the wall-clock backends.
  virtual double now() const = 0;

  /// Declare `flops * t_c(kind)` of computation.
  virtual void compute(double flops, FlopKind kind = FlopKind::blas1) = 0;

  /// Declare `flops` of computation at an explicit per-flop cost (used for
  /// the BLAS-2/3 interpolation on multi-RHS panels).
  virtual void compute_at(double flops, double seconds_per_flop) = 0;

  /// Declare raw seconds of local work (e.g. fixed overheads).
  virtual void elapse(double seconds) = 0;

  /// Send `payload` to `dst` with `tag`.  Buffered-send semantics: returns
  /// once the payload is captured, without waiting for the receiver.
  virtual void send(index_t dst, int tag,
                    std::span<const std::byte> payload) = 0;

  /// Zero-copy send: the caller hands over ownership of the buffer and the
  /// backend moves it to the receiver without copying the bytes (thread
  /// and task backends; payloads under kZeroCopyThreshold stay on the
  /// copy lane).  Semantics are identical to send() — same matching, same
  /// buffered-send guarantee — so the default forwards to send(), which
  /// is also what makes decorators compose unchanged: ForwardingProcess
  /// pins this forwarding, so an owned send through the audit, the fault
  /// injector or the envelope reaches that layer's own send() and is
  /// audited / perturbed / enveloped exactly like a plain one (at the
  /// cost of the copy; the envelope appends a wire trailer and could
  /// never be zero-copy anyway).
  virtual void send_owned(index_t dst, int tag, Payload&& payload) {
    send(dst, tag, {payload.data(), payload.size()});
  }

  /// Blocking receive.  `src` may be kAnySource.
  virtual ReceivedMessage recv(index_t src, int tag) = 0;

  /// Non-blocking receive: if a message matching (src|kAnySource, tag) is
  /// available *now*, consume it into `*out` and return true; otherwise
  /// return false without waiting.  On the simulator "now" means the rank
  /// first yields to the strict-handoff scheduler, so by the time it is
  /// resumed every peer with an earlier clock has run as far as it can —
  /// a false result is causally meaningful, not a scheduling accident.
  /// The default implementation throws: backends (and decorators) that
  /// support polling override it.  Only the reliability envelope should
  /// call this directly (tools/lint.py flags other call sites).
  virtual bool try_recv(index_t src, int tag, ReceivedMessage* out) {
    (void)src;
    (void)tag;
    (void)out;
    throw Error("try_recv is not supported by this Process implementation");
  }

  /// Sleep `seconds` of backend time while remaining responsive to
  /// message delivery: on the simulator the rank's clock advances and the
  /// scheduler token is handed back (so peers can run); on the threaded
  /// backend the calling thread waits on its mailbox and wakes early when
  /// a message arrives or the run aborts.  Used by polling loops between
  /// try_recv attempts; defaults to elapse() for backends without a
  /// dedicated implementation.
  virtual void poll_wait(double seconds) { elapse(seconds); }

  virtual const CostModel& cost() const = 0;
  virtual const Topology& topology() const = 0;

  /// Typed helper: send a span of trivially copyable values.
  template <typename T>
  void send_values(index_t dst, int tag, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dst, tag,
         {reinterpret_cast<const std::byte*>(values.data()),
          values.size() * sizeof(T)});
  }

  /// Typed helper: send a single value.
  template <typename T>
  void send_value(index_t dst, int tag, const T& value) {
    send_values<T>(dst, tag, {&value, 1});
  }

  /// Typed helper: receive trivially copyable values into `out`, reusing
  /// its capacity (loops that receive one block per step keep one buffer).
  template <typename T>
  void recv_values_into(index_t src, int tag, std::vector<T>& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    ReceivedMessage msg = recv(src, tag);
    SPARTS_CHECK(msg.payload.size() % sizeof(T) == 0,
                 "payload size not a multiple of the element size");
    out.resize(msg.payload.size() / sizeof(T));
    if (!msg.payload.empty()) {
      std::memcpy(out.data(), msg.payload.data(), msg.payload.size());
    }
  }

  /// Typed helper: receive a vector of trivially copyable values.
  template <typename T>
  std::vector<T> recv_values(index_t src, int tag) {
    std::vector<T> out;
    recv_values_into(src, tag, out);
    return out;
  }

  /// Typed helper: receive exactly one value.
  template <typename T>
  T recv_value(index_t src, int tag) {
    auto v = recv_values<T>(src, tag);
    SPARTS_CHECK(v.size() == 1, "expected a single value");
    return v[0];
  }

 protected:
  Process() = default;
};

/// Rethrow priority for per-rank errors collected by a backend's run():
/// genuine root causes (numerical failures, injected faults, ...) beat
/// TimeoutError (a bounded wait that gave up, usually because of the root
/// cause) which beats DeadlockError (the secondary unwind of blocked
/// peers).  Lower class = higher priority.
inline int error_priority(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const DeadlockError&) {
    return 2;
  } catch (const TimeoutError&) {
    return 1;
  } catch (...) {
    return 0;
  }
}

/// Rethrow the root cause among the per-rank errors a backend's run()
/// collected: the highest-priority error (see error_priority), ties broken
/// by rank order.  Returns normally when every slot is empty.
inline void rethrow_root_cause(std::span<const std::exception_ptr> errors) {
  std::exception_ptr best_error;
  int best_priority = 3;
  for (const auto& err : errors) {
    if (!err) continue;
    const int priority = error_priority(err);
    if (priority < best_priority) {
      best_priority = priority;
      best_error = err;
    }
  }
  if (best_error) std::rethrow_exception(best_error);
}

/// An execution backend: runs an SPMD function on nprocs() ranks.
class Comm {
 public:
  virtual ~Comm() = default;

  /// Run `spmd` on every rank to completion; returns per-rank statistics.
  /// Rethrows the first exception thrown by user code (by rank order,
  /// non-deadlock errors first so the root cause surfaces).  Throws
  /// DeadlockError if ranks block in recv forever.
  virtual RunStats run(const std::function<void(Process&)>& spmd) = 0;

  virtual index_t nprocs() const = 0;
  virtual const CostModel& cost() const = 0;
  virtual const Topology& topology() const = 0;

  /// True when ranks live in separate OS processes (the socket backend):
  /// no shared memory, so SPMD phases whose outputs are read by *other*
  /// phases on ranks that did not compute them must replicate those
  /// outputs explicitly (the solver mirrors the factor and the solution
  /// with exec::allmerge_nonzero).  Decorators forward to their inner
  /// backend.
  virtual bool distributed() const { return false; }
};

/// Base of the per-rank Process of every Comm decorator (the audit, the
/// fault injector, the reliability envelope): forwards everything to the
/// inner Process, so a decorator overrides only the message operations it
/// changes.  try_recv keeps the throwing default, so a layer that cannot
/// poll (the envelope) never hands out raw inner frames.
class ForwardingProcess : public Process {
 public:
  explicit ForwardingProcess(Process& inner) : inner_(inner) {}

  /// The Process this layer wraps (ProgressNotes walks the chain).
  Process& inner() const { return inner_; }

  index_t rank() const override { return inner_.rank(); }
  index_t nprocs() const override { return inner_.nprocs(); }
  double now() const override { return inner_.now(); }
  void compute(double flops, FlopKind kind) override {
    inner_.compute(flops, kind);
  }
  void compute_at(double flops, double seconds_per_flop) override {
    inner_.compute_at(flops, seconds_per_flop);
  }
  void elapse(double seconds) override { inner_.elapse(seconds); }
  void send(index_t dst, int tag, std::span<const std::byte> payload) override {
    inner_.send(dst, tag, payload);
  }
  /// Final: an owned send must reach this layer's send(), never the inner
  /// send_owned, or it would bypass the audit and the envelope.
  void send_owned(index_t dst, int tag, Payload&& payload) final {
    Process::send_owned(dst, tag, std::move(payload));
  }
  ReceivedMessage recv(index_t src, int tag) override {
    return inner_.recv(src, tag);
  }
  void poll_wait(double seconds) override { inner_.poll_wait(seconds); }
  const CostModel& cost() const override { return inner_.cost(); }
  const Topology& topology() const override { return inner_.topology(); }

 protected:
  Process& inner_;
};

/// Base of the Comm decorators: holds the inner backend (owned, or
/// borrowed for the caller to keep alive) and forwards the machine's
/// shape, so a decorator overrides only run().
class ForwardingComm : public Comm {
 public:
  explicit ForwardingComm(std::unique_ptr<Comm> inner)
      : inner_(inner.get()), owned_(std::move(inner)) {
    SPARTS_CHECK(inner_ != nullptr, "a Comm decorator needs an inner backend");
  }
  explicit ForwardingComm(Comm& inner) : inner_(&inner) {}

  index_t nprocs() const override { return inner_->nprocs(); }
  const CostModel& cost() const override { return inner_->cost(); }
  const Topology& topology() const override { return inner_->topology(); }
  bool distributed() const override { return inner_->distributed(); }

 protected:
  Comm* inner_;

 private:
  std::unique_ptr<Comm> owned_;
};

}  // namespace sparts::exec
