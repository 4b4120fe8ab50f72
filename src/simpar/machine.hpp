// The simulated distributed-memory machine — the deterministic backend of
// the exec layer (see exec/process.hpp for the backend-agnostic contract).
//
// Machine::run executes an SPMD function on p virtual processors.  Each
// processor is a host thread, but a strict-handoff scheduler runs exactly
// one at a time and always resumes the runnable processor with the smallest
// "effective time" (its local clock, or for a processor blocked in recv the
// arrival time of its earliest matching message).  This is a conservative
// sequential discrete-event simulation: it is deterministic, causally
// correct (no message can be created in another processor's past), and the
// final per-processor clocks are exactly the parallel execution times of
// the algorithm under the cost model.
//
// The API mirrors a minimal message-passing interface:
//   proc.compute(flops, kind)          charge computation time
//   proc.send(dst, tag, data)          blocking-send semantics with
//                                      t_s + l*t_h + m*t_w cost
//   proc.recv(src, tag)                blocking receive (src = kAnySource
//                                      matches any sender)
// plus typed span helpers.  Collectives are layered on top in
// exec/collectives.hpp.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "exec/process.hpp"

namespace sparts::simpar {

class Machine final : public exec::Comm {
 public:
  struct Config {
    index_t nprocs = 1;
    exec::CostModel cost{};
    exec::TopologyKind topology = exec::TopologyKind::hypercube;
  };

  explicit Machine(const Config& config);

  /// Run `spmd` on every rank to completion; returns per-rank statistics.
  /// Rethrows the first exception thrown by user code (by rank order).
  /// Throws DeadlockError if every unfinished rank blocks in recv forever.
  exec::RunStats run(const std::function<void(exec::Process&)>& spmd) override;

  index_t nprocs() const override { return config_.nprocs; }
  const exec::CostModel& cost() const override { return config_.cost; }
  const exec::Topology& topology() const override { return topology_; }

 private:
  class SimProcess;

  struct Message {
    index_t src;
    int tag;
    double arrival;
    nnz_t seq;  ///< global send order, tie-breaker
    exec::Payload payload;
  };

  enum class Status { ready, blocked, done };

  struct ProcControl {
    Status status = Status::ready;
    bool scheduled = false;  ///< this thread may run now
    double clock = 0.0;
    // recv() wait state:
    index_t want_src = 0;
    int want_tag = 0;
    std::condition_variable cv;
    std::vector<Message> mailbox;
    exec::ProcStats stats;
  };

  // Process entry points (called from worker threads).
  void do_compute(index_t rank, double flops, exec::FlopKind kind);
  void do_compute_at(index_t rank, double flops, double per_flop);
  void do_elapse(index_t rank, double seconds);
  void do_send(index_t rank, index_t dst, int tag,
               std::span<const std::byte> payload);
  exec::ReceivedMessage do_recv(index_t rank, index_t src, int tag);
  bool do_try_recv(index_t rank, index_t src, int tag,
                   exec::ReceivedMessage* out);
  void do_poll_wait(index_t rank, double seconds);
  double do_now(index_t rank) const;

  /// Index into the mailbox of the best (earliest-arrival) matching
  /// message, or -1.  With `arrived_by >= 0`, only messages whose arrival
  /// time is <= arrived_by qualify (polling semantics: a message "exists"
  /// for try_recv only once the rank's clock has caught up with it).
  std::ptrdiff_t find_match(const ProcControl& pc, index_t src, int tag,
                            double arrived_by = -1.0) const;

  /// Worker thread trampoline.
  void worker(index_t rank, const std::function<void(exec::Process&)>& spmd);

  /// Scheduler: picks and wakes the next runnable rank.  Returns false when
  /// every rank is done.  Must hold `mutex_`.
  bool schedule_next(std::unique_lock<std::mutex>& lock);

  /// Block the calling worker until the scheduler hands control back.
  void yield_and_wait(index_t rank, std::unique_lock<std::mutex>& lock);

  Config config_;
  exec::Topology topology_;

  std::mutex mutex_;
  std::condition_variable scheduler_cv_;
  // unique_ptr because ProcControl owns a condition_variable (immovable).
  std::vector<std::unique_ptr<ProcControl>> procs_;
  std::vector<std::exception_ptr> errors_;  ///< per rank, set by worker()
  nnz_t send_seq_ = 0;
  bool deadlock_ = false;
  bool running_ = false;
};

}  // namespace sparts::simpar
