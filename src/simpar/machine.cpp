#include "simpar/machine.hpp"

#include <algorithm>
#include <memory>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sparts::simpar {

// ---------------------------------------------------------------------------
// SimProcess: the simulator's exec::Process implementation
// ---------------------------------------------------------------------------

class Machine::SimProcess final : public exec::Process {
 public:
  SimProcess(Machine* machine, index_t rank)
      : machine_(machine), rank_(rank) {}

  index_t rank() const override { return rank_; }
  index_t nprocs() const override { return machine_->nprocs(); }
  double now() const override { return machine_->do_now(rank_); }
  void compute(double flops, exec::FlopKind kind) override {
    machine_->do_compute(rank_, flops, kind);
  }
  void compute_at(double flops, double seconds_per_flop) override {
    machine_->do_compute_at(rank_, flops, seconds_per_flop);
  }
  void elapse(double seconds) override { machine_->do_elapse(rank_, seconds); }
  void send(index_t dst, int tag,
            std::span<const std::byte> payload) override {
    machine_->do_send(rank_, dst, tag, payload);
  }
  exec::ReceivedMessage recv(index_t src, int tag) override {
    return machine_->do_recv(rank_, src, tag);
  }
  bool try_recv(index_t src, int tag, exec::ReceivedMessage* out) override {
    return machine_->do_try_recv(rank_, src, tag, out);
  }
  void poll_wait(double seconds) override {
    machine_->do_poll_wait(rank_, seconds);
  }
  const exec::CostModel& cost() const override { return machine_->cost(); }
  const exec::Topology& topology() const override {
    return machine_->topology();
  }

 private:
  Machine* machine_;
  index_t rank_;
};

// ---------------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------------

Machine::Machine(const Config& config)
    : config_(config), topology_(config.topology, config.nprocs) {
  SPARTS_CHECK(config.nprocs >= 1, "need at least one processor");
}

double Machine::do_now(index_t rank) const {
  // Only the scheduled thread reads its own clock; no lock needed beyond
  // the handoff discipline, but take it anyway for sanitizer cleanliness.
  auto* self = const_cast<Machine*>(this);
  std::unique_lock<std::mutex> lock(self->mutex_);
  return procs_[static_cast<std::size_t>(rank)]->clock;
}

void Machine::do_compute(index_t rank, double flops, exec::FlopKind kind) {
  do_compute_at(rank, flops, config_.cost.per_flop(kind));
}

void Machine::do_compute_at(index_t rank, double flops, double per_flop) {
  SPARTS_CHECK(flops >= 0.0);
  std::unique_lock<std::mutex> lock(mutex_);
  auto& pc = *procs_[static_cast<std::size_t>(rank)];
  const double dt = flops * per_flop;
  pc.clock += dt;
  pc.stats.compute_time += dt;
  pc.stats.flops += static_cast<nnz_t>(flops);
}

void Machine::do_elapse(index_t rank, double seconds) {
  SPARTS_CHECK(seconds >= 0.0);
  std::unique_lock<std::mutex> lock(mutex_);
  auto& pc = *procs_[static_cast<std::size_t>(rank)];
  pc.clock += seconds;
  pc.stats.compute_time += seconds;
}

void Machine::do_send(index_t rank, index_t dst, int tag,
                      std::span<const std::byte> payload) {
  SPARTS_CHECK(dst >= 0 && dst < config_.nprocs,
               "send destination " << dst << " out of range");
  std::unique_lock<std::mutex> lock(mutex_);
  auto& pc = *procs_[static_cast<std::size_t>(rank)];
  const nnz_t words =
      static_cast<nnz_t>((payload.size() + sizeof(real_t) - 1) /
                         sizeof(real_t));
  const double occupancy = config_.cost.send_occupancy(words);
  const double arrival =
      pc.clock + occupancy +
      config_.cost.network_latency(topology_.hops(rank, dst));
  const double send_start = pc.clock;
  pc.clock += occupancy;
  pc.stats.send_time += occupancy;
  ++pc.stats.messages_sent;
  pc.stats.words_sent += words;
  // The simulator always captures the payload (it models a distributed
  // machine, not shared memory), so its copy lane is the whole lane.
  pc.stats.bytes_copied += static_cast<nnz_t>(payload.size());

  // The machine mutex is held here, so use pc.clock directly — calling
  // do_now() would self-deadlock.
  if (obs::Tracer::enabled()) {
    auto& tracer = obs::Tracer::instance();
    const auto r32 = static_cast<std::int32_t>(rank);
    tracer.record_local(r32, obs::EventKind::span_begin, obs::Category::comm,
                        "send", send_start,
                        static_cast<std::int64_t>(payload.size()),
                        static_cast<std::int64_t>(dst));
    tracer.record_local(r32, obs::EventKind::span_end, obs::Category::comm,
                        "send", pc.clock);
  }
  if (obs::metrics_enabled()) {
    obs::metrics().histogram("comm.message_bytes")
        .observe(static_cast<std::int64_t>(payload.size()));
  }

  Message msg;
  msg.src = rank;
  msg.tag = tag;
  msg.arrival = arrival;
  msg.seq = send_seq_++;
  msg.payload.assign(payload.begin(), payload.end());
  procs_[static_cast<std::size_t>(dst)]->mailbox.push_back(std::move(msg));
}

std::ptrdiff_t Machine::find_match(const ProcControl& pc, index_t src,
                                   int tag, double arrived_by) const {
  std::ptrdiff_t best = -1;
  for (std::size_t i = 0; i < pc.mailbox.size(); ++i) {
    const Message& m = pc.mailbox[i];
    if (m.tag != tag) continue;
    if (src != exec::kAnySource && m.src != src) continue;
    if (arrived_by >= 0.0 && m.arrival > arrived_by) continue;
    if (best == -1) {
      best = static_cast<std::ptrdiff_t>(i);
      continue;
    }
    const Message& b = pc.mailbox[static_cast<std::size_t>(best)];
    if (m.arrival < b.arrival ||
        (m.arrival == b.arrival &&
         (m.src < b.src || (m.src == b.src && m.seq < b.seq)))) {
      best = static_cast<std::ptrdiff_t>(i);
    }
  }
  return best;
}

exec::ReceivedMessage Machine::do_recv(index_t rank, index_t src, int tag) {
  SPARTS_CHECK(src == exec::kAnySource || (src >= 0 && src < config_.nprocs),
               "recv source " << src << " out of range");
  std::unique_lock<std::mutex> lock(mutex_);
  auto& pc = *procs_[static_cast<std::size_t>(rank)];

  // Always yield: the scheduler alone decides when it is causally safe to
  // consume a message (see header comment).
  pc.status = Status::blocked;
  pc.want_src = src;
  pc.want_tag = tag;
  pc.scheduled = false;
  schedule_next(lock);
  pc.cv.wait(lock, [&pc] { return pc.scheduled; });

  const std::ptrdiff_t idx = find_match(pc, src, tag);
  if (idx < 0) {
    SPARTS_CHECK(deadlock_, "scheduled a blocked rank without a match");
    throw DeadlockError(
        "simulated machine deadlock: rank " + std::to_string(rank) +
        " waits for src=" + std::to_string(src) +
        " tag=" + std::to_string(tag) + " but no sender can make progress");
  }
  Message msg = std::move(pc.mailbox[static_cast<std::size_t>(idx)]);
  pc.mailbox.erase(pc.mailbox.begin() + idx);
  const double old_clock = pc.clock;
  pc.clock = std::max(pc.clock, msg.arrival);
  pc.stats.idle_time += pc.clock - old_clock;
  ++pc.stats.messages_received;
  pc.stats.words_received += static_cast<nnz_t>(
      (msg.payload.size() + sizeof(real_t) - 1) / sizeof(real_t));
  pc.status = Status::ready;

  // Recorded only now (while the rank was blocked nothing else wrote to
  // its track, so per-rank order is preserved); mutex held, so no do_now().
  if (obs::Tracer::enabled()) {
    auto& tracer = obs::Tracer::instance();
    const auto r32 = static_cast<std::int32_t>(rank);
    tracer.record_local(r32, obs::EventKind::span_begin, obs::Category::comm,
                        "recv", old_clock,
                        static_cast<std::int64_t>(msg.payload.size()),
                        static_cast<std::int64_t>(msg.src));
    tracer.record_local(r32, obs::EventKind::span_end, obs::Category::comm,
                        "recv", pc.clock);
  }
  return exec::ReceivedMessage{msg.src, msg.tag, std::move(msg.payload)};
}

bool Machine::do_try_recv(index_t rank, index_t src, int tag,
                          exec::ReceivedMessage* out) {
  SPARTS_CHECK(src == exec::kAnySource || (src >= 0 && src < config_.nprocs),
               "recv source " << src << " out of range");
  SPARTS_CHECK(out != nullptr);
  std::unique_lock<std::mutex> lock(mutex_);
  auto& pc = *procs_[static_cast<std::size_t>(rank)];

  // Yield while staying `ready`: every peer whose effective time is
  // earlier than our clock runs to quiescence before we look, so an empty
  // answer is conservative-DES-correct, not a scheduling accident.
  pc.scheduled = false;
  schedule_next(lock);
  pc.cv.wait(lock, [&pc] { return pc.scheduled; });

  // Only messages that have *arrived* by our current clock are visible —
  // a poll must not time-travel to a future arrival the way a blocking
  // recv may.
  const std::ptrdiff_t idx = find_match(pc, src, tag, pc.clock);
  if (idx < 0) return false;
  Message msg = std::move(pc.mailbox[static_cast<std::size_t>(idx)]);
  pc.mailbox.erase(pc.mailbox.begin() + idx);
  ++pc.stats.messages_received;
  pc.stats.words_received += static_cast<nnz_t>(
      (msg.payload.size() + sizeof(real_t) - 1) / sizeof(real_t));
  *out = exec::ReceivedMessage{msg.src, msg.tag, std::move(msg.payload)};
  return true;
}

void Machine::do_poll_wait(index_t rank, double seconds) {
  SPARTS_CHECK(seconds >= 0.0);
  std::unique_lock<std::mutex> lock(mutex_);
  auto& pc = *procs_[static_cast<std::size_t>(rank)];
  pc.clock += seconds;
  pc.stats.idle_time += seconds;
  // Hand the token back so peers with earlier clocks can run; without
  // this a polling loop would starve every other rank under the strict
  // handoff scheduler.
  pc.scheduled = false;
  schedule_next(lock);
  pc.cv.wait(lock, [&pc] { return pc.scheduled; });
}

bool Machine::schedule_next(std::unique_lock<std::mutex>&) {
  // Pick the runnable rank with the smallest effective time (ties by rank).
  index_t best = -1;
  double best_time = 0.0;
  bool any_unfinished = false;
  for (index_t r = 0; r < config_.nprocs; ++r) {
    ProcControl& pc = *procs_[static_cast<std::size_t>(r)];
    if (pc.status == Status::done) continue;
    any_unfinished = true;
    double eff;
    if (pc.status == Status::ready) {
      eff = pc.clock;
    } else {
      const std::ptrdiff_t idx = find_match(pc, pc.want_src, pc.want_tag);
      if (idx < 0) continue;
      eff = std::max(pc.clock,
                     pc.mailbox[static_cast<std::size_t>(idx)].arrival);
    }
    if (best == -1 || eff < best_time) {
      best = r;
      best_time = eff;
    }
  }

  if (best != -1) {
    ProcControl& pc = *procs_[static_cast<std::size_t>(best)];
    pc.scheduled = true;
    pc.cv.notify_one();
    return true;
  }
  if (!any_unfinished) {
    scheduler_cv_.notify_all();  // run() may finish
    return false;
  }
  // Deadlock: wake one blocked rank so it can unwind with DeadlockError;
  // its worker epilogue will call schedule_next again for the next one.
  deadlock_ = true;
  for (index_t r = 0; r < config_.nprocs; ++r) {
    ProcControl& pc = *procs_[static_cast<std::size_t>(r)];
    if (pc.status == Status::blocked) {
      pc.scheduled = true;
      pc.cv.notify_one();
      return true;
    }
  }
  scheduler_cv_.notify_all();
  return false;
}

void Machine::yield_and_wait(index_t rank,
                             std::unique_lock<std::mutex>& lock) {
  auto& pc = *procs_[static_cast<std::size_t>(rank)];
  pc.cv.wait(lock, [&pc] { return pc.scheduled; });
}

void Machine::worker(index_t rank,
                     const std::function<void(exec::Process&)>& spmd) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    yield_and_wait(rank, lock);
  }
  auto& pc = *procs_[static_cast<std::size_t>(rank)];
  try {
    SimProcess proc(this, rank);
    spmd(proc);
  } catch (...) {
    errors_[static_cast<std::size_t>(rank)] = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    pc.status = Status::done;
    pc.scheduled = false;
    schedule_next(lock);
  }
}

exec::RunStats Machine::run(const std::function<void(exec::Process&)>& spmd) {
  SPARTS_CHECK(!running_, "Machine::run is not reentrant");
  running_ = true;
  deadlock_ = false;
  send_seq_ = 0;
  procs_.clear();
  procs_.reserve(static_cast<std::size_t>(config_.nprocs));
  for (index_t r = 0; r < config_.nprocs; ++r) {
    procs_.push_back(std::make_unique<ProcControl>());
  }
  errors_.assign(static_cast<std::size_t>(config_.nprocs), nullptr);

  if (obs::Tracer::enabled()) obs::Tracer::instance().begin_run();

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(config_.nprocs));
  for (index_t r = 0; r < config_.nprocs; ++r) {
    threads.emplace_back([this, r, &spmd] { worker(r, spmd); });
  }

  {
    std::unique_lock<std::mutex> lock(mutex_);
    schedule_next(lock);  // hand the token to rank 0
    scheduler_cv_.wait(lock, [this] {
      return std::all_of(procs_.begin(), procs_.end(), [](const auto& pc) {
        return pc->status == Status::done;
      });
    });
  }
  for (auto& t : threads) t.join();
  running_ = false;

  exec::rethrow_root_cause(errors_);

  exec::RunStats stats;
  stats.procs.reserve(procs_.size());
  for (auto& pc : procs_) {
    pc->stats.clock = pc->clock;
    stats.procs.push_back(pc->stats);
  }
  if (obs::Tracer::enabled()) {
    obs::Tracer::instance().end_run(stats.parallel_time());
  }
  return stats;
}

}  // namespace sparts::simpar
