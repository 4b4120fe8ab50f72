// One rank's Process on a wall-clock backend (threads, tasks, proc): the
// rank accounting those backends share, written once.
//
// Wall time splits the way the paper's runtime model splits a processor's
// time: wall time between communication calls is computation, time inside
// a send is communication, and time blocked in recv or poll_wait is idle
// (waiting at elimination-tree merge points).  compute()/compute_at() only
// count flops — the caller's kernel already ran, so wall time is the
// truth — and elapse() is a no-op.  Beside the split the process counts
// messages, words and the bytes the copy lane copied, and emits the `comm`
// send/recv trace spans and the `comm.*` metrics.
//
// The message path belongs to the backend, passed as `Transport` and
// called directly, so the shared code adds no virtual call, lock or
// allocation per message.  A transport provides
//
//   index_t nprocs() const;
//   const CostModel& cost() const;
//   const Topology& topology() const;
//   void deliver(index_t dst, ReceivedMessage&& msg);  // msg.source = sender
//   ReceivedMessage take_match(index_t rank, index_t src, int tag);  // blocks
//   bool take_match_now(index_t rank, index_t src, int tag,
//                       ReceivedMessage* out);          // never blocks
//   void poll_wait(index_t rank, double seconds);       // bounded wait
//
// with the semantics of the Process calls of the same names, and hands
// the run's time origin to the constructor.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "exec/process.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sparts::exec {

/// All mutable state is owned by the rank's own thread or fiber; the
/// backend reads finish() only after the rank's body returned.
template <class Transport>
class WallProcess final : public Process {
 public:
  using Clock = std::chrono::steady_clock;

  /// `epoch` is the run's time origin for now() and trace timestamps.
  WallProcess(Transport& transport, index_t rank, Clock::time_point epoch)
      : transport_(transport),
        rank_(rank),
        epoch_(epoch),
        last_mark_(Clock::now()) {}

  index_t rank() const override { return rank_; }
  index_t nprocs() const override { return transport_.nprocs(); }
  double now() const override { return since_epoch(Clock::now()); }

  void compute(double flops, FlopKind /*kind*/) override {
    count_flops(flops);
  }
  void compute_at(double flops, double /*seconds_per_flop*/) override {
    count_flops(flops);
  }
  void elapse(double seconds) override { SPARTS_CHECK(seconds >= 0.0); }

  void send(index_t dst, int tag,
            std::span<const std::byte> payload) override {
    // Copy lane: capture the payload into a fresh buffer.
    post(dst, tag, Payload(payload.begin(), payload.end()),
         /*copied_bytes=*/payload.size());
  }

  void send_owned(index_t dst, int tag, Payload&& payload) override {
    if (payload.size() < kZeroCopyThreshold) {
      send(dst, tag, {payload.data(), payload.size()});
      return;
    }
    // Zero-copy lane: the buffer itself travels to the receiver.
    post(dst, tag, std::move(payload), /*copied_bytes=*/0);
  }

  ReceivedMessage recv(index_t src, int tag) override {
    check_source(src);
    const Clock::time_point t0 = flush_busy();
    ReceivedMessage msg = transport_.take_match(rank_, src, tag);
    const Clock::time_point t1 = idle_since(t0);
    count_received(msg);
    trace_comm("recv", t0, t1, msg.payload.size(), msg.source);
    return msg;
  }

  bool try_recv(index_t src, int tag, ReceivedMessage* out) override {
    check_source(src);
    SPARTS_CHECK(out != nullptr);
    if (!transport_.take_match_now(rank_, src, tag, out)) return false;
    count_received(*out);
    return true;
  }

  void poll_wait(double seconds) override {
    SPARTS_CHECK(seconds >= 0.0);
    const Clock::time_point t0 = flush_busy();
    transport_.poll_wait(rank_, seconds);
    idle_since(t0);
  }

  const CostModel& cost() const override { return transport_.cost(); }
  const Topology& topology() const override { return transport_.topology(); }

  /// Close the final busy segment and stamp the finishing time.
  ProcStats finish() {
    flush_busy();
    stats_.clock = now();
    return stats_;
  }

 private:
  static double seconds_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  }
  static nnz_t words_of(std::size_t bytes) {
    return static_cast<nnz_t>((bytes + sizeof(real_t) - 1) / sizeof(real_t));
  }
  double since_epoch(Clock::time_point t) const {
    return seconds_between(epoch_, t);
  }

  void count_flops(double flops) {
    SPARTS_CHECK(flops >= 0.0);
    stats_.flops += static_cast<nnz_t>(flops);
  }

  void check_source(index_t src) const {
    SPARTS_CHECK(src == kAnySource || (src >= 0 && src < nprocs()),
                 "recv source " << src << " out of range");
  }

  void count_received(const ReceivedMessage& msg) {
    ++stats_.messages_received;
    stats_.words_received += words_of(msg.payload.size());
  }

  /// Shared tail of both send lanes: deliver, then account and trace.
  void post(index_t dst, int tag, Payload payload, std::size_t copied_bytes) {
    SPARTS_CHECK(dst >= 0 && dst < nprocs(),
                 "send destination " << dst << " out of range");
    const std::size_t bytes = payload.size();
    const Clock::time_point t0 = flush_busy();
    transport_.deliver(dst, ReceivedMessage{rank_, tag, std::move(payload)});
    const Clock::time_point t1 = Clock::now();
    stats_.send_time += seconds_between(t0, t1);
    last_mark_ = t1;
    ++stats_.messages_sent;
    stats_.words_sent += words_of(bytes);
    stats_.bytes_copied += static_cast<nnz_t>(copied_bytes);
    trace_comm("send", t0, t1, bytes, dst);
    if (obs::metrics_enabled()) {
      obs::metrics().histogram("comm.message_bytes")
          .observe(static_cast<std::int64_t>(bytes));
      obs::metrics()
          .counter(copied_bytes == 0 ? "comm.zero_copy_bytes"
                                     : "comm.copied_bytes")
          .add(static_cast<std::int64_t>(bytes));
    }
  }

  /// Credit wall time since the last communication call as compute time.
  Clock::time_point flush_busy() {
    const Clock::time_point t = Clock::now();
    stats_.compute_time += seconds_between(last_mark_, t);
    last_mark_ = t;
    return t;
  }

  /// Credit wall time since `t0` as idle time.
  Clock::time_point idle_since(Clock::time_point t0) {
    const Clock::time_point t1 = Clock::now();
    stats_.idle_time += seconds_between(t0, t1);
    last_mark_ = t1;
    return t1;
  }

  void trace_comm(const char* name, Clock::time_point t0, Clock::time_point t1,
                  std::size_t bytes, index_t peer) const {
    if (!obs::Tracer::enabled()) return;
    auto& tracer = obs::Tracer::instance();
    const auto r32 = static_cast<std::int32_t>(rank_);
    tracer.record_local(r32, obs::EventKind::span_begin, obs::Category::comm,
                        name, since_epoch(t0), static_cast<std::int64_t>(bytes),
                        static_cast<std::int64_t>(peer));
    tracer.record_local(r32, obs::EventKind::span_end, obs::Category::comm,
                        name, since_epoch(t1));
  }

  Transport& transport_;
  index_t rank_;
  Clock::time_point epoch_;
  ProcStats stats_;
  Clock::time_point last_mark_;
};

}  // namespace sparts::exec
