// E20 — message-path microbenchmark: per-message latency and bandwidth of
// the inbox (exec/inbox.hpp) that the thread and task backends share, and
// the copy lane vs the zero-copy handoff lane (send_owned).
//
// Two shapes:
//   * ping-pong: two ranks bounce one message back and forth; the wall
//     clock over many round trips isolates per-message software overhead
//     (match, wakeup, copy).  Columns: thread backend latency (a kernel
//     wake per handoff once the receiver parks) and fiber task backend
//     latency (a user-space switch).
//   * stream: rank 0 sends a burst of messages to rank 1.  Measures
//     bandwidth for the copy lane (send) vs the handoff lane
//     (send_owned) and reports the bytes the backend actually copied —
//     ~zero for owned sends above kZeroCopyThreshold is the point of the
//     zero-copy path.
//
// Wall clocks on a shared host are noisy; the gated signal is the
// copied-bytes counter of the handoff lane (exact).
#include <algorithm>

#include "common/timer.hpp"
#include "exec/task_backend.hpp"
#include "exec/thread_backend.hpp"
#include "bench_common.hpp"

namespace sparts::bench {
namespace {

constexpr int kPingTag = 1;
constexpr int kPongTag = 2;

/// Seconds per one-way message over `roundtrips` ping-pongs on `comm`.
double pingpong(exec::Comm& comm, std::size_t bytes, int roundtrips) {
  auto spmd = [&](exec::Process& proc) {
    const std::vector<std::byte> ball(bytes, std::byte{0x5a});
    if (proc.rank() == 0) {
      for (int i = 0; i < roundtrips; ++i) {
        proc.send(1, kPingTag, ball);
        (void)proc.recv(1, kPongTag);
      }
    } else {
      for (int i = 0; i < roundtrips; ++i) {
        (void)proc.recv(0, kPingTag);
        proc.send(0, kPongTag, ball);
      }
    }
  };
  WallTimer timer;
  comm.run(spmd);
  return timer.seconds() / (2.0 * roundtrips);
}

struct StreamResult {
  double seconds = 0.0;
  nnz_t copied_bytes = 0;
};

/// Rank 0 pushes `count` messages of `bytes` each to rank 1 through the
/// copy lane or the zero-copy handoff lane.  Distinct tags keep every
/// in-flight (src, dst, tag) unique, as the exec contract requires of a
/// burst of buffered sends.
StreamResult stream(std::size_t bytes, int count, bool owned) {
  exec::ThreadBackend::Config cfg;
  cfg.nprocs = 2;
  exec::ThreadBackend backend(cfg);
  auto spmd = [&](exec::Process& proc) {
    if (proc.rank() == 0) {
      const std::vector<std::byte> panel(bytes, std::byte{0x5a});
      for (int i = 0; i < count; ++i) {
        if (owned) {
          exec::Payload p(panel.begin(), panel.end());
          proc.send_owned(1, kPongTag + 1 + i, std::move(p));
        } else {
          proc.send(1, kPongTag + 1 + i, panel);
        }
      }
    } else {
      for (int i = 0; i < count; ++i) {
        (void)proc.recv(0, kPongTag + 1 + i);
      }
    }
  };
  StreamResult out;
  WallTimer timer;
  const exec::RunStats stats = backend.run(spmd);
  out.seconds = timer.seconds();
  out.copied_bytes = stats.total_bytes_copied();
  return out;
}

void run() {
  print_header("E20 (msgpath)",
               "mailbox latency and zero-copy bandwidth of the real "
               "backends");
  BenchJson json("msgpath", "SPARTS_BENCH_MSGPATH_JSON");
  const double scale = bench_scale();

  std::cout << "\nping-pong per-message latency (2 ranks, copy lane):\n";
  TextTable lat({"bytes", "roundtrips", "threads (us)", "tasks (us)"});
  for (const std::size_t bytes : {8ul, 256ul, 4096ul, 65536ul}) {
    // Enough round trips that thread spawn and timer noise are amortized,
    // fewer for the large payloads that stream more data per trip.
    const int roundtrips = std::max(
        200, static_cast<int>(scale * (bytes <= 4096 ? 20000 : 2000)));
    constexpr int kReps = 3;
    double lat_threads = 0.0, lat_tasks = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      exec::ThreadBackend::Config cfg;
      cfg.nprocs = 2;
      exec::ThreadBackend threads(cfg);
      const double t_threads = pingpong(threads, bytes, roundtrips);
      lat_threads = rep == 0 ? t_threads : std::min(lat_threads, t_threads);
      exec::TaskBackend::Config tcfg;
      tcfg.nprocs = 2;
      exec::TaskBackend tasks(tcfg);
      const double t_tasks = pingpong(tasks, bytes, roundtrips);
      lat_tasks = rep == 0 ? t_tasks : std::min(lat_tasks, t_tasks);
    }
    lat.new_row();
    lat.add(static_cast<long long>(bytes));
    lat.add(static_cast<long long>(roundtrips));
    lat.add(lat_threads * 1e6, 3);
    lat.add(lat_tasks * 1e6, 3);
    json.row()
        .field("kind", std::string("pingpong"))
        .field("bytes", static_cast<long long>(bytes))
        .field("roundtrips", static_cast<long long>(roundtrips))
        .field("lat_threads_us", lat_threads * 1e6)
        .field("lat_tasks_us", lat_tasks * 1e6);
  }
  std::cout << lat;

  std::cout << "\nstream bandwidth (rank 0 -> rank 1, thread backend):\n";
  TextTable bw({"bytes", "msgs", "copy (MB/s)", "owned (MB/s)",
                "copied KiB (copy)", "copied KiB (owned)"});
  for (const std::size_t bytes : {256ul, 4096ul, 65536ul}) {
    const int count =
        std::max(100, static_cast<int>(scale * (bytes <= 4096 ? 8000 : 800)));
    constexpr int kReps = 3;
    StreamResult copy_lane, owned_lane;
    for (int rep = 0; rep < kReps; ++rep) {
      const StreamResult c = stream(bytes, count, /*owned=*/false);
      const StreamResult o = stream(bytes, count, /*owned=*/true);
      if (rep == 0 || c.seconds < copy_lane.seconds) copy_lane = c;
      if (rep == 0 || o.seconds < owned_lane.seconds) owned_lane = o;
    }
    const double total_mb =
        static_cast<double>(bytes) * count / (1024.0 * 1024.0);
    bw.new_row();
    bw.add(static_cast<long long>(bytes));
    bw.add(static_cast<long long>(count));
    bw.add(total_mb / copy_lane.seconds, 1);
    bw.add(total_mb / owned_lane.seconds, 1);
    bw.add(static_cast<double>(copy_lane.copied_bytes) / 1024.0, 1);
    bw.add(static_cast<double>(owned_lane.copied_bytes) / 1024.0, 1);
    json.row()
        .field("kind", std::string("stream"))
        .field("bytes", static_cast<long long>(bytes))
        .field("count", static_cast<long long>(count))
        .field("bw_copy_mbs", total_mb / copy_lane.seconds)
        .field("bw_owned_mbs", total_mb / owned_lane.seconds)
        .field("copied_kib_copy",
               static_cast<double>(copy_lane.copied_bytes) / 1024.0)
        .field("copied_kib_owned",
               static_cast<double>(owned_lane.copied_bytes) / 1024.0);
  }
  std::cout << bw;
  json.write();
  std::cout << "\nReading: ping-pong latency is wall clock per one-way "
               "message; 'copied KiB' is\nthe send-side copy into the "
               "message buffer that the backend counted — every\nbyte on "
               "the copy lane, exactly zero on the handoff lane at or above "
               "the\nzero-copy threshold (256 B).  Payloads below the "
               "threshold ride the copy lane\neither way.\n";
}

}  // namespace
}  // namespace sparts::bench

int main() { sparts::bench::run(); }
