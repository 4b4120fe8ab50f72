// The process backend's test suite (ctest -L proc).
//
// Two layers:
//
//   * Wire-level units in-process: CRC32C test vectors, header
//     encode/decode with corruption, full frames over a socketpair
//     (including a payload flip -> bad_payload with the stream still
//     framed), the listener's shutdown wake-up, the chaos-spec and
//     host:port parsers, and the RTT-derived envelope timeout.
//
//   * Cohort tests that fork REAL OS processes: each child builds its
//     rank's SocketBackend over a rendezvous directory, runs the SPMD
//     body, writes its observations to a per-rank file, and _exits;
//     the parent reaps and asserts.  gtest assertions stay in the
//     parent — children report through exit codes and result files.
//     This is the only honest way to test the backend: the whole point
//     is that ranks share no address space.
//
// The launcher / crash-semantics / checkpoint-recovery legs that need
// the sparts_launch + sparts_solve binaries live in
// tests/proc_launch_test.py, registered from tests/CMakeLists.txt.
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "conformance_program.hpp"
#include "exec/collectives.hpp"
#include "exec/reliable.hpp"
#include "exec/socket_backend.hpp"
#include "exec/thread_backend.hpp"
#include "exec/wire.hpp"
#include "simpar/machine.hpp"
#include "solver/sparse_solver.hpp"
#include "sparse/generators.hpp"

namespace {

using namespace sparts;
using namespace sparts::exec;

std::span<const std::byte> bytes_of(const char* s) {
  return {reinterpret_cast<const std::byte*>(s), std::strlen(s)};
}

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

TEST(Crc32c, TestVectors) {
  EXPECT_EQ(wire::crc32c({}), 0u);
  // The canonical Castagnoli check value (RFC 3720 appendix B.4).
  EXPECT_EQ(wire::crc32c(bytes_of("123456789")), 0xE3069283u);
  // Incremental == one-shot.
  const auto all = bytes_of("123456789");
  const std::uint32_t head = wire::crc32c(all.subspan(0, 4));
  EXPECT_EQ(wire::crc32c(all.subspan(4), head), 0xE3069283u);
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::vector<std::byte> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 37 + 5);
  }
  const std::uint32_t clean = wire::crc32c(data);
  for (std::size_t bit : {0u, 63u, 200u, 511u}) {
    auto copy = data;
    copy[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    EXPECT_NE(wire::crc32c(copy), clean) << "missed flip of bit " << bit;
  }
}

// ---------------------------------------------------------------------------
// Frame headers
// ---------------------------------------------------------------------------

TEST(WireHeader, RoundTrip) {
  wire::FrameHeader h;
  h.kind = wire::FrameKind::data;
  h.src = 5;
  h.epoch = 42;
  h.tag = -7;
  h.len = 1234;
  h.payload_crc = 0xDEADBEEF;
  std::byte buf[wire::kHeaderBytes];
  wire::encode_header(h, buf);
  wire::FrameHeader d;
  ASSERT_TRUE(wire::decode_header(buf, &d));
  EXPECT_EQ(d.kind, wire::FrameKind::data);
  EXPECT_EQ(d.src, 5);
  EXPECT_EQ(d.epoch, 42u);
  EXPECT_EQ(d.tag, -7);
  EXPECT_EQ(d.len, 1234u);
  EXPECT_EQ(d.payload_crc, 0xDEADBEEFu);
}

TEST(WireHeader, RejectsCorruption) {
  wire::FrameHeader h;
  h.kind = wire::FrameKind::heartbeat;
  h.src = 1;
  std::byte buf[wire::kHeaderBytes];
  wire::encode_header(h, buf);
  wire::FrameHeader d;
  // Every single-byte corruption of the header must be caught by the
  // header CRC (or the magic/version checks).
  for (std::size_t i = 0; i < wire::kHeaderBytes; ++i) {
    std::byte copy[wire::kHeaderBytes];
    std::memcpy(copy, buf, sizeof(copy));
    copy[i] ^= std::byte{0x01};
    EXPECT_FALSE(wire::decode_header(copy, &d)) << "byte " << i;
  }
}

// ---------------------------------------------------------------------------
// Frames over a real socket (socketpair)
// ---------------------------------------------------------------------------

TEST(WireConn, FrameRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  wire::WireConn a(fds[0], 0, 1, nullptr);
  wire::WireConn b(fds[1], 1, 0, nullptr);

  Payload payload;
  for (int i = 0; i < 300; ++i) payload.push_back(static_cast<std::byte>(i));
  ASSERT_TRUE(a.write_frame(wire::FrameKind::data, 0, 7, 99, payload));

  wire::Frame f;
  ASSERT_EQ(b.read_frame(&f), wire::ReadStatus::ok);
  EXPECT_EQ(f.kind, wire::FrameKind::data);
  EXPECT_EQ(f.src, 0);
  EXPECT_EQ(f.epoch, 7u);
  EXPECT_EQ(f.tag, 99);
  ASSERT_EQ(f.payload.size(), payload.size());
  EXPECT_EQ(std::memcmp(f.payload.data(), payload.data(), payload.size()), 0);

  // Empty payload frames work too (barrier entries are empty).
  ASSERT_TRUE(b.write_frame(wire::FrameKind::barrier, 1, 7, 0, {}));
  ASSERT_EQ(a.read_frame(&f), wire::ReadStatus::ok);
  EXPECT_EQ(f.kind, wire::FrameKind::barrier);
  EXPECT_TRUE(f.payload.empty());
}

TEST(WireConn, CorruptPayloadIsDroppedStreamStaysFramed) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  wire::WireConn b(fds[1], 1, 0, nullptr);

  // Hand-build a frame with a deliberately wrong payload CRC and push it
  // through the raw fd, followed by a clean frame through WireConn.
  const char text[] = "hello, wire";
  wire::FrameHeader h;
  h.kind = wire::FrameKind::data;
  h.src = 0;
  h.epoch = 1;
  h.tag = 4;
  h.len = sizeof(text);
  h.payload_crc = 0x12345678;  // wrong on purpose
  std::byte buf[wire::kHeaderBytes];
  wire::encode_header(h, buf);
  ASSERT_EQ(send(fds[0], buf, sizeof(buf), 0),
            static_cast<ssize_t>(sizeof(buf)));
  ASSERT_EQ(send(fds[0], text, sizeof(text), 0),
            static_cast<ssize_t>(sizeof(text)));

  wire::WireConn a(fds[0], 0, 1, nullptr);
  ASSERT_TRUE(a.write_frame(wire::FrameKind::data, 0, 1, 5, bytes_of("ok")));

  // The corrupt frame is rejected without desyncing: the next read
  // returns the clean frame.
  wire::Frame f;
  ASSERT_EQ(b.read_frame(&f), wire::ReadStatus::bad_payload);
  ASSERT_EQ(b.read_frame(&f), wire::ReadStatus::ok);
  EXPECT_EQ(f.tag, 5);
  ASSERT_EQ(f.payload.size(), 2u);
}

TEST(WireConn, GarbageHeaderClosesConnection) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  wire::WireConn b(fds[1], 1, 0, nullptr);
  std::vector<char> junk(wire::kHeaderBytes, 'x');
  ASSERT_EQ(send(fds[0], junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  wire::Frame f;
  EXPECT_EQ(b.read_frame(&f), wire::ReadStatus::closed);
  close(fds[0]);
}

TEST(WireListener, ShutdownWakesBlockedAccept) {
  // SocketSession::shutdown() wakes its accept thread this way instead of
  // waiting out the poll: a blocked accept_fd() returns -1 at once, so
  // does every later call, and the fd stays open until close().
  constexpr double kWait = 10.0;  // seconds accept_fd() would poll
  constexpr double kBound = 2.0;  // seconds a woken call may take
  wire::Listener listener;
  listener.open(wire::Endpoint{"127.0.0.1", 0});
  int accepted = 0;
  double took = -1.0;
  std::thread acceptor([&] {  // sparts-lint: allow(raw-thread)
    const auto t0 = std::chrono::steady_clock::now();
    accepted = listener.accept_fd(kWait);
    took = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
               .count();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  listener.shutdown();
  acceptor.join();
  EXPECT_EQ(accepted, -1);
  EXPECT_LT(took, kBound);

  EXPECT_TRUE(listener.valid());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(listener.accept_fd(kWait), -1);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            kBound);
  listener.close();
  EXPECT_FALSE(listener.valid());
}

// ---------------------------------------------------------------------------
// Parsers
// ---------------------------------------------------------------------------

TEST(ChaosSpec, ParsesFullGrammar) {
  const auto spec = wire::ChaosSpec::parse(
      "seed=9,corrupt=0.01,trunc=0.02,delay=0.1:0.005,partition=1-3@0.5:2");
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_DOUBLE_EQ(spec.corrupt, 0.01);
  EXPECT_DOUBLE_EQ(spec.trunc, 0.02);
  EXPECT_DOUBLE_EQ(spec.delay_p, 0.1);
  EXPECT_DOUBLE_EQ(spec.delay_s, 0.005);
  ASSERT_EQ(spec.partitions.size(), 1u);
  EXPECT_EQ(spec.partitions[0].a, 1);
  EXPECT_EQ(spec.partitions[0].b, 3);
  EXPECT_DOUBLE_EQ(spec.partitions[0].start, 0.5);
  EXPECT_DOUBLE_EQ(spec.partitions[0].duration, 2.0);
  EXPECT_TRUE(spec.any());
  EXPECT_FALSE(wire::ChaosSpec{}.any());
}

TEST(ChaosSpec, RejectsMalformedTokens) {
  EXPECT_THROW(wire::ChaosSpec::parse("bogus=1"), InvalidArgument);
  EXPECT_THROW(wire::ChaosSpec::parse("corrupt="), InvalidArgument);
  EXPECT_THROW(wire::ChaosSpec::parse("corrupt=xyz"), InvalidArgument);
  EXPECT_THROW(wire::ChaosSpec::parse("delay=0.1"), InvalidArgument);
  EXPECT_THROW(wire::ChaosSpec::parse("partition=1@0:1"), InvalidArgument);
  EXPECT_THROW(wire::ChaosSpec::parse("partition=1-2@0"), InvalidArgument);
}

TEST(HostPort, ParsesAndRejects) {
  const auto ep = wire::parse_host_port("10.0.0.3:4711", "test");
  EXPECT_EQ(ep.host, "10.0.0.3");
  EXPECT_EQ(ep.port, 4711);
  const auto local = wire::parse_host_port(":9000", "test");
  EXPECT_EQ(local.host, "127.0.0.1");
  EXPECT_EQ(local.port, 9000);
  EXPECT_THROW(wire::parse_host_port("nocolon", "test"), IoError);
  EXPECT_THROW(wire::parse_host_port("h:0", "test"), IoError);
  EXPECT_THROW(wire::parse_host_port("h:65536", "test"), IoError);
  EXPECT_THROW(wire::parse_host_port("h:12x", "test"), IoError);
}

// ---------------------------------------------------------------------------
// Envelope timeout derivation
// ---------------------------------------------------------------------------

TEST(ReliableForWire, ClampsToSaneWindow) {
  // Localhost RTTs (microseconds) clamp up to the 2 ms floor.
  EXPECT_DOUBLE_EQ(ReliableConfig::for_wire(1e-6).timeout, 2e-3);
  // A long-haul RTT clamps down to the 0.5 s ceiling.
  EXPECT_DOUBLE_EQ(ReliableConfig::for_wire(0.1).timeout, 0.5);
  // In between: 32 x RTT.
  EXPECT_DOUBLE_EQ(ReliableConfig::for_wire(0.003).timeout, 0.096);
}

// ---------------------------------------------------------------------------
// allmerge_nonzero (the mirror collective), on the thread backend where
// a plain unit test can observe all ranks.
// ---------------------------------------------------------------------------

TEST(AllmergeNonzero, MergesExclusiveSlicesBitExactly) {
  constexpr index_t p = 4;
  constexpr index_t kPer = 5;
  ThreadBackend::Config cfg;
  cfg.nprocs = p;
  ThreadBackend machine(cfg);
  std::vector<std::vector<real_t>> results(p);
  machine.run([&](Process& proc) {
    std::vector<real_t> data(p * kPer, 0.0);
    for (index_t i = 0; i < kPer; ++i) {
      data[static_cast<std::size_t>(proc.rank() * kPer + i)] =
          static_cast<real_t>(proc.rank() * 100 + i + 1);
    }
    // Rank 2 contributes a negative zero: the bit pattern must survive.
    if (proc.rank() == 2) data[2 * kPer] = -0.0;
    allmerge_nonzero(proc, Group{0, p, 1}, data, 50);
    results[static_cast<std::size_t>(proc.rank())] = data;
  });
  for (index_t r = 0; r < p; ++r) {
    ASSERT_EQ(results[static_cast<std::size_t>(r)].size(),
              static_cast<std::size_t>(p * kPer));
    // Identical bits on every rank.
    EXPECT_EQ(std::memcmp(results[0].data(),
                          results[static_cast<std::size_t>(r)].data(),
                          results[0].size() * sizeof(real_t)),
              0)
        << "rank " << r;
  }
  for (index_t owner = 0; owner < p; ++owner) {
    for (index_t i = 0; i < kPer; ++i) {
      const std::size_t z = static_cast<std::size_t>(owner * kPer + i);
      if (owner == 2 && i == 0) {
        EXPECT_TRUE(std::signbit(results[0][z]) && results[0][z] == 0.0)
            << "negative zero lost";
      } else {
        EXPECT_EQ(results[0][z], static_cast<real_t>(owner * 100 + i + 1));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fork-based cohort harness
// ---------------------------------------------------------------------------

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/sparts_proc_test.XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

/// Fork `p` children; child r runs `body(r, dir)` and _exits with its
/// return value (0 = success).  Returns the per-rank exit codes
/// (128+signal for a signalled child).  The parent NEVER builds a socket
/// session.
std::vector<int> fork_ranks(index_t p, const std::string& dir,
                            const std::function<int(index_t)>& body) {
  std::vector<pid_t> pids(static_cast<std::size_t>(p));
  for (index_t r = 0; r < p; ++r) {
    const pid_t child = fork();
    if (child == 0) {
      int code = 99;
      try {
        code = body(r);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "rank %d uncaught: %s\n", static_cast<int>(r),
                     e.what());
        code = 98;
      }
      // Clean GOODBYE so peers do not suspect this rank while they are
      // still draining their own phases.
      socket_session_shutdown();
      std::_Exit(code);
    }
    pids[static_cast<std::size_t>(r)] = child;
  }
  std::vector<int> codes(static_cast<std::size_t>(p), -1);
  for (index_t r = 0; r < p; ++r) {
    int status = 0;
    waitpid(pids[static_cast<std::size_t>(r)], &status, 0);
    codes[static_cast<std::size_t>(r)] =
        WIFEXITED(status) ? WEXITSTATUS(status)
                          : (WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                                 : 97);
  }
  return codes;
}

SocketConfig cohort_config(index_t rank, index_t p, const std::string& dir) {
  SocketConfig cfg;
  cfg.rank = rank;
  cfg.nprocs = p;
  cfg.rendezvous_dir = dir;
  return cfg;
}

TEST(ProcCohort, PingPong) {
  TempDir dir;
  const auto codes = fork_ranks(2, dir.path, [&](index_t r) -> int {
    SocketBackend machine(cohort_config(r, 2, dir.path));
    machine.run([](Process& proc) {
      constexpr int kTag = 3;
      if (proc.rank() == 0) {
        for (int i = 0; i < 50; ++i) {
          proc.send_value<real_t>(1, kTag, static_cast<real_t>(i) * 1.5);
          const real_t echoed = proc.recv_value<real_t>(1, kTag + 1);
          if (echoed != static_cast<real_t>(i) * 1.5 + 1.0) {
            throw Error("echo mismatch");
          }
        }
      } else {
        for (int i = 0; i < 50; ++i) {
          const real_t v = proc.recv_value<real_t>(0, kTag);
          proc.send_value<real_t>(0, kTag + 1, v + 1.0);
        }
      }
    });
    return 0;
  });
  EXPECT_EQ(codes, (std::vector<int>{0, 0}));
}

TEST(ProcCohort, CollectivesAndRepeatedRuns) {
  TempDir dir;
  constexpr index_t p = 4;
  const auto codes = fork_ranks(p, dir.path, [&](index_t r) -> int {
    SocketBackend machine(cohort_config(r, p, dir.path));
    // Two runs on one session: epoch discipline must keep the phases
    // separate even though both use the same tags.
    for (int round = 0; round < 2; ++round) {
      machine.run([&](Process& proc) {
        const Group g{0, p, 1};
        std::vector<real_t> v{static_cast<real_t>(proc.rank() + 1)};
        allreduce_sum(proc, g, v, 10);
        if (v[0] != static_cast<real_t>(p * (p + 1) / 2)) {
          throw Error("allreduce mismatch");
        }
        std::vector<real_t> mine(3, static_cast<real_t>(proc.rank()));
        const auto gathered = allgather(proc, g, mine, 20);
        for (index_t q = 0; q < p; ++q) {
          if (gathered[static_cast<std::size_t>(q)][0] !=
              static_cast<real_t>(q)) {
            throw Error("allgather mismatch");
          }
        }
      });
    }
    return 0;
  });
  EXPECT_EQ(codes, std::vector<int>(p, 0));
}

/// Teardown of a healthy cohort is prompt on every rank: each outbox
/// drains in microseconds and the accept thread is woken, so
/// socket_session_shutdown() sits out neither the 1 s drain grace nor the
/// accept poll.
TEST(ProcCohort, HealthyShutdownIsPromptOnEveryRank) {
  TempDir dir;
  constexpr index_t p = 4;
  constexpr double kBound = 0.5;  // seconds
  const auto codes = fork_ranks(p, dir.path, [&](index_t r) -> int {
    {
      SocketBackend machine(cohort_config(r, p, dir.path));
      machine.run([&](Process& proc) {
        std::vector<real_t> v{static_cast<real_t>(proc.rank())};
        allreduce_sum(proc, Group{0, p, 1}, v, 10);
      });
    }
    const auto t0 = std::chrono::steady_clock::now();
    socket_session_shutdown();
    const double took =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::ofstream(dir.path + "/shutdown" + std::to_string(r)) << took;
    return took <= kBound ? 0 : 40;
  });
  for (index_t r = 0; r < p; ++r) {
    double took = -1.0;
    std::ifstream(dir.path + "/shutdown" + std::to_string(r)) >> took;
    EXPECT_EQ(codes[static_cast<std::size_t>(r)], 0)
        << "rank " << r << " took " << took << " s to shut down";
  }
}

/// The proc backend's rank accounting: for the stats-conformance program
/// every rank's flops and message/word counts equal a simulator run's,
/// and its compute/send/idle split fits in its clock.
TEST(ProcCohort, StatsCountsMatchSimulator) {
  TempDir dir;
  constexpr index_t p = 4;
  simpar::Machine::Config sim_cfg;
  sim_cfg.nprocs = p;
  simpar::Machine sim(sim_cfg);
  const RunStats want = sim.run(conformance_program);
  const auto codes = fork_ranks(p, dir.path, [&](index_t r) -> int {
    SocketBackend machine(cohort_config(r, p, dir.path));
    const auto slot = static_cast<std::size_t>(r);
    const ProcStats got = machine.run(conformance_program).procs[slot];
    const ProcStats& w = want.procs[slot];
    if (got.flops != w.flops || got.messages_sent != w.messages_sent ||
        got.words_sent != w.words_sent ||
        got.messages_received != w.messages_received ||
        got.words_received != w.words_received) {
      return 30;
    }
    if (got.compute_time < 0.0 || got.send_time < 0.0 ||
        got.idle_time < 0.0 ||
        got.compute_time + got.send_time + got.idle_time > got.clock + 1e-9) {
      return 31;
    }
    return 0;
  });
  EXPECT_EQ(codes, std::vector<int>(p, 0));
}

/// The conformance leg: over the socket cohort, one factorization serves
/// two solves (m = 2, then m = 1), and each x must be BIT-identical to a
/// fresh simulator parallel_solve for the same right-hand side, at several
/// processor counts.  Children write each x to per-rank files; the parent
/// compares bytes.  With a `chaos` spec every child sets SPARTS_CHAOS, so
/// the wire below the reliability envelope corrupts, truncates or delays
/// frames as the spec says, and the envelope must still deliver exactly.
void conformance_at(index_t p, const char* chaos = nullptr) {
  TempDir dir;
  const sparse::SymmetricCsc a = sparse::grid2d(11, 11);
  Rng rng(4242);
  const index_t widths[] = {2, 1};
  std::vector<std::vector<real_t>> bs, sims;
  solver::Options sim_options;
  sim_options.backend = solver::ExecutionBackend::simulated;
  for (const index_t m : widths) {
    bs.push_back(sparse::random_rhs(a.n(), m, rng));
    sims.push_back(solver::parallel_solve(a, bs.back(), m, p, sim_options).x);
  }
  auto x_path = [&](index_t r, std::size_t i) {
    return dir.path + "/x" + std::to_string(r) + "_" + std::to_string(i) +
           ".bin";
  };

  const auto codes = fork_ranks(p, dir.path, [&](index_t r) -> int {
    if (chaos != nullptr) setenv("SPARTS_CHAOS", chaos, 1);
    solver::Options options;
    options.backend = solver::ExecutionBackend::proc;
    options.proc_rank = r;
    options.proc_rendezvous_dir = dir.path;
    const auto s = solver::SparseSolver::factorize(a, options, p);
    for (std::size_t i = 0; i < bs.size(); ++i) {
      const std::vector<real_t> x = s.solve(bs[i], widths[i]).x;
      std::ofstream out(x_path(r, i), std::ios::binary);
      out.write(reinterpret_cast<const char*>(x.data()),
                static_cast<std::streamsize>(x.size() * sizeof(real_t)));
      if (!out) return 5;
    }
    return 0;
  });
  ASSERT_EQ(codes, std::vector<int>(p, 0)) << "p=" << p;

  // EVERY rank must hold the bit-identical solution (the mirror's
  // whole-cohort replication contract), equal to the simulator's.
  for (index_t r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < sims.size(); ++i) {
      std::ifstream in(x_path(r, i), std::ios::binary);
      std::vector<real_t> x(sims[i].size());
      in.read(reinterpret_cast<char*>(x.data()),
              static_cast<std::streamsize>(x.size() * sizeof(real_t)));
      ASSERT_TRUE(in) << "rank " << r << " wrote a short x for solve " << i;
      EXPECT_EQ(
          std::memcmp(x.data(), sims[i].data(), x.size() * sizeof(real_t)), 0)
          << "p=" << p << " rank " << r << " solve " << i
          << " diverged from the simulator";
    }
  }
}

TEST(ProcCohort, SolveBitIdenticalToSim2) { conformance_at(2); }
TEST(ProcCohort, SolveBitIdenticalToSim4) { conformance_at(4); }
TEST(ProcCohort, SolveBitIdenticalToSim8) { conformance_at(8); }
// A whole solve, not just a ping-pong, with 5% of the frames corrupted on
// the wire: every rejected frame is retransmitted, and x stays the
// simulator's bit for bit.
TEST(ProcCohort, SolveUnderCorruptionBitIdenticalToSim2) {
  conformance_at(2, "seed=7,corrupt=0.05");
}

TEST(ProcCohort, HeartbeatDetectsKilledPeerWithinBound) {
  TempDir dir;
  const auto codes = fork_ranks(2, dir.path, [&](index_t r) -> int {
    if (r == 1) {
      SocketBackend machine(cohort_config(1, 2, dir.path));
      // Die without a GOODBYE, mid-session: a real crash.
      raise(SIGKILL);
      return 96;  // unreachable
    }
    SocketConfig cfg = cohort_config(0, 2, dir.path);
    cfg.suspect_after = 0.5;
    SocketBackend machine(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    try {
      machine.run([](Process& proc) {
        // Rank 1 never sends: this recv can only end in PeerFailure.
        (void)proc.recv_value<real_t>(1, 7);
      });
    } catch (const PeerFailure& e) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (e.suspected() != 1) return 11;
      if (elapsed > 10.0) return 12;  // way past the suspicion window
      // Teardown with the dead link: the goodbye queued for rank 1 is
      // abandoned at once, not after the whole 1 s drain grace.
      const auto t1 = std::chrono::steady_clock::now();
      socket_session_shutdown();
      const double took =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
              .count();
      return took <= 0.5 ? 0 : 15;
    } catch (const RemoteAbort&) {
      return 13;
    }
    return 14;  // no failure surfaced at all: a hang would have been worse
  });
  EXPECT_EQ(codes[0], 0) << "rank 0 failure-detection path";
  EXPECT_EQ(codes[1], 128 + SIGKILL);
}

TEST(ProcCohort, ChaosCorruptionRecoversUnderEnvelope) {
  TempDir dir;
  constexpr index_t p = 2;
  const auto codes = fork_ranks(p, dir.path, [&](index_t r) -> int {
    // Heavy payload corruption below the envelope: every rejected frame
    // must be retransmitted, and the delivered data must be exact.
    setenv("SPARTS_CHAOS", "seed=21,corrupt=0.2", 1);
    auto sock = std::make_unique<SocketBackend>(cohort_config(r, p, dir.path));
    ReliableConfig rcfg = ReliableConfig::for_wire(sock->measured_rtt());
    ReliableBackend machine(std::move(sock), rcfg);
    machine.run([](Process& proc) {
      constexpr int kTag = 2;
      const index_t peer = 1 - proc.rank();
      for (int i = 0; i < 40; ++i) {
        std::vector<real_t> payload(64);
        for (std::size_t z = 0; z < payload.size(); ++z) {
          payload[z] = static_cast<real_t>(i * 1000 + static_cast<int>(z));
        }
        if (proc.rank() == 0) {
          proc.send_values<real_t>(peer, kTag, payload);
          const auto echo = proc.recv_values<real_t>(peer, kTag + 1);
          if (echo != payload) throw Error("corrupted delivery");
        } else {
          const auto got = proc.recv_values<real_t>(peer, kTag);
          if (got != payload) throw Error("corrupted delivery");
          proc.send_values<real_t>(peer, kTag + 1, got);
        }
      }
    });
    return 0;
  });
  EXPECT_EQ(codes, std::vector<int>(p, 0));
}

TEST(ProcCohort, AbortPropagatesAsRemoteAbort) {
  TempDir dir;
  const auto codes = fork_ranks(2, dir.path, [&](index_t r) -> int {
    SocketBackend machine(cohort_config(r, 2, dir.path));
    try {
      machine.run([](Process& proc) {
        if (proc.rank() == 1) throw Error("rank 1 exploded on purpose");
        // Rank 0 waits for a message that never comes; the abort
        // broadcast must cut the wait short.
        (void)proc.recv_value<real_t>(1, 9);
      });
    } catch (const RemoteAbort& e) {
      // Only rank 0 sees the REMOTE abort; it must name the origin.
      if (r != 0) return 20;
      return e.origin() == 1 ? 0 : 21;
    } catch (const Error& e) {
      // Rank 1 sees its own (local) error rethrown.
      if (r != 1) return 24;
      return std::string(e.what()).find("exploded") != std::string::npos
                 ? 0
                 : 22;
    }
    return 23;
  });
  EXPECT_EQ(codes, (std::vector<int>{0, 0}));
}

}  // namespace
