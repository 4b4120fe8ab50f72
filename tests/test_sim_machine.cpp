// Unit tests of the simulated machine: clock arithmetic, message timing,
// determinism, any-source matching, deadlock detection.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "simpar/machine.hpp"

namespace sparts::simpar {
namespace {

Machine::Config unit_config(index_t p) {
  Machine::Config cfg;
  cfg.nprocs = p;
  // t_s = t_w = 1, t_h = 0, flops free
  cfg.cost = exec::CostModel::unit_comm();
  cfg.topology = exec::TopologyKind::fully_connected;
  return cfg;
}

TEST(SimMachine, SingleProcComputeAdvancesClock) {
  Machine::Config cfg;
  cfg.nprocs = 1;
  cfg.cost = exec::CostModel::t3d();
  Machine m(cfg);
  auto stats = m.run(
      [](exec::Process& p) { p.compute(1000.0, exec::FlopKind::blas3); });
  EXPECT_DOUBLE_EQ(stats.procs[0].clock, 1000.0 * cfg.cost.t_c_blas3);
  EXPECT_EQ(stats.procs[0].flops, 1000);
}

TEST(SimMachine, PingPongTiming) {
  // With t_s = t_w = 1 and a 1-word message, a send occupies 2 time units
  // and arrives 2 units after it starts.
  Machine m(unit_config(2));
  auto stats = m.run([](exec::Process& p) {
    if (p.rank() == 0) {
      const real_t v = 42.0;
      p.send_value(1, 7, v);
      const real_t r = p.recv_value<real_t>(1, 8);
      EXPECT_DOUBLE_EQ(r, 43.0);
    } else {
      const real_t v = p.recv_value<real_t>(0, 7);
      const real_t reply = v + 1.0;
      p.send_value(0, 8, reply);
    }
  });
  // Rank 0: send ends at 2.  Rank 1: receives at 2, sends until 4.
  // Reply arrives at rank 0 at 2 + 2 = 4.
  EXPECT_DOUBLE_EQ(stats.procs[0].clock, 4.0);
  EXPECT_DOUBLE_EQ(stats.procs[1].clock, 4.0);
  EXPECT_EQ(stats.total_messages(), 2);
}

TEST(SimMachine, HopLatencyCharged) {
  Machine::Config cfg = unit_config(4);
  cfg.cost.t_h = 10.0;
  cfg.topology = exec::TopologyKind::hypercube;
  Machine m(cfg);
  auto stats = m.run([](exec::Process& p) {
    if (p.rank() == 0) {
      const real_t v = 1.0;
      p.send_value(3, 0, v);  // 0 -> 3 is 2 hops on a 4-cube
    } else if (p.rank() == 3) {
      (void)p.recv_value<real_t>(0, 0);
    }
  });
  // Arrival = 0 + (t_s + t_w) + 2 * t_h = 2 + 20.
  EXPECT_DOUBLE_EQ(stats.procs[3].clock, 22.0);
}

TEST(SimMachine, ReceiverClockIsMaxOfLocalAndArrival) {
  Machine m(unit_config(2));
  auto stats = m.run([](exec::Process& p) {
    if (p.rank() == 0) {
      const real_t v = 5.0;
      p.send_value(1, 0, v);  // arrives at t = 2
    } else {
      p.compute(0.0, exec::FlopKind::blas1);
      p.elapse(100.0);  // local work until t = 100
      (void)p.recv_value<real_t>(0, 0);
      EXPECT_DOUBLE_EQ(p.now(), 100.0);  // message waited in the mailbox
    }
  });
  EXPECT_DOUBLE_EQ(stats.procs[1].clock, 100.0);
  EXPECT_DOUBLE_EQ(stats.procs[1].idle_time, 0.0);
}

TEST(SimMachine, IdleTimeAccountedWhenWaiting) {
  Machine m(unit_config(2));
  auto stats = m.run([](exec::Process& p) {
    if (p.rank() == 0) {
      p.elapse(50.0);
      const real_t v = 1.0;
      p.send_value(1, 0, v);
    } else {
      (void)p.recv_value<real_t>(0, 0);  // waits from 0 to 52
    }
  });
  EXPECT_DOUBLE_EQ(stats.procs[1].idle_time, 52.0);
  EXPECT_DOUBLE_EQ(stats.procs[1].clock, 52.0);
}

TEST(SimMachine, AnySourceTakesEarliestArrival) {
  // Rank 2 receives from ANY: rank 1's message is sent later in wall order
  // but arrives earlier; the simulator must pick by arrival time.
  Machine m(unit_config(3));
  auto stats = m.run([](exec::Process& p) {
    if (p.rank() == 0) {
      p.elapse(10.0);
      const real_t v = 100.0;
      p.send_value(2, 0, v);  // arrives at 12
    } else if (p.rank() == 1) {
      p.elapse(3.0);
      const real_t v = 200.0;
      p.send_value(2, 0, v);  // arrives at 5
    } else {
      const real_t first = p.recv_value<real_t>(exec::kAnySource, 0);
      const real_t second = p.recv_value<real_t>(exec::kAnySource, 0);
      EXPECT_DOUBLE_EQ(first, 200.0);
      EXPECT_DOUBLE_EQ(second, 100.0);
    }
  });
  EXPECT_DOUBLE_EQ(stats.procs[2].clock, 12.0);
}

TEST(SimMachine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Machine m(unit_config(8));
    return m.run([](exec::Process& p) {
      // Ring: everyone sends to the next rank, receives from previous,
      // with rank-dependent compute mixed in.
      p.compute(static_cast<double>(p.rank()) * 100.0, exec::FlopKind::blas1);
      const real_t v = static_cast<real_t>(p.rank());
      p.send_value((p.rank() + 1) % p.nprocs(), 0, v);
      (void)p.recv_value<real_t>((p.rank() + p.nprocs() - 1) % p.nprocs(), 0);
    });
  };
  auto a = run_once();
  auto b = run_once();
  ASSERT_EQ(a.procs.size(), b.procs.size());
  for (std::size_t i = 0; i < a.procs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.procs[i].clock, b.procs[i].clock);
    EXPECT_EQ(a.procs[i].messages_sent, b.procs[i].messages_sent);
  }
}

TEST(SimMachine, DeadlockDetected) {
  Machine m(unit_config(2));
  EXPECT_THROW(m.run([](exec::Process& p) {
    // Both ranks wait for a message that never comes.
    (void)p.recv(1 - p.rank(), 0);
  }),
               DeadlockError);
}

TEST(SimMachine, UserExceptionPropagates) {
  Machine m(unit_config(2));
  EXPECT_THROW(m.run([](exec::Process& p) {
    if (p.rank() == 0) throw InvalidArgument("boom");
    (void)p.recv(0, 0);  // would deadlock, but the root cause wins
  }),
               InvalidArgument);
}

TEST(SimMachine, SelfSendWorks) {
  Machine m(unit_config(1));
  auto stats = m.run([](exec::Process& p) {
    const real_t v = 7.0;
    p.send_value(0, 0, v);
    EXPECT_DOUBLE_EQ(p.recv_value<real_t>(0, 0), 7.0);
  });
  EXPECT_DOUBLE_EQ(stats.procs[0].clock, 2.0);
}

TEST(SimMachine, ManyProcessorsScale) {
  Machine m(unit_config(256));
  auto stats = m.run([](exec::Process& p) {
    if (p.rank() > 0) {
      const real_t v = 1.0;
      p.send_value(0, 0, v);
    } else {
      real_t sum = 0.0;
      for (index_t i = 1; i < p.nprocs(); ++i) {
        sum += p.recv_value<real_t>(exec::kAnySource, 0);
      }
      EXPECT_DOUBLE_EQ(sum, 255.0);
    }
  });
  EXPECT_EQ(stats.total_messages(), 255);
}

TEST(SimMachine, TagsKeepStreamsSeparate) {
  Machine m(unit_config(2));
  m.run([](exec::Process& p) {
    if (p.rank() == 0) {
      const real_t a = 1.0, b = 2.0;
      p.send_value(1, 5, a);
      p.send_value(1, 9, b);
    } else {
      // Receive in the opposite tag order.
      EXPECT_DOUBLE_EQ(p.recv_value<real_t>(0, 9), 2.0);
      EXPECT_DOUBLE_EQ(p.recv_value<real_t>(0, 5), 1.0);
    }
  });
}

TEST(SimMachine, EfficiencyComputation) {
  Machine::Config cfg;
  cfg.nprocs = 2;
  cfg.cost = exec::CostModel::zero_comm();
  Machine m(cfg);
  auto stats = m.run([](exec::Process& p) {
    if (p.rank() == 0) p.compute(1000.0, exec::FlopKind::blas1);
    // rank 1 does nothing: efficiency should be 0.5.
  });
  EXPECT_NEAR(stats.efficiency(), 0.5, 1e-12);
}

TEST(Topology, HopCounts) {
  exec::Topology full(exec::TopologyKind::fully_connected, 16);
  EXPECT_EQ(full.hops(3, 3), 0);
  EXPECT_EQ(full.hops(0, 15), 1);

  exec::Topology cube(exec::TopologyKind::hypercube, 16);
  EXPECT_EQ(cube.hops(0, 15), 4);   // 0b0000 -> 0b1111
  EXPECT_EQ(cube.hops(5, 4), 1);    // one bit differs
  EXPECT_EQ(cube.hops(10, 10), 0);

  exec::Topology ring(exec::TopologyKind::ring, 10);
  EXPECT_EQ(ring.hops(0, 1), 1);
  EXPECT_EQ(ring.hops(0, 9), 1);    // wraps
  EXPECT_EQ(ring.hops(0, 5), 5);
  EXPECT_EQ(ring.hops(2, 8), 4);
}

TEST(Topology, HypercubeRequiresPowerOfTwo) {
  EXPECT_THROW(exec::Topology(exec::TopologyKind::hypercube, 12), Error);
  EXPECT_NO_THROW(exec::Topology(exec::TopologyKind::hypercube, 16));
}

TEST(CostModel, PanelFlopInterpolatesBlas2ToBlas3) {
  const exec::CostModel c = exec::CostModel::t3d();
  EXPECT_DOUBLE_EQ(c.panel_flop(1), c.t_c_blas2);
  EXPECT_LT(c.panel_flop(10), c.panel_flop(2));
  EXPECT_GT(c.panel_flop(1000), c.t_c_blas3);
  EXPECT_NEAR(c.panel_flop(1000000), c.t_c_blas3, 1e-12);
}

TEST(CostModel, SendOccupancyAndLatency) {
  exec::CostModel c;
  c.t_s = 10.0;
  c.t_w = 2.0;
  c.t_h = 3.0;
  EXPECT_DOUBLE_EQ(c.send_occupancy(5), 20.0);
  EXPECT_DOUBLE_EQ(c.network_latency(4), 12.0);
}

TEST(SimMachine, MachineIsReusableAcrossRuns) {
  Machine m(unit_config(4));
  for (int run = 0; run < 3; ++run) {
    auto stats = m.run([](exec::Process& p) {
      if (p.rank() == 0) {
        const real_t v = 1.0;
        p.send_value(1, 0, v);
      } else if (p.rank() == 1) {
        (void)p.recv_value<real_t>(0, 0);
      }
    });
    EXPECT_EQ(stats.total_messages(), 1);
  }
}

TEST(SimMachine, RingTopologyChargesDistance) {
  Machine::Config cfg = unit_config(8);
  cfg.topology = exec::TopologyKind::ring;
  cfg.cost.t_h = 5.0;
  Machine m(cfg);
  auto stats = m.run([](exec::Process& p) {
    if (p.rank() == 0) {
      const real_t v = 1.0;
      p.send_value(4, 0, v);  // 4 hops on an 8-ring
    } else if (p.rank() == 4) {
      (void)p.recv_value<real_t>(0, 0);
    }
  });
  // arrival = (t_s + t_w) + 4 * t_h = 2 + 20.
  EXPECT_DOUBLE_EQ(stats.procs[4].clock, 22.0);
}

TEST(SimMachine, RejectsBadDestinations) {
  Machine m(unit_config(2));
  EXPECT_THROW(m.run([](exec::Process& p) {
    if (p.rank() == 0) {
      const real_t v = 1.0;
      p.send_value(5, 0, v);  // out of range
    }
  }),
               Error);
  EXPECT_THROW(m.run([](exec::Process& p) {
    if (p.rank() == 0) (void)p.recv(7, 0);  // out of range source
  }),
               Error);
}

TEST(SimMachine, RejectsNegativeCompute) {
  Machine m(unit_config(1));
  EXPECT_THROW(m.run([](exec::Process& p) { p.compute(-1.0); }), Error);
}

TEST(SimMachine, TypedRecvValidatesPayloadShape) {
  Machine m(unit_config(2));
  EXPECT_THROW(m.run([](exec::Process& p) {
    if (p.rank() == 0) {
      const std::byte odd[3] = {};
      p.send(1, 0, odd);
    } else {
      (void)p.recv_values<real_t>(0, 0);  // 3 bytes is not a double array
    }
  }),
               Error);
}

}  // namespace
}  // namespace sparts::simpar
