// Collectives: correctness of the results plus exact agreement with the
// textbook hypercube cost formulas under the unit cost model.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "exec/collectives.hpp"
#include "simpar/machine.hpp"

namespace sparts::simpar {
namespace {

Machine::Config unit_config(index_t p) {
  Machine::Config cfg;
  cfg.nprocs = p;
  cfg.cost = exec::CostModel::unit_comm();
  cfg.topology = exec::TopologyKind::fully_connected;
  return cfg;
}

class CollectivesTest : public ::testing::TestWithParam<index_t> {};

TEST_P(CollectivesTest, BroadcastDeliversToAll) {
  const index_t q = GetParam();
  Machine m(unit_config(q));
  m.run([q](exec::Process& p) {
    exec::Group g{0, q};
    std::vector<real_t> data;
    if (p.rank() == 0) data = {1.0, 2.0, 3.0};
    exec::broadcast(p, g, data, 100);
    ASSERT_EQ(data.size(), 3u);
    EXPECT_DOUBLE_EQ(data[0], 1.0);
    EXPECT_DOUBLE_EQ(data[2], 3.0);
  });
}

TEST_P(CollectivesTest, BroadcastCostIsLogQ) {
  const index_t q = GetParam();
  if (q == 1) return;
  Machine m(unit_config(q));
  const index_t words = 16;
  auto stats = m.run([q, words](exec::Process& p) {
    exec::Group g{0, q};
    std::vector<real_t> data;
    if (p.rank() == 0) data.assign(static_cast<std::size_t>(words), 1.0);
    exec::broadcast(p, g, data, 100);
  });
  const double logq = std::log2(static_cast<double>(q));
  // Binomial-tree broadcast: the last leaf receives after log q sequential
  // hops of (t_s + m t_w) each.
  EXPECT_DOUBLE_EQ(stats.parallel_time(),
                   logq * (1.0 + static_cast<double>(words)));
}

TEST_P(CollectivesTest, ReduceSumsEverything) {
  const index_t q = GetParam();
  Machine m(unit_config(q));
  m.run([q](exec::Process& p) {
    exec::Group g{0, q};
    std::vector<real_t> data{static_cast<real_t>(p.rank() + 1), 1.0};
    exec::reduce_sum(p, g, data, 50);
    if (p.rank() == 0) {
      EXPECT_DOUBLE_EQ(data[0],
                       static_cast<real_t>(q * (q + 1) / 2));
      EXPECT_DOUBLE_EQ(data[1], static_cast<real_t>(q));
    }
  });
}

TEST_P(CollectivesTest, AllReduceEveryoneHasSum) {
  const index_t q = GetParam();
  Machine m(unit_config(q));
  m.run([q](exec::Process& p) {
    exec::Group g{0, q};
    std::vector<real_t> data{1.0};
    exec::allreduce_sum(p, g, data, 10);
    EXPECT_DOUBLE_EQ(data[0], static_cast<real_t>(q));
  });
}

TEST_P(CollectivesTest, BarrierSynchronizes) {
  const index_t q = GetParam();
  Machine::Config cfg = unit_config(q);
  Machine m(cfg);
  auto stats = m.run([q](exec::Process& p) {
    exec::Group g{0, q};
    // Rank q-1 is slow; everyone must leave the barrier at >= its entry.
    if (p.rank() == q - 1) p.elapse(1000.0);
    exec::barrier(p, g, 20);
    EXPECT_GE(p.now(), 1000.0);
  });
  EXPECT_GE(stats.parallel_time(), 1000.0);
}

TEST_P(CollectivesTest, AllToAllPersonalizedRoutesCorrectly) {
  const index_t q = GetParam();
  Machine m(unit_config(q));
  m.run([q](exec::Process& p) {
    exec::Group g{0, q};
    const index_t me = p.rank();
    std::vector<std::vector<real_t>> outgoing(static_cast<std::size_t>(q));
    for (index_t r = 0; r < q; ++r) {
      // Message content encodes (source, destination).
      outgoing[static_cast<std::size_t>(r)] = {
          static_cast<real_t>(me * 1000 + r)};
    }
    auto incoming =
        exec::all_to_all_personalized(p, g, std::move(outgoing), 200);
    ASSERT_EQ(static_cast<index_t>(incoming.size()), q);
    for (index_t r = 0; r < q; ++r) {
      ASSERT_EQ(incoming[static_cast<std::size_t>(r)].size(), 1u);
      EXPECT_DOUBLE_EQ(incoming[static_cast<std::size_t>(r)][0],
                       static_cast<real_t>(r * 1000 + me));
    }
  });
}

TEST_P(CollectivesTest, GatherCollectsAtRoot) {
  const index_t q = GetParam();
  Machine m(unit_config(q));
  m.run([q](exec::Process& p) {
    exec::Group g{0, q};
    std::vector<real_t> mine(static_cast<std::size_t>(p.rank() + 1),
                             static_cast<real_t>(p.rank()));
    auto all = exec::gather(p, g, std::move(mine), 300);
    if (p.rank() == 0) {
      ASSERT_EQ(static_cast<index_t>(all.size()), q);
      for (index_t r = 0; r < q; ++r) {
        ASSERT_EQ(static_cast<index_t>(all[static_cast<std::size_t>(r)].size()),
                  r + 1);
        EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(r)][0],
                         static_cast<real_t>(r));
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CollectivesTest, BroadcastFromArbitraryRoot) {
  const index_t q = GetParam();
  Machine m(unit_config(q));
  m.run([q](exec::Process& p) {
    exec::Group g{0, q};
    for (index_t root = 0; root < q; ++root) {
      std::vector<real_t> data;
      if (p.rank() == root) data = {static_cast<real_t>(root), 7.0};
      exec::broadcast_from(p, g, root, data, 400 + static_cast<int>(root));
      ASSERT_EQ(data.size(), 2u);
      EXPECT_DOUBLE_EQ(data[0], static_cast<real_t>(root));
    }
  });
}

TEST_P(CollectivesTest, AllGatherEveryoneGetsEverything) {
  const index_t q = GetParam();
  Machine m(unit_config(q));
  m.run([q](exec::Process& p) {
    exec::Group g{0, q};
    std::vector<real_t> mine(static_cast<std::size_t>(p.rank() % 3 + 1),
                             static_cast<real_t>(p.rank()));
    auto all = exec::allgather(p, g, std::move(mine), 500);
    ASSERT_EQ(static_cast<index_t>(all.size()), q);
    for (index_t r = 0; r < q; ++r) {
      ASSERT_EQ(static_cast<index_t>(all[static_cast<std::size_t>(r)].size()),
                r % 3 + 1);
      EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(r)][0],
                       static_cast<real_t>(r));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, CollectivesTest,
                         ::testing::Values<index_t>(1, 2, 4, 8, 16, 32));

TEST_P(CollectivesTest, ReduceSumToArbitraryRoot) {
  const index_t q = GetParam();
  Machine m(unit_config(q));
  m.run([q](exec::Process& p) {
    exec::Group g{0, q};
    for (index_t root = 0; root < std::min<index_t>(q, 4); ++root) {
      std::vector<real_t> data{static_cast<real_t>(p.rank() + 1)};
      exec::reduce_sum_to(p, g, root, data, 700 + static_cast<int>(root));
      if (p.rank() == root) {
        EXPECT_DOUBLE_EQ(data[0], static_cast<real_t>(q * (q + 1) / 2));
      }
    }
  });
}

TEST(CollectivesStrided, GroupWithStrideWorks) {
  // The grid columns of a 2-D processor grid are strided groups.
  Machine m(unit_config(8));
  m.run([](exec::Process& p) {
    if (p.rank() % 2 != 0) return;  // ranks {0, 2, 4, 6}
    exec::Group g{0, 4, 2};
    EXPECT_TRUE(g.contains(p.rank()));
    EXPECT_FALSE(g.contains(1));
    std::vector<real_t> data{1.0};
    exec::allreduce_sum(p, g, data, 600);
    EXPECT_DOUBLE_EQ(data[0], 4.0);
    // broadcast_from with a strided group and non-zero root.
    std::vector<real_t> bc;
    if (p.rank() == 4) bc = {42.0};  // local rank 2
    exec::broadcast_from(p, g, 2, bc, 610);
    ASSERT_EQ(bc.size(), 1u);
    EXPECT_DOUBLE_EQ(bc[0], 42.0);
  });
}

TEST(CollectivesCost, AllGatherRingSteps) {
  // Ring all-gather: q-1 rounds; each rank sends one message per round.
  constexpr index_t q = 8;
  Machine m(unit_config(q));
  auto stats = m.run([](exec::Process& p) {
    exec::Group g{0, q};
    std::vector<real_t> mine{static_cast<real_t>(p.rank())};
    (void)exec::allgather(p, g, std::move(mine), 0);
  });
  EXPECT_EQ(stats.total_messages(), q * (q - 1));
}

TEST(CollectivesSubgroup, WorksOnNonZeroBase) {
  // A subcube occupying ranks [4, 8) of an 8-processor machine.
  Machine m(unit_config(8));
  m.run([](exec::Process& p) {
    if (p.rank() < 4) return;
    exec::Group g{4, 4};
    std::vector<real_t> data{1.0};
    exec::allreduce_sum(p, g, data, 0);
    EXPECT_DOUBLE_EQ(data[0], 4.0);
  });
}

TEST(CollectivesCost, AllToAllHypercubeVolume) {
  // Hypercube pairwise all-to-all with per-pair payload of w words moves
  // q/2 * w words per rank per round over log q rounds (plus headers).
  constexpr index_t q = 8;
  constexpr index_t w = 32;
  Machine m(unit_config(q));
  auto stats = m.run([](exec::Process& p) {
    exec::Group g{0, q};
    std::vector<std::vector<real_t>> outgoing(q);
    for (auto& o : outgoing) o.assign(w, 1.0);
    (void)exec::all_to_all_personalized(p, g, std::move(outgoing), 0);
  });
  // Each rank sends log q = 3 messages.
  EXPECT_EQ(stats.total_messages(), q * 3);
  // Each message carries q/2 packets of w words (+ 3 header words each).
  const nnz_t expected_words_per_msg = (q / 2) * (w + 3);
  EXPECT_EQ(stats.total_words(), q * 3 * expected_words_per_msg);
}

}  // namespace
}  // namespace sparts::simpar
