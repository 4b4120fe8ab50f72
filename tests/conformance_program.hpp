// The stats-conformance SPMD program, shared by test_stats_conformance.cpp
// and test_proc_backend.cpp: declared compute, a ring exchange with
// rank-dependent payload sizes, and collectives.  Every backend must
// report the same per-rank flops and message/word counts for it.
#pragma once

#include <cstddef>
#include <vector>

#include "exec/collectives.hpp"
#include "exec/process.hpp"

namespace sparts {

inline void conformance_program(exec::Process& proc) {
  const index_t p = proc.nprocs();
  const index_t r = proc.rank();

  proc.compute(100.0 * static_cast<double>(r + 1));

  // Ring exchange with rank-dependent payload sizes.
  std::vector<real_t> ring(static_cast<std::size_t>(r + 1) * 4,
                           static_cast<double>(r));
  proc.send_values<real_t>((r + 1) % p, 10, ring);
  (void)proc.recv_values<real_t>((r + p - 1) % p, 10);

  // Collectives: every wrapper must feed stats identically on every
  // backend (they are layered on the same send/recv, but the checked
  // decorator and the tracer hook them too).
  const exec::Group g{0, p};
  std::vector<real_t> bcast;
  if (r == 0) bcast.assign(32, 1.0);
  exec::broadcast(proc, g, bcast, 100);
  std::vector<real_t> acc(16, static_cast<double>(r));
  exec::reduce_sum(proc, g, acc, 200);
  exec::barrier(proc, g, 300);

  proc.compute(50.0);
}

}  // namespace sparts
