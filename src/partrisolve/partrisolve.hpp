// The paper's contribution: parallel pipelined forward elimination and
// backward substitution for supernodal sparse triangular systems on a
// distributed-memory machine (paper §2).
//
// Structure of the computation:
//   * The supernodal elimination tree is mapped subtree-to-subcube: each
//     supernode is owned by a group (subcube) of processors; sequential
//     subtrees run entirely on one processor.
//   * A single-rank subtree runs the sequential solve's per-supernode
//     steps (trisolve::forward_step/backward_step) in place in the output
//     vector.  Below rows owned by the subtree's own supernodes are
//     updated there directly; rows owned by shared ancestors go into the
//     subtree root's *tail*, which travels to the shared parent like any
//     other contribution.  At p = 1 every supernode is such a step, so the
//     distributed solve equals trisolve::full_solve bit for bit.
//   * A supernode shared by q processors is distributed 1-D row-wise
//     block-cyclic with block size b and processed with the pipelined
//     algorithm of Figs. 3-4: solved sub-vectors of size b x m circulate
//     around the group's ring while each processor updates its own block
//     rows (column-priority) or block rows in row order (row-priority).
//     A trapezoid that fits in one block lies whole on the group's first
//     processor, which runs the same kernel alone, with no messages.
//   * Between a shared supernode (or a subtree root) and its parent,
//     right-hand-side fragments are routed point-to-point from each
//     fragment's owner to the owner of the corresponding position in the
//     parent's distribution.
//
// Forward elimination walks the tree bottom-up producing Y (L Y = B);
// backward substitution walks top-down producing X (L^T X = Y).
// The solve plan (subtree roots and tail positions, routing tables, walk
// order, fragment-stack offsets) is built once per solver, so
// forward()/backward() do only right-hand-side work: each rank allocates
// its working memory once per phase, and the supernode loop allocates
// nothing but outgoing payloads.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "numeric/supernodal_factor.hpp"
#include "partrisolve/dist_factor.hpp"
#include "exec/process.hpp"
#include "trisolve/trisolve.hpp"

namespace sparts::partrisolve {

/// Pipelining variant for the shared-supernode kernels.
enum class Pipelining {
  column_priority,  ///< finish a column's updates before the next (Fig 3c)
  row_priority,     ///< finish a row before moving to the next (Fig 3b)
  fan_out,          ///< no pipeline: broadcast each solved block to the
                    ///< whole group (the naive alternative the paper's
                    ///< ring pipeline improves on; ablation baseline)
};

struct Options {
  index_t block_size = 8;  ///< b of the block-cyclic mapping
  Pipelining pipelining = Pipelining::column_priority;
};

/// Result of one distributed solve phase.
struct PhaseReport {
  exec::RunStats stats;
  double time() const { return stats.parallel_time(); }
};

/// Distributed triangular solver bound to a factor and a processor mapping.
///
/// The factor's numeric blocks are shared read-only across the virtual
/// processors (the factor is already distributed conformally after
/// factorization + redistribution; see redist/).  Right-hand-side data
/// flows through explicit simulated messages.
class DistributedTrisolver {
 public:
  DistributedTrisolver(const numeric::SupernodalFactor& factor,
                       const mapping::SubcubeMapping& map, Options options);

  /// Strict-distribution variant: L values are read from each rank's
  /// private packed storage (`local_values`, e.g. produced by the 2-D ->
  /// 1-D redistribution) instead of the shared factor.  `factor` still
  /// provides the symbolic structure.  `local_values` must outlive the
  /// solver and match options.block_size.
  DistributedTrisolver(const numeric::SupernodalFactor& factor,
                       const DistributedFactor* local_values,
                       const mapping::SubcubeMapping& map, Options options);

  /// Solve L Y = B on `machine` (machine.nprocs() must equal map.p).
  /// `b_in` is n x m column-major; `y_out` receives Y.
  PhaseReport forward(exec::Comm& machine, std::span<const real_t> b_in,
                      std::span<real_t> y_out, index_t m) const;

  /// Solve L^T X = Y; `y_in` from forward(), `x_out` receives X.
  PhaseReport backward(exec::Comm& machine, std::span<const real_t> y_in,
                       std::span<real_t> x_out, index_t m) const;

  /// Convenience: forward then backward on the same machine.
  /// Returns {forward, backward} reports.
  std::pair<PhaseReport, PhaseReport> solve(exec::Comm& machine,
                                            std::span<const real_t> b_in,
                                            std::span<real_t> x_out,
                                            index_t m) const;

  const Options& options() const { return options_; }

  /// Height in rows of a rank's fragment stack — the buffer that holds
  /// the rank's fragments of shared supernodes and the tails of its
  /// subtree roots during a sweep (empty at p = 1).  A phase with m
  /// right-hand sides allocates rows x m values per rank, once.
  struct FragmentStackRows {
    index_t forward = 0;
    index_t backward = 0;
  };
  FragmentStackRows fragment_stack_rows(index_t rank) const;

 private:
  /// How a shared supernode or a subtree root reaches its parent.
  struct ChildRouting {
    /// For below-position k of child c (0-based), the position of that row
    /// inside the parent's trapezoid.
    std::vector<index_t> parent_pos;
    /// Unique (child_world_rank, parent_world_rank) communication pairs,
    /// ascending.  Pairs with equal src and dst (local hand-off) excluded.
    std::vector<std::pair<index_t, index_t>> pairs;
  };

  /// Where a single-rank supernode's step puts its below rows.  The rows
  /// ascend, so those of its subtree's supernodes come first (updated in
  /// place in the output vector) and those of shared ancestors last (in
  /// the subtree root's tail, which holds the root's below rows x m).
  struct LocalStep {
    index_t root = -1;        ///< subtree root; -1 for a shared supernode
    index_t split = 0;        ///< below rows [0, split) are in place
    index_t tail_begin = 0;   ///< tail_pos_ offset of below row `split`
    index_t child_rows = 0;   ///< below rows of its children, summed
    bool first = false;       ///< first of its subtree in ascending order
  };

  /// Where one rank's fragment of a shared supernode, or a subtree root's
  /// tail, lives in the rank's fragment stack (in rows; a phase scales by
  /// m), and when the forward sweep fills it.  One per slot.
  struct FragmentSlot {
    index_t fw_offset = 0;
    index_t bw_offset = 0;
    /// Forward: filled when the supernode's lowest owned child finishes
    /// (that child's tail hands off into it), not at its own visit.
    bool fw_filled_by_child = false;
    /// Forward: this supernode fills its parent's fragment as it finishes.
    bool fw_fills_parent = false;
  };

  /// Fragment-stack slot of (supernode s, world rank w in s's group); only
  /// shared supernodes and subtree roots have slots.
  std::size_t slot(index_t s, index_t w) const {
    return static_cast<std::size_t>(
        slot_begin_[static_cast<std::size_t>(s)] + w -
        map_.group[static_cast<std::size_t>(s)].base);
  }

  /// Subtree roots, splits and tail positions of the single-rank
  /// supernodes; fills local_, tail_pos_, local_runs_ and max_below_.
  void plan_local_steps();

  /// Replay every rank's forward and backward open/close sequence through
  /// a FragmentStackPlanner; fills fragments_ and the stack heights.
  void plan_fragment_stacks();

  /// The step of single-rank supernode s on rank w, with the root's tail
  /// at `tail`.
  trisolve::SupernodeStep local_step(index_t w, index_t s,
                                     real_t* tail) const;

  const numeric::SupernodalFactor& factor_;
  const DistributedFactor* local_values_ = nullptr;
  const mapping::SubcubeMapping& map_;
  Options options_;
  std::vector<std::vector<index_t>> children_;  ///< per supernode
  /// Per supernode, to the parent; empty below a subtree root.
  std::vector<ChildRouting> routing_;
  std::vector<LocalStep> local_;  ///< per supernode
  /// Per single-rank supernode, from its LocalStep::tail_begin: the row
  /// in its root's tail of each below row past the split.
  std::vector<index_t> tail_pos_;
  /// Per world rank: its single-rank supernodes' columns as ascending
  /// [begin, end) runs — the rows a phase copies into the output vector
  /// before the in-place steps.
  std::vector<std::vector<std::pair<index_t, index_t>>> local_runs_;
  /// Per world rank: the most below rows of one of its single-rank
  /// supernodes (sizes the step scratch).
  std::vector<index_t> max_below_;
  /// Per world rank: the supernodes whose group holds it, ascending — the
  /// forward walk (the backward walk is its reverse).
  std::vector<std::vector<index_t>> owned_;
  /// Slot numbering: supernode s's slots are [slot_begin_[s],
  /// slot_begin_[s + 1]), one per group rank of a shared supernode, one
  /// for a subtree root, none below it.
  std::vector<index_t> slot_begin_;
  std::vector<FragmentSlot> fragments_;
  std::vector<FragmentStackRows> stack_rows_;  ///< per world rank
  /// Prefix sums of pivot-block counts: block_base_[s] is the global id
  /// of supernode s's first pivot block.  Token tags are derived from
  /// global block ids so every in-flight token has a unique tag.
  std::vector<index_t> block_base_;
};

}  // namespace sparts::partrisolve
