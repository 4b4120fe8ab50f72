#include "partrisolve/partrisolve.hpp"

#include <algorithm>
#include <ranges>

#include "common/checks.hpp"
#include "common/error.hpp"
#include "common/finite.hpp"
#include "common/prefetch.hpp"
#include "dense/kernels.hpp"
#include "obs/span.hpp"
#include "ordering/etree.hpp"
#include "partrisolve/layout.hpp"
#include "partrisolve/packets.hpp"
#include "exec/collectives.hpp"
#include "exec/reliable.hpp"

namespace sparts::partrisolve {

namespace {

// Message tags.  Contribution and copy packets are one-shot per
// (edge, supernode), so they key on the supernode id.  Tokens of the
// pipelined kernels key on the *global pivot-block id* (the supernode's
// block_base plus the block index): several tokens of one supernode can
// be in flight on the same ring edge at once, and no two in-flight
// messages may share a (src, dst, tag) triple.  The residues mod 4 keep
// the four streams disjoint.
int tag_fw_contrib(index_t s) { return static_cast<int>(4 * s + 0); }
int tag_bw_copy(index_t s) { return static_cast<int>(4 * s + 2); }

/// pos[k] = index of rows[k] in `into`, for ascending `rows` that are a
/// subset of the ascending `into`.  The positions ascend too, so each
/// search gallops forward from the previous match (usually the very next
/// row).
void gallop_positions(std::span<const index_t> rows,
                      std::span<const index_t> into, index_t* pos) {
  auto from = into.begin();
  for (const index_t row : rows) {
    std::ptrdiff_t step = 1;
    while (step < into.end() - from && from[step] < row) step *= 2;
    const auto it = std::lower_bound(
        from + step / 2, from + std::min(step + 1, into.end() - from), row);
    SPARTS_CHECK(it != into.end() && *it == row,
                 "child row " << row << " missing from ancestor structure");
    *pos++ = static_cast<index_t>(it - into.begin());
    from = it + 1;
  }
}

}  // namespace

DistributedTrisolver::DistributedTrisolver(
    const numeric::SupernodalFactor& factor, const mapping::SubcubeMapping& map,
    Options options)
    : DistributedTrisolver(factor, nullptr, map, options) {}

DistributedTrisolver::DistributedTrisolver(
    const numeric::SupernodalFactor& factor,
    const DistributedFactor* local_values, const mapping::SubcubeMapping& map,
    Options options)
    : factor_(factor), local_values_(local_values), map_(map),
      options_(options) {
  SPARTS_CHECK(options_.block_size >= 1);
  const auto& part = factor_.partition();
  SPARTS_VALIDATE_CHEAP(map_.check_consistent(part));
  // Expensive: the 1-D block-cyclic ownership of every shared supernode's
  // trapezoid must partition its positions (the solver's routing tables
  // and the packed panels are derived from exactly this arithmetic).
  if (checks_at_least(CheckLevel::expensive)) {
    for (index_t s = 0; s < part.num_supernodes(); ++s) {
      const exec::Group& g = map_.group[static_cast<std::size_t>(s)];
      if (g.count == 1) continue;
      validate_block_cyclic(
          Layout{g.count, options_.block_size, part.height(s), part.width(s)});
    }
  }
  if (local_values_ == nullptr) {
    own_values_ = std::make_unique<DistributedFactor>(
        DistributedFactor::pack_from(factor_, map_, options_.block_size));
    local_values_ = own_values_.get();
  }
  SPARTS_CHECK(local_values_->block_size() == options_.block_size,
               "DistributedFactor block size must match solver options");
  children_ = ordering::tree_children(part.stree);

  const index_t nsup = part.num_supernodes();
  const index_t b = options_.block_size;
  block_base_.resize(static_cast<std::size_t>(nsup));
  index_t next_block = 0;
  for (index_t s = 0; s < nsup; ++s) {
    block_base_[static_cast<std::size_t>(s)] = next_block;
    next_block += (part.width(s) + b - 1) / b;
  }
  plan_local_steps();

  // Routing to the parent, for shared supernodes and subtree roots only:
  // below a subtree root every row stays on the rank.
  routing_.resize(static_cast<std::size_t>(nsup));
  for (index_t s = 0; s < nsup; ++s) {
    const index_t parent = part.stree.parent[static_cast<std::size_t>(s)];
    const index_t root = local_[static_cast<std::size_t>(s)].root;
    if (parent == -1 || (root != -1 && root != s)) continue;
    const auto rows = part.row_indices(s);
    const auto prows = part.row_indices(parent);
    const Layout child_layout = layout(s);
    const Layout parent_layout = layout(parent);
    const index_t t = child_layout.t;
    const index_t below = child_layout.ns - t;

    ChildRouting& cr = routing_[static_cast<std::size_t>(s)];
    cr.parent_pos.resize(static_cast<std::size_t>(below));
    gallop_positions(rows.subspan(static_cast<std::size_t>(t)), prows,
                     cr.parent_pos.data());
    const index_t cbase = map_.group[static_cast<std::size_t>(s)].base;
    const index_t pbase = map_.group[static_cast<std::size_t>(parent)].base;
    for (index_t k = 0; k < below; ++k) {
      const index_t src = cbase + child_layout.owner_of(t + k);
      const index_t dst =
          pbase +
          parent_layout.owner_of(cr.parent_pos[static_cast<std::size_t>(k)]);
      if (src != dst) cr.pairs.emplace_back(src, dst);
    }
    std::sort(cr.pairs.begin(), cr.pairs.end());
    cr.pairs.erase(std::unique(cr.pairs.begin(), cr.pairs.end()),
                   cr.pairs.end());
  }

  // Ascending per-rank walk lists over the compute groups, and the slots:
  // each rank's fragments (its rows of a shared supernode, or a subtree
  // root's tail) lie one after another in walk order.  A supernode's
  // parent and the owners of its below rows all have larger ids (the
  // walk-order rule, docs/taskdag.md), so ascending id visits every
  // supernode after all that feed it.
  owned_.resize(static_cast<std::size_t>(map_.p));
  slot_begin_.assign(static_cast<std::size_t>(nsup) + 1, 0);
  for (index_t s = 0; s < nsup; ++s) {
    const exec::Group g = compute_group(s);
    for (index_t w = g.base; w < g.base + g.count; ++w) {
      owned_[static_cast<std::size_t>(w)].push_back(s);
    }
    const index_t root = local_[static_cast<std::size_t>(s)].root;
    const index_t slots = root == -1 ? g.count : (root == s ? 1 : 0);
    slot_begin_[static_cast<std::size_t>(s) + 1] =
        slot_begin_[static_cast<std::size_t>(s)] + slots;
  }
  offset_.assign(static_cast<std::size_t>(slot_begin_.back()), 0);
  stack_rows_.assign(static_cast<std::size_t>(map_.p), 0);
  shared_.resize(static_cast<std::size_t>(map_.p));
  for (index_t w = 0; w < map_.p; ++w) {
    index_t& rows = stack_rows_[static_cast<std::size_t>(w)];
    for (const index_t s : owned_[static_cast<std::size_t>(w)]) {
      const index_t root = local_[static_cast<std::size_t>(s)].root;
      if (root != -1 && root != s) continue;
      const Layout lay = layout(s);
      offset_[slot(s, w)] = rows;
      if (root == s) {
        rows += lay.ns - lay.t;
      } else {
        rows += lay.local_count(w - compute_group(s).base);
        shared_[static_cast<std::size_t>(w)].push_back(s);
      }
    }
  }
}

exec::Group DistributedTrisolver::compute_group(index_t s) const {
  const exec::Group& g = map_.group[static_cast<std::size_t>(s)];
  if (factor_.partition().height(s) <= options_.block_size) {
    return exec::Group{g.base, 1};
  }
  return g;
}

Layout DistributedTrisolver::layout(index_t s) const {
  const auto& part = factor_.partition();
  return Layout{compute_group(s).count, options_.block_size, part.height(s),
                part.width(s)};
}

void DistributedTrisolver::plan_local_steps() {
  const auto& part = factor_.partition();
  const index_t nsup = part.num_supernodes();
  local_.assign(static_cast<std::size_t>(nsup), {});
  // Roots top-down: a single-rank supernode is a subtree root unless its
  // parent is single-rank too (then both are on the same rank, because a
  // child's group lies inside its parent's).
  for (index_t s = nsup - 1; s >= 0; --s) {
    if (map_.group[static_cast<std::size_t>(s)].count != 1) continue;
    const index_t parent = part.stree.parent[static_cast<std::size_t>(s)];
    local_[static_cast<std::size_t>(s)].root =
        parent != -1 && map_.group[static_cast<std::size_t>(parent)].count == 1
            ? local_[static_cast<std::size_t>(parent)].root
            : s;
  }

  tail_pos_.clear();
  local_runs_.assign(static_cast<std::size_t>(map_.p), {});
  max_below_.assign(static_cast<std::size_t>(map_.p), 0);
  for (index_t s = 0; s < nsup; ++s) {
    LocalStep& ls = local_[static_cast<std::size_t>(s)];
    if (ls.root == -1) continue;
    const index_t w = map_.group[static_cast<std::size_t>(s)].base;
    const index_t t = part.width(s);
    const auto below = part.row_indices(s).subspan(static_cast<std::size_t>(t));
    // Ancestors have higher ids and columns, so the rows of the subtree's
    // supernodes are exactly those before the root's last column.
    const index_t end = part.first_col[static_cast<std::size_t>(ls.root) + 1];
    ls.split = static_cast<index_t>(
        std::lower_bound(below.begin(), below.end(), end) - below.begin());
    ls.tail_begin = static_cast<index_t>(tail_pos_.size());
    tail_pos_.resize(tail_pos_.size() + below.size() -
                     static_cast<std::size_t>(ls.split));
    const auto rrows = part.row_indices(ls.root);
    gallop_positions(below.subspan(static_cast<std::size_t>(ls.split)),
                     rrows.subspan(static_cast<std::size_t>(
                         part.width(ls.root))),
                     tail_pos_.data() + ls.tail_begin);
    const index_t parent = part.stree.parent[static_cast<std::size_t>(s)];
    if (ls.root != s) {
      local_[static_cast<std::size_t>(parent)].child_rows +=
          static_cast<index_t>(below.size());
    }
    auto& runs = local_runs_[static_cast<std::size_t>(w)];
    const index_t c0 = part.first_col[static_cast<std::size_t>(s)];
    if (!runs.empty() && runs.back().second == c0) {
      runs.back().second = c0 + t;
    } else {
      runs.emplace_back(c0, c0 + t);
    }
    auto& most = max_below_[static_cast<std::size_t>(w)];
    most = std::max(most, static_cast<index_t>(below.size()));
  }
}

trisolve::SupernodeStep DistributedTrisolver::local_step(index_t s,
                                                         real_t* tail) const {
  const auto& part = factor_.partition();
  const LocalStep& ls = local_[static_cast<std::size_t>(s)];
  trisolve::SupernodeStep step;
  step.l = factor_.block(s).data();
  step.ldl = part.height(s);
  step.t = part.width(s);
  step.rows = part.row_indices(s);
  step.split = ls.split;
  step.tail_pos = tail_pos_.data() + ls.tail_begin;
  step.tail = tail;
  step.tail_ld = part.height(ls.root) - part.width(ls.root);
  return step;
}

index_t DistributedTrisolver::fragment_stack_rows(index_t rank) const {
  SPARTS_CHECK(rank >= 0 && rank < map_.p, "rank " << rank << " out of range");
  return stack_rows_[static_cast<std::size_t>(rank)];
}

namespace {

/// Everything a phase's SPMD body needs, bundled to keep lambdas small.
struct PhaseContext {
  const numeric::SupernodalFactor& factor;
  const std::vector<index_t>& block_base;  ///< global id of first pivot block
  index_t m;
};

/// One rank's working memory for a phase, allocated once per phase by the
/// rank itself: the fragment stack (the rank's fragment of every shared
/// supernode it computes and every subtree-root tail, each at its fixed
/// offset, zeroed on allocation), the in-place steps' scratch, outgoing
/// packets by group-relative destination, and reusable receive and token
/// buffers.  Their capacities grow to the largest supernode and then
/// stay, so the supernode loop allocates nothing but the payloads it
/// sends.
struct RankScratch {
  RankScratch(index_t stack_rows, index_t max_below, index_t nrhs, index_t p)
      : stack(static_cast<std::size_t>(stack_rows * nrhs)),
        out(static_cast<std::size_t>(p)),
        m(nrhs) {
    temp.reserve(static_cast<std::size_t>(max_below * nrhs));
  }

  /// The fragment at row offset `rows` of the stack (nloc x m, ld nloc).
  real_t* fragment(index_t rows) { return stack.data() + rows * m; }

  std::vector<real_t> stack;
  std::vector<real_t> temp;  ///< in-place step scratch
  std::vector<RhsPacket> out;
  RhsPacket in;
  std::vector<real_t> token;
  std::vector<real_t> acc;
  std::vector<std::vector<real_t>> tokens;  ///< row-priority token stream
  index_t m;
};

/// A rank's right-hand-side rows of one supernode during a sweep: a
/// shared supernode's fragment (its packed local positions from 0) or a
/// subtree root's tail (its below positions, from t), `ld` apart.
struct Rows {
  real_t* v = nullptr;
  index_t ld = 0;
  index_t first = 0;  ///< packed position held in row 0

  real_t& at(index_t lo, index_t c) const { return v[c * ld + lo - first]; }
};

/// to <- from on the rows in `runs` (both n x m, ld n): the single-rank
/// supernodes' rows, which their in-place steps then update.
void copy_runs(std::span<const std::pair<index_t, index_t>> runs,
               std::span<const real_t> from, std::span<real_t> to, index_t n,
               index_t m) {
  if (from.data() == to.data()) return;
  for (const auto& [r0, r1] : runs) {
    for (index_t c = 0; c < m; ++c) {
      std::copy(from.begin() + c * n + r0, from.begin() + c * n + r1,
                to.begin() + c * n + r0);
    }
  }
}

/// Token tag for pivot block k of supernode s (see the tag notes above).
int tag_fw_token(const PhaseContext& ctx, index_t s, index_t k) {
  return static_cast<int>(
      4 * (ctx.block_base[static_cast<std::size_t>(s)] + k) + 1);
}
int tag_bw_token(const PhaseContext& ctx, index_t s, index_t k) {
  return static_cast<int>(
      4 * (ctx.block_base[static_cast<std::size_t>(s)] + k) + 3);
}

/// View of one shared supernode's factor trapezoid as seen by one rank:
/// its packed local copy from the DistributedFactor, rows indexed by
/// packed local offset.  Every access in the kernels below is to a row
/// the rank owns.
struct LView {
  const real_t* base = nullptr;
  index_t ld = 0;
  const Layout* lay = nullptr;

  index_t row(index_t pos) const { return lay->local_of(pos); }
  const real_t* col(index_t c) const { return base + c * ld; }
};

/// First block > K owned by rank r (blocks are owned cyclically).
index_t first_owned_block_after(index_t k, index_t r, index_t q) {
  const index_t start = k + 1;
  const index_t shift = ((r - start) % q + q) % q;
  return start + shift;
}

// ---------------------------------------------------------------------------
// Forward elimination kernels on one shared supernode.
// ---------------------------------------------------------------------------

/// Apply token x_K to every block row of rank r strictly below block K.
void fw_apply_token_to_my_blocks(exec::Process& proc, const PhaseContext& ctx,
                                 const Layout& lay, index_t r,
                                 const LView& lv, index_t k,
                                 std::span<const real_t> token, real_t* v,
                                 index_t ldv) {
  const index_t c0 = lay.col_begin(k);
  const index_t bk = lay.col_end(k) - c0;
  for (index_t i = first_owned_block_after(k, r, lay.q); i < lay.num_blocks();
       i += lay.q) {
    const index_t i0 = lay.block_begin(i);
    const index_t len = lay.block_end(i) - i0;
    // Warm the next owned block's L panel while this GEMM runs: the walk
    // is strided by q, so the hardware prefetcher does not see it coming.
    const index_t inext = i + lay.q;
    if (inext < lay.num_blocks()) {
      common::prefetch_panel(
          lv.col(c0) + lv.row(lay.block_begin(inext)),
          static_cast<std::size_t>(lay.block_end(inext) -
                                   lay.block_begin(inext)) *
              sizeof(real_t));
    }
    dense::panel_gemm(len, ctx.m, bk, -1.0, lv.col(c0) + lv.row(i0), lv.ld,
                      token.data(), bk, v + lay.local_of(i0), ldv);
    proc.compute_at(static_cast<double>(dense::gemm_flops(len, ctx.m, bk)),
                    proc.cost().panel_flop(ctx.m));
  }
}

/// Copy the solved diagonal-block rows [lo, lo + bk) of V into `token`
/// (bk x m, ld bk).
void pack_token(exec::Process& proc, const real_t* v, index_t ldv, index_t lo,
                index_t bk, index_t m, std::vector<real_t>& token) {
  token.resize(static_cast<std::size_t>(bk * m));
  for (index_t c = 0; c < m; ++c) {
    for (index_t i = 0; i < bk; ++i) {
      token[static_cast<std::size_t>(c * bk + i)] = v[c * ldv + lo + i];
    }
  }
  proc.compute_at(static_cast<double>(bk * m), proc.cost().t_mem);
}

/// Column-priority pipelined forward elimination (paper Fig. 3c).
void fw_pipelined_column_priority(exec::Process& proc, const PhaseContext& ctx,
                                  index_t s, const exec::Group& g,
                                  const Layout& lay, index_t r,
                                  const LView& lv, real_t* v, index_t ldv,
                                  std::vector<real_t>& token) {
  const index_t q = lay.q;
  const index_t next = g.base + (r + 1) % q;
  const index_t prev = g.base + (r + q - 1) % q;
  const index_t tb = lay.num_pivot_blocks();
  const index_t m = ctx.m;

  for (index_t k = 0; k < tb; ++k) {
    SPARTS_TRACE_SPAN(proc, obs::Category::compute, "fw.block",
                      static_cast<std::int64_t>(k),
                      static_cast<std::int64_t>(s));
    const index_t owner = lay.owner_of_block(k);
    const index_t c0 = lay.col_begin(k);
    const index_t c1 = lay.col_end(k);
    const index_t bk = c1 - c0;
    if (r == owner) {
      // The diagonal block's rows of V are fully updated; solve.
      const index_t lo = lay.local_of(c0);
      proc.compute_at(static_cast<double>(dense::panel_trsm_lower(
                          bk, m, lv.col(c0) + lv.row(c0), lv.ld, v + lo, ldv)),
                      proc.cost().panel_flop(m));
      pack_token(proc, v, ldv, lo, bk, m, token);
      if (q > 1) {
        proc.send_values<real_t>(next, tag_fw_token(ctx, s, k), token);
      }
      // Mixed tail: below-part rows sharing block K (only the last pivot
      // block when b does not divide t).
      const index_t tail0 = c1;
      const index_t tail1 = lay.block_end(k);
      if (tail1 > tail0) {
        const index_t len = tail1 - tail0;
        dense::panel_gemm(len, m, bk, -1.0, lv.col(c0) + lv.row(tail0), lv.ld,
                          token.data(), bk, v + lay.local_of(tail0), ldv);
        proc.compute_at(static_cast<double>(dense::gemm_flops(len, m, bk)),
                        proc.cost().panel_flop(m));
      }
    } else {
      proc.recv_values_into(prev, tag_fw_token(ctx, s, k), token);
      check_finite_cheap(token, "fw token", s);
      if ((r + 1) % q != owner) {
        proc.send_values<real_t>(next, tag_fw_token(ctx, s, k), token);
      }
    }
    fw_apply_token_to_my_blocks(proc, ctx, lay, r, lv, k, token, v,
                                ldv);
  }
}

/// Row-priority pipelined forward elimination (paper Fig. 3b): each rank
/// walks its own block rows in ascending order, buffering tokens.
void fw_pipelined_row_priority(exec::Process& proc, const PhaseContext& ctx,
                               index_t s, const exec::Group& g,
                               const Layout& lay, index_t r,
                               const LView& lv, real_t* v, index_t ldv,
                               std::vector<std::vector<real_t>>& tokens) {
  const index_t q = lay.q;
  const index_t next = g.base + (r + 1) % q;
  const index_t prev = g.base + (r + q - 1) % q;
  const index_t tb = lay.num_pivot_blocks();
  const index_t m = ctx.m;

  // An empty token is one not obtained yet; clear() keeps each buffer's
  // capacity for the next supernode.
  if (tokens.size() < static_cast<std::size_t>(tb)) {
    tokens.resize(static_cast<std::size_t>(tb));
  }
  for (index_t k = 0; k < tb; ++k) tokens[static_cast<std::size_t>(k)].clear();
  index_t next_foreign = 0;
  auto advance_foreign = [&] {
    while (next_foreign < tb && lay.owner_of_block(next_foreign) == r) {
      ++next_foreign;
    }
  };
  advance_foreign();
  // Receive the next foreign token off the ring and pass it on.
  auto receive_next = [&] {
    auto& tok = tokens[static_cast<std::size_t>(next_foreign)];
    proc.recv_values_into(prev, tag_fw_token(ctx, s, next_foreign), tok);
    check_finite_cheap(tok, "fw token", s);
    if ((r + 1) % q != lay.owner_of_block(next_foreign)) {
      proc.send_values<real_t>(next, tag_fw_token(ctx, s, next_foreign), tok);
    }
    ++next_foreign;
    advance_foreign();
  };
  auto obtain = [&](index_t k) -> const std::vector<real_t>& {
    // Foreign tokens arrive in ascending order over the ring; my own were
    // produced when I processed their diagonal block.
    while (tokens[static_cast<std::size_t>(k)].empty()) {
      SPARTS_CHECK(next_foreign <= k, "token ordering violated");
      receive_next();
    }
    return tokens[static_cast<std::size_t>(k)];
  };
  auto apply = [&](index_t k, index_t i0, index_t len,
                   const std::vector<real_t>& tok) {
    const index_t c0 = lay.col_begin(k);
    const index_t bk = lay.col_end(k) - c0;
    dense::panel_gemm(len, m, bk, -1.0, lv.col(c0) + lv.row(i0), lv.ld, tok.data(),
                      bk, v + lay.local_of(i0), ldv);
    proc.compute_at(static_cast<double>(dense::gemm_flops(len, m, bk)),
                    proc.cost().panel_flop(m));
  };

  for (index_t i = r; i < lay.num_blocks(); i += q) {
    SPARTS_TRACE_SPAN(proc, obs::Category::compute, "fw.row_block",
                      static_cast<std::int64_t>(i),
                      static_cast<std::int64_t>(s));
    const index_t i0 = lay.block_begin(i);
    const index_t i1 = lay.block_end(i);
    if (i < tb) {
      // Update this row block with all earlier columns, then solve its
      // diagonal block (I always own column block i of my own row block).
      for (index_t k = 0; k < i; ++k) apply(k, i0, i1 - i0, obtain(k));
      const index_t c1 = lay.col_end(i);
      const index_t bk = c1 - i0;
      const index_t lo = lay.local_of(i0);
      proc.compute_at(static_cast<double>(dense::panel_trsm_lower(
                          bk, m, lv.col(i0) + lv.row(i0), lv.ld, v + lo, ldv)),
                      proc.cost().panel_flop(m));
      auto& token = tokens[static_cast<std::size_t>(i)];
      pack_token(proc, v, ldv, lo, bk, m, token);
      if (q > 1) proc.send_values<real_t>(next, tag_fw_token(ctx, s, i), token);
      if (i1 > c1) {
        // Mixed tail rows of this block need my fresh token as well.
        apply(i, c1, i1 - c1, token);
      }
    } else {
      for (index_t k = 0; k < tb; ++k) apply(k, i0, i1 - i0, obtain(k));
    }
  }
  // Drain tokens this rank never needed locally (it must still forward
  // them so downstream ranks receive the full stream).
  while (next_foreign < tb) receive_next();
}

/// Fan-out (non-pipelined) forward elimination: the owner of each pivot
/// block broadcasts the solved sub-vector to the whole group.  Costs
/// ~log q startups per block instead of overlapping them — the baseline
/// the paper's ring pipeline improves on.
void fw_fan_out(exec::Process& proc, const PhaseContext& ctx, index_t s,
                const exec::Group& g, const Layout& lay, index_t r,
                const LView& lv, real_t* v, index_t ldv,
                std::vector<real_t>& token) {
  const index_t tb = lay.num_pivot_blocks();
  const index_t m = ctx.m;

  for (index_t k = 0; k < tb; ++k) {
    SPARTS_TRACE_SPAN(proc, obs::Category::compute, "fw.block",
                      static_cast<std::int64_t>(k),
                      static_cast<std::int64_t>(s));
    const index_t owner = lay.owner_of_block(k);
    const index_t c0 = lay.col_begin(k);
    const index_t c1 = lay.col_end(k);
    const index_t bk = c1 - c0;
    token.clear();  // non-owners receive it in the broadcast
    if (r == owner) {
      const index_t lo = lay.local_of(c0);
      proc.compute_at(static_cast<double>(dense::panel_trsm_lower(
                          bk, m, lv.col(c0) + lv.row(c0), lv.ld, v + lo, ldv)),
                      proc.cost().panel_flop(m));
      pack_token(proc, v, ldv, lo, bk, m, token);
      const index_t tail0 = c1;
      const index_t tail1 = lay.block_end(k);
      if (tail1 > tail0) {
        const index_t len = tail1 - tail0;
        dense::panel_gemm(len, m, bk, -1.0, lv.col(c0) + lv.row(tail0), lv.ld,
                          token.data(), bk, v + lay.local_of(tail0), ldv);
        proc.compute_at(static_cast<double>(dense::gemm_flops(len, m, bk)),
                        proc.cost().panel_flop(m));
      }
    }
    exec::broadcast_from(proc, g, owner, token, tag_fw_token(ctx, s, k));
    fw_apply_token_to_my_blocks(proc, ctx, lay, r, lv, k, token, v,
                                ldv);
  }
}

// ---------------------------------------------------------------------------
// Backward substitution kernel on one shared supernode (paper Fig. 4).
// ---------------------------------------------------------------------------

/// acc <- sum over rank r's block rows strictly below pivot block K (and,
/// on K's owner, the mixed tail rows of block K) of L(I, K)^T * w_I.
void bw_local_partial_sum(exec::Process& proc, const PhaseContext& ctx,
                          const Layout& lay, index_t r, const LView& lv,
                          index_t k, const real_t* w, index_t ldw,
                          std::vector<real_t>& acc) {
  const index_t q = lay.q;
  const index_t m = ctx.m;
  const index_t c0 = lay.col_begin(k);
  const index_t c1 = lay.col_end(k);
  const index_t bk = c1 - c0;
  acc.assign(static_cast<std::size_t>(bk * m), 0.0);
  for (index_t i = first_owned_block_after(k, r, q); i < lay.num_blocks();
       i += q) {
    const index_t i0 = lay.block_begin(i);
    const index_t len = lay.block_end(i) - i0;
    // Warm the next owned block's L panel (q-strided walk, see the
    // forward sweep).
    const index_t inext = i + q;
    if (inext < lay.num_blocks()) {
      common::prefetch_panel(
          lv.col(c0) + lv.row(lay.block_begin(inext)),
          static_cast<std::size_t>(lay.block_end(inext) -
                                   lay.block_begin(inext)) *
              sizeof(real_t));
    }
    dense::panel_gemm_at(bk, m, len, 1.0, lv.col(c0) + lv.row(i0), lv.ld,
                         w + lay.local_of(i0), ldw, acc.data(), bk);
    proc.compute_at(static_cast<double>(dense::gemm_flops(bk, m, len)),
                    proc.cost().panel_flop(m));
  }
  if (r == lay.owner_of_block(k) && lay.block_end(k) > c1) {
    // Mixed tail rows of block K (below-part rows in the pivot block).
    const index_t len = lay.block_end(k) - c1;
    dense::panel_gemm_at(bk, m, len, 1.0, lv.col(c0) + lv.row(c1), lv.ld,
                         w + lay.local_of(c1), ldw, acc.data(), bk);
    proc.compute_at(static_cast<double>(dense::gemm_flops(bk, m, len)),
                    proc.cost().panel_flop(m));
  }
}

/// On K's owner, once acc holds the whole group's sum:
/// w_K <- L(K,K)^{-T} (w_K - acc).
void bw_solve_pivot_block(exec::Process& proc, const PhaseContext& ctx,
                          const Layout& lay, const LView& lv, index_t k,
                          real_t* w, index_t ldw,
                          const std::vector<real_t>& acc) {
  const index_t m = ctx.m;
  const index_t c0 = lay.col_begin(k);
  const index_t bk = lay.col_end(k) - c0;
  const index_t lo = lay.local_of(c0);
  for (index_t c = 0; c < m; ++c) {
    for (index_t i = 0; i < bk; ++i) {
      w[c * ldw + lo + i] -= acc[static_cast<std::size_t>(c * bk + i)];
    }
  }
  proc.compute_at(static_cast<double>(bk * m), proc.cost().t_mem);
  proc.compute_at(
      static_cast<double>(dense::panel_trsm_lower_transposed(
          bk, m, lv.col(c0) + lv.row(c0), lv.ld, w + lo, ldw)),
      proc.cost().panel_flop(m));
}

void bw_pipelined(exec::Process& proc, const PhaseContext& ctx, index_t s,
                  const exec::Group& g, const Layout& lay, index_t r,
                  const LView& lv, real_t* w, index_t ldw,
                  std::vector<real_t>& acc, std::vector<real_t>& in) {
  const index_t q = lay.q;
  // The partial-sum token for column K travels the ring in the -1
  // direction, starting at owner(K)-1 and ending at owner(K).  This order
  // matters: the chain's early links only need x-values of long-finished
  // columns, and the freshest dependency (x_{K+1}, solved by the
  // immediately preceding chain) is added at the second-to-last link — so
  // successive columns' chains overlap in a wavefront exactly as in the
  // paper's Fig. 4.  (Running the chain the other way serializes every
  // chain behind the completion of the previous column: tb*q hops instead
  // of ~q + tb.)
  const index_t next = g.base + (r + q - 1) % q;
  const index_t prev = g.base + (r + 1) % q;
  const index_t tb = lay.num_pivot_blocks();

  auto add_incoming = [&](index_t k) {
    proc.recv_values_into(prev, tag_bw_token(ctx, s, k), in);
    check_finite_cheap(in, "bw token", s);
    SPARTS_CHECK(in.size() == acc.size());
    for (std::size_t z = 0; z < acc.size(); ++z) acc[z] += in[z];
    proc.compute_at(static_cast<double>(acc.size()), proc.cost().t_mem);
  };

  for (index_t k = tb - 1; k >= 0; --k) {
    SPARTS_TRACE_SPAN(proc, obs::Category::compute, "bw.block",
                      static_cast<std::int64_t>(k),
                      static_cast<std::int64_t>(s));
    const index_t owner = lay.owner_of_block(k);
    bw_local_partial_sum(proc, ctx, lay, r, lv, k, w, ldw, acc);

    const index_t chain_pos = ((k - 1 - r) % q + q) % q;
    if (r != owner) {
      if (chain_pos != 0) add_incoming(k);
      proc.send_values<real_t>(next, tag_bw_token(ctx, s, k), acc);
    } else {
      if (q > 1) add_incoming(k);
      bw_solve_pivot_block(proc, ctx, lay, lv, k, w, ldw, acc);
    }
  }
}

/// Fan-in (non-pipelined) backward substitution: each column's partial
/// sums are combined with a log-q reduction to the diagonal owner instead
/// of flowing along the ring.
void bw_fan_in(exec::Process& proc, const PhaseContext& ctx, index_t s,
               const exec::Group& g, const Layout& lay, index_t r,
               const LView& lv, real_t* w, index_t ldw,
               std::vector<real_t>& acc) {
  const index_t tb = lay.num_pivot_blocks();

  for (index_t k = tb - 1; k >= 0; --k) {
    SPARTS_TRACE_SPAN(proc, obs::Category::compute, "bw.block",
                      static_cast<std::int64_t>(k),
                      static_cast<std::int64_t>(s));
    const index_t owner = lay.owner_of_block(k);
    bw_local_partial_sum(proc, ctx, lay, r, lv, k, w, ldw, acc);
    exec::reduce_sum_to(proc, g, owner, acc, tag_bw_token(ctx, s, k));
    if (r == owner) bw_solve_pivot_block(proc, ctx, lay, lv, k, w, ldw, acc);
  }
}

// ---------------------------------------------------------------------------
// Shared helpers for both phases.
// ---------------------------------------------------------------------------

/// Copy the pivot positions of rank r's fragment `v` of supernode s (nloc
/// x m, ld nloc) from `source` (n x m).
void fill_pivots(const numeric::SupernodalFactor& factor, index_t s,
                 const Layout& lay, index_t r, std::span<const real_t> source,
                 index_t n, index_t m, real_t* v) {
  const index_t nloc = lay.local_count(r);
  const auto rows = factor.partition().row_indices(s);
  lay.for_owned_runs(r, 0, lay.t, [&](index_t i0, index_t i1) {
    const index_t lo = lay.local_of(i0);
    for (index_t c = 0; c < m; ++c) {
      for (index_t i = i0; i < i1; ++i) {
        v[c * nloc + lo + (i - i0)] =
            source[static_cast<std::size_t>(
                c * n + rows[static_cast<std::size_t>(i)])];
      }
    }
  });
}

/// Write the pivot positions of rank r's fragment `v` into `out` (n x m).
void publish_pivots(const PhaseContext& ctx, index_t s, const Layout& lay,
                    index_t r, const real_t* v, std::span<real_t> out,
                    index_t n) {
  const index_t nloc = lay.local_count(r);
  const auto rows = ctx.factor.partition().row_indices(s);
  lay.for_owned_runs(r, 0, lay.t, [&](index_t i0, index_t i1) {
    const index_t lo = lay.local_of(i0);
    for (index_t c = 0; c < ctx.m; ++c) {
      for (index_t i = i0; i < i1; ++i) {
        out[static_cast<std::size_t>(
            c * n + rows[static_cast<std::size_t>(i)])] =
            v[c * nloc + lo + (i - i0)];
      }
    }
  });
}

/// Send every non-empty outgoing packet to group g's rank of the same
/// relative index, ascending, and empty the packets (keeping capacity).
void flush_packets(exec::Process& proc, const exec::Group& g, int tag,
                   index_t m, std::vector<RhsPacket>& out) {
  for (index_t d = 0; d < g.count; ++d) {
    RhsPacket& pkt = out[static_cast<std::size_t>(d)];
    if (pkt.empty()) continue;
    proc.send_owned(g.base + d, tag, pack_rhs(pkt, m));
    pkt.positions.clear();
    pkt.values.clear();
  }
}

/// The factor view of rank w's packed block of shared supernode s.
LView make_view(const DistributedFactor& local_values, index_t w, index_t s,
                const Layout& lay) {
  return LView{local_values.local_block(w, s).data(),
               local_values.local_rows(w, s), &lay};
}

}  // namespace

void DistributedTrisolver::fill_fragments(index_t w,
                                          std::span<const real_t> source,
                                          index_t m, real_t* stack) const {
  const index_t n = factor_.partition().n();
  for (const index_t s : shared_[static_cast<std::size_t>(w)]) {
    fill_pivots(factor_, s, layout(s), w - compute_group(s).base, source, n, m,
                stack + offset_[slot(s, w)] * m);
  }
}

PhaseReport DistributedTrisolver::forward(exec::Comm& machine,
                                          std::span<const real_t> b_in,
                                          std::span<real_t> y_out,
                                          index_t m) const {
  const auto& part = factor_.partition();
  const index_t n = part.n();
  SPARTS_CHECK(machine.nprocs() == map_.p,
               "machine size does not match the mapping");
  SPARTS_CHECK(static_cast<index_t>(b_in.size()) == n * m);
  SPARTS_CHECK(static_cast<index_t>(y_out.size()) == n * m);

  PhaseContext ctx{factor_, block_base_, m};

  // Hand rank w's below rows of s (a shared supernode or a subtree root,
  // rows in `src`) to the parent: rows the rank also owns there add into
  // its parent fragment — they hold -L21*y — and the rest travel to their
  // owners in one packet per destination.
  auto route_to_parent = [&](exec::Process& proc, RankScratch& scratch,
                             index_t s, const Layout& lay, index_t r,
                             const Rows& src) {
    const index_t w = proc.rank();
    const index_t parent = part.stree.parent[static_cast<std::size_t>(s)];
    const ChildRouting& cr = routing_[static_cast<std::size_t>(s)];
    const Layout play = layout(parent);
    const exec::Group pg = compute_group(parent);
    // A child's group lies inside its parent's, but w lies outside the
    // parent's compute group when the parent fits in one block on another
    // rank: then w owns none of its rows, and every row travels.
    const index_t pr = w - pg.base;
    real_t* pv = nullptr;
    index_t pnloc = 0;
    if (pg.contains(w)) {
      pv = scratch.fragment(offset_[slot(parent, w)]);
      pnloc = play.local_count(pr);
    }
    lay.for_owned_runs(r, lay.t, lay.ns, [&](index_t i0, index_t i1) {
      for (index_t pos = i0, lo = lay.local_of(i0); pos < i1; ++pos, ++lo) {
        const index_t ppos =
            cr.parent_pos[static_cast<std::size_t>(pos - lay.t)];
        const index_t dr = play.owner_of(ppos);
        if (dr == pr) {
          const index_t plo = play.local_of(ppos);
          for (index_t c = 0; c < m; ++c) {
            pv[c * pnloc + plo] += src.at(lo, c);
          }
          proc.compute_at(static_cast<double>(m), proc.cost().t_mem);
        } else {
          RhsPacket& pkt = scratch.out[static_cast<std::size_t>(dr)];
          pkt.positions.push_back(ppos);
          for (index_t c = 0; c < m; ++c) pkt.values.push_back(src.at(lo, c));
        }
      }
    });
    flush_packets(proc, pg, tag_fw_contrib(s), m, scratch.out);
  };

  // Each rank walks the supernodes it computes in ascending id: every
  // supernode whose rectangle update feeds rows of s has a smaller id, so
  // it has been walked before s.  The zeroed stack already holds every
  // fragment's below rows and every tail; only the pivot rows come from B.
  auto spmd = [&](exec::Process& proc) {
    const index_t w = proc.rank();
    RankScratch scratch(stack_rows_[static_cast<std::size_t>(w)],
                        max_below_[static_cast<std::size_t>(w)], m, map_.p);
    const exec::ProgressNotes progress(proc);
    copy_runs(local_runs_[static_cast<std::size_t>(w)], b_in, y_out, n, m);
    fill_fragments(w, b_in, m, scratch.stack.data());
    for (const index_t s : owned_[static_cast<std::size_t>(w)]) {
      const exec::Group g = compute_group(s);
      progress.note("fw supernode", s);
      SPARTS_TRACE_SPAN(proc, obs::Category::compute, "fw.supernode",
                        static_cast<std::int64_t>(s),
                        static_cast<std::int64_t>(g.count));
      const Layout lay = layout(s);
      const LocalStep& ls = local_[static_cast<std::size_t>(s)];
      if (ls.root != -1) {
        // Single-rank: the sequential step in place in y_out; rows of
        // shared ancestors go into the subtree root's tail.
        real_t* tv = scratch.fragment(offset_[slot(ls.root, w)]);
        const trisolve::SupernodeStep step = local_step(s, tv);
        proc.compute_at(static_cast<double>(trisolve::forward_step(
                            step, y_out.data(), n, m, scratch.temp)),
                        proc.cost().panel_flop(m));
        if (ls.root != s) {
          // Priced as the hand-off into the parent it stands for.
          proc.compute_at(static_cast<double>((lay.ns - lay.t) * m),
                          proc.cost().t_mem);
        } else if (part.stree.parent[static_cast<std::size_t>(s)] != -1) {
          route_to_parent(proc, scratch, s, lay, 0,
                          Rows{tv, step.tail_ld, lay.t});
        }
        continue;
      }

      const index_t r = w - g.base;
      const index_t nloc = lay.local_count(r);
      real_t* v = scratch.fragment(offset_[slot(s, w)]);

      // Receive remote child contributions.
      for (index_t c : children_[static_cast<std::size_t>(s)]) {
        const ChildRouting& cr = routing_[static_cast<std::size_t>(c)];
        for (const auto& [src, dst] : cr.pairs) {
          if (dst != w) continue;
          auto msg = proc.recv(src, tag_fw_contrib(c));
          RhsPacket& pkt = scratch.in;
          unpack_rhs(msg.payload, m, pkt);
          check_finite_cheap(pkt.values, "fw child contribution", c);
          // The child's tail already holds -L21*y, so contributions add.
          for (std::size_t z = 0; z < pkt.positions.size(); ++z) {
            const index_t lo = lay.local_of(pkt.positions[z]);
            for (index_t col = 0; col < m; ++col) {
              v[col * nloc + lo] +=
                  pkt.values[z * static_cast<std::size_t>(m) +
                             static_cast<std::size_t>(col)];
            }
          }
          proc.compute_at(static_cast<double>(pkt.positions.size()) *
                              static_cast<double>(m),
                          proc.cost().t_mem);
        }
      }

      const LView lv = make_view(*local_values_, w, s, lay);
      if (options_.pipelining == Pipelining::column_priority) {
        fw_pipelined_column_priority(proc, ctx, s, g, lay, r, lv, v, nloc,
                                     scratch.token);
      } else if (options_.pipelining == Pipelining::row_priority) {
        fw_pipelined_row_priority(proc, ctx, s, g, lay, r, lv, v, nloc,
                                  scratch.tokens);
      } else {
        fw_fan_out(proc, ctx, s, g, lay, r, lv, v, nloc, scratch.token);
      }

      publish_pivots(ctx, s, lay, r, v, y_out, n);
      if (part.stree.parent[static_cast<std::size_t>(s)] != -1) {
        route_to_parent(proc, scratch, s, lay, r, Rows{v, nloc, 0});
      }
    }
  };

  return {machine.run(spmd)};
}

PhaseReport DistributedTrisolver::backward(exec::Comm& machine,
                                           std::span<const real_t> y_in,
                                           std::span<real_t> x_out,
                                           index_t m) const {
  const auto& part = factor_.partition();
  const index_t n = part.n();
  SPARTS_CHECK(machine.nprocs() == map_.p,
               "machine size does not match the mapping");
  SPARTS_CHECK(static_cast<index_t>(y_in.size()) == n * m);
  SPARTS_CHECK(static_cast<index_t>(x_out.size()) == n * m);

  PhaseContext ctx{factor_, block_base_, m};

  // Receive the below-part values of s (a shared supernode or a subtree
  // root, rows in `dst`) from the parent ranks that own them.
  auto receive_from_parent = [&](exec::Process& proc, RankScratch& scratch,
                                 index_t s, const Layout& lay,
                                 const Rows& dst) {
    const index_t w = proc.rank();
    const ChildRouting& cr = routing_[static_cast<std::size_t>(s)];
    // Backward messages travel parent -> child: the pair roles swap.
    for (const auto& [child_rank, parent_rank] : cr.pairs) {
      if (child_rank != w) continue;
      auto msg = proc.recv(parent_rank, tag_bw_copy(s));
      RhsPacket& pkt = scratch.in;
      unpack_rhs(msg.payload, m, pkt);
      check_finite_cheap(pkt.values, "bw parent values", s);
      for (std::size_t z = 0; z < pkt.positions.size(); ++z) {
        const index_t lo = lay.local_of(pkt.positions[z]);
        for (index_t col = 0; col < m; ++col) {
          dst.at(lo, col) = pkt.values[z * static_cast<std::size_t>(m) +
                                       static_cast<std::size_t>(col)];
        }
      }
      proc.compute_at(static_cast<double>(pkt.positions.size()) *
                          static_cast<double>(m),
                      proc.cost().t_mem);
    }
  };

  // Backward walks the forward order reversed, descending id: every
  // supernode whose solved rows s reads has a larger id, so it has been
  // walked before s.  The pivot rows of every fragment come from Y as the
  // phase starts; the parent's visit (the local copies) and messages
  // (receive_from_parent) supply the below rows.
  auto spmd = [&](exec::Process& proc) {
    const index_t w = proc.rank();
    RankScratch scratch(stack_rows_[static_cast<std::size_t>(w)],
                        max_below_[static_cast<std::size_t>(w)], m, map_.p);
    const exec::ProgressNotes progress(proc);
    copy_runs(local_runs_[static_cast<std::size_t>(w)], y_in, x_out, n, m);
    fill_fragments(w, y_in, m, scratch.stack.data());
    for (const index_t s :
         std::views::reverse(owned_[static_cast<std::size_t>(w)])) {
      const exec::Group g = compute_group(s);
      progress.note("bw supernode", s);
      SPARTS_TRACE_SPAN(proc, obs::Category::compute, "bw.supernode",
                        static_cast<std::int64_t>(s),
                        static_cast<std::int64_t>(g.count));
      const index_t parent = part.stree.parent[static_cast<std::size_t>(s)];
      const Layout lay = layout(s);
      const LocalStep& ls = local_[static_cast<std::size_t>(s)];
      if (ls.root != -1) {
        // Single-rank: the sequential step in place in x_out, reading the
        // rows of shared ancestors from the subtree root's tail.
        real_t* tv = scratch.fragment(offset_[slot(ls.root, w)]);
        const trisolve::SupernodeStep step = local_step(s, tv);
        if (ls.root == s && parent != -1) {
          receive_from_parent(proc, scratch, s, lay,
                              Rows{tv, step.tail_ld, lay.t});
        }
        proc.compute_at(static_cast<double>(trisolve::backward_step(
                            step, x_out.data(), n, m, scratch.temp)),
                        proc.cost().panel_flop(m));
        if (ls.child_rows > 0) {
          // Priced as the copies into the children it stands for.
          proc.compute_at(static_cast<double>(ls.child_rows * m),
                          proc.cost().t_mem);
        }
        continue;
      }

      const index_t r = w - g.base;
      const index_t nloc = lay.local_count(r);
      real_t* wv = scratch.fragment(offset_[slot(s, w)]);
      if (parent != -1) {
        receive_from_parent(proc, scratch, s, lay, Rows{wv, nloc, 0});
      }

      const LView lv = make_view(*local_values_, w, s, lay);
      if (options_.pipelining == Pipelining::fan_out) {
        bw_fan_in(proc, ctx, s, g, lay, r, lv, wv, nloc, scratch.acc);
      } else {
        bw_pipelined(proc, ctx, s, g, lay, r, lv, wv, nloc, scratch.acc,
                     scratch.token);
      }

      publish_pivots(ctx, s, lay, r, wv, x_out, n);

      // Send each child the values its below-part positions need: into
      // this rank's fragment (a shared child) or tail (a subtree root),
      // or to the child rank that owns them.
      for (index_t c : children_[static_cast<std::size_t>(s)]) {
        const ChildRouting& cr = routing_[static_cast<std::size_t>(c)];
        const Layout clay = layout(c);
        const exec::Group cg = compute_group(c);
        Rows dst;
        if (cg.contains(w)) {
          dst.v = scratch.fragment(offset_[slot(c, w)]);
          if (local_[static_cast<std::size_t>(c)].root == c) {
            dst.ld = clay.ns - clay.t;
            dst.first = clay.t;
          } else {
            dst.ld = clay.local_count(w - cg.base);
          }
        }
        const index_t cbelow = clay.ns - clay.t;
        for (index_t k = 0; k < cbelow; ++k) {
          const index_t ppos = cr.parent_pos[static_cast<std::size_t>(k)];
          if (lay.owner_of(ppos) != r) continue;
          const index_t cpos = clay.t + k;
          const index_t dr = clay.owner_of(cpos);
          const index_t lo = lay.local_of(ppos);
          if (cg.base + dr == w) {
            const index_t clo = clay.local_of(cpos);
            for (index_t col = 0; col < m; ++col) {
              dst.at(clo, col) = wv[col * nloc + lo];
            }
            proc.compute_at(static_cast<double>(m), proc.cost().t_mem);
          } else {
            RhsPacket& pkt = scratch.out[static_cast<std::size_t>(dr)];
            pkt.positions.push_back(cpos);
            for (index_t col = 0; col < m; ++col) {
              pkt.values.push_back(wv[col * nloc + lo]);
            }
          }
        }
        flush_packets(proc, cg, tag_bw_copy(c), m, scratch.out);
      }
    }
  };

  return {machine.run(spmd)};
}

std::pair<PhaseReport, PhaseReport> DistributedTrisolver::solve(
    exec::Comm& machine, std::span<const real_t> b_in,
    std::span<real_t> x_out, index_t m) const {
  const index_t n = factor_.partition().n();
  std::vector<real_t> y(static_cast<std::size_t>(n * m), 0.0);
  PhaseReport fw = forward(machine, b_in, y, m);
  PhaseReport bw = backward(machine, y, x_out, m);
  return {fw, bw};
}

}  // namespace sparts::partrisolve
