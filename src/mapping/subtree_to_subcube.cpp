#include "mapping/subtree_to_subcube.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/checks.hpp"
#include "common/error.hpp"
#include "ordering/etree.hpp"

namespace sparts::mapping {

index_t SubcubeMapping::level(index_t s) const {
  const index_t q = group[static_cast<std::size_t>(s)].count;
  return static_cast<index_t>(
      std::bit_width(static_cast<std::uint64_t>(p / q)) - 1);
}

void SubcubeMapping::check_consistent(
    const symbolic::SupernodePartition& part) const {
  const index_t nsup = part.num_supernodes();
  SPARTS_CHECK(static_cast<index_t>(group.size()) == nsup,
               "[subcube-mapping] mapping must cover all " << nsup
                   << " supernodes");
  for (index_t s = 0; s < nsup; ++s) {
    const exec::Group& g = group[static_cast<std::size_t>(s)];
    SPARTS_CHECK(g.count >= 1 && (g.count & (g.count - 1)) == 0,
                 "[subcube-mapping] group size of supernode "
                     << s << " must be a power of two, got " << g.count);
    SPARTS_CHECK(g.base >= 0 && g.base + g.count <= p,
                 "[subcube-mapping] group [" << g.base << ", "
                     << g.base + g.count << ") of supernode " << s
                     << " outside the " << p << "-processor machine");
    const index_t parent = part.stree.parent[static_cast<std::size_t>(s)];
    if (parent != -1) {
      const exec::Group& pg = group[static_cast<std::size_t>(parent)];
      SPARTS_CHECK(g.base >= pg.base &&
                       g.base + g.count <= pg.base + pg.count,
                   "[subcube-mapping] child group of supernode "
                       << s << " must be contained in its parent's group");
    }
  }
}

namespace {

void assign_forest(const std::vector<std::vector<index_t>>& children,
                   std::span<const double> subtree_work,
                   const std::vector<index_t>& roots, exec::Group g,
                   std::vector<exec::Group>& out) {
  if (roots.empty()) return;
  if (g.count == 1) {
    // Entire forest is sequential on g.base.
    std::vector<index_t> stack(roots);
    while (!stack.empty()) {
      const index_t s = stack.back();
      stack.pop_back();
      out[static_cast<std::size_t>(s)] = g;
      for (index_t c : children[static_cast<std::size_t>(s)]) {
        stack.push_back(c);
      }
    }
    return;
  }
  if (roots.size() == 1) {
    // A chain keeps the whole subcube; split at the branching below.
    const index_t s = roots.front();
    out[static_cast<std::size_t>(s)] = g;
    assign_forest(children, subtree_work,
                  children[static_cast<std::size_t>(s)], g, out);
    return;
  }
  // Partition the roots into two bins of approximately equal work
  // (greedy LPT) and give each bin half the subcube.
  std::vector<index_t> order(roots);
  std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    const double wa = subtree_work[static_cast<std::size_t>(a)];
    const double wb = subtree_work[static_cast<std::size_t>(b)];
    return wa != wb ? wa > wb : a < b;
  });
  std::vector<index_t> bin0, bin1;
  double w0 = 0.0, w1 = 0.0;
  for (index_t s : order) {
    if (w0 <= w1) {
      bin0.push_back(s);
      w0 += subtree_work[static_cast<std::size_t>(s)];
    } else {
      bin1.push_back(s);
      w1 += subtree_work[static_cast<std::size_t>(s)];
    }
  }
  const index_t half = g.count / 2;
  assign_forest(children, subtree_work, bin0, exec::Group{g.base, half},
                out);
  assign_forest(children, subtree_work, bin1,
                exec::Group{g.base + half, half}, out);
}

}  // namespace

SubcubeMapping subtree_to_subcube(const symbolic::SupernodePartition& part,
                                  index_t p, std::span<const double> work) {
  SPARTS_CHECK(p >= 1 && (p & (p - 1)) == 0,
               "processor count must be a power of two");
  const index_t nsup = part.num_supernodes();
  SPARTS_CHECK(static_cast<index_t>(work.size()) == nsup);

  auto children = ordering::tree_children(part.stree);

  // Subtree work via one bottom-up sweep (ascending order is topological).
  std::vector<double> subtree_work(work.begin(), work.end());
  for (index_t s = 0; s < nsup; ++s) {
    const index_t parent = part.stree.parent[static_cast<std::size_t>(s)];
    if (parent != -1) {
      subtree_work[static_cast<std::size_t>(parent)] +=
          subtree_work[static_cast<std::size_t>(s)];
    }
  }

  std::vector<index_t> roots;
  for (index_t s = 0; s < nsup; ++s) {
    if (part.stree.parent[static_cast<std::size_t>(s)] == -1) {
      roots.push_back(s);
    }
  }

  SubcubeMapping m;
  m.p = p;
  m.group.assign(static_cast<std::size_t>(nsup), exec::Group{0, 1});
  assign_forest(children, subtree_work, roots, exec::Group{0, p},
                m.group);
  SPARTS_VALIDATE_EXPENSIVE(m.check_consistent(part));
  return m;
}

SubcubeMapping subtree_to_subcube(const symbolic::SupernodePartition& part,
                                  index_t p) {
  const std::vector<double> w = solve_work_weights(part);
  return subtree_to_subcube(part, p, w);
}

std::vector<exec::Group> subtree_to_subcube_tree(
    const ordering::EliminationTree& tree, index_t p,
    std::span<const double> work) {
  SPARTS_CHECK(p >= 1 && (p & (p - 1)) == 0,
               "processor count must be a power of two");
  const index_t n = tree.n();
  SPARTS_CHECK(static_cast<index_t>(work.size()) == n);
  auto children = ordering::tree_children(tree);
  std::vector<double> subtree_work(work.begin(), work.end());
  // Ascending order is topological only if parents have larger ids; our
  // orderings guarantee it, but fall back to a postorder sweep otherwise.
  for (index_t v : ordering::postorder(tree)) {
    const index_t parent = tree.parent[static_cast<std::size_t>(v)];
    if (parent != -1) {
      subtree_work[static_cast<std::size_t>(parent)] +=
          subtree_work[static_cast<std::size_t>(v)];
    }
  }
  std::vector<index_t> roots;
  for (index_t v = 0; v < n; ++v) {
    if (tree.parent[static_cast<std::size_t>(v)] == -1) roots.push_back(v);
  }
  std::vector<exec::Group> out(static_cast<std::size_t>(n),
                                 exec::Group{0, 1});
  assign_forest(children, subtree_work, roots, exec::Group{0, p}, out);
  return out;
}

std::vector<double> solve_work_weights(
    const symbolic::SupernodePartition& part, index_t m) {
  std::vector<double> w(static_cast<std::size_t>(part.num_supernodes()));
  for (index_t s = 0; s < part.num_supernodes(); ++s) {
    w[static_cast<std::size_t>(s)] =
        static_cast<double>(part.solve_flops(s, m));
  }
  return w;
}

std::vector<double> factor_work_weights(
    const symbolic::SupernodePartition& part) {
  std::vector<double> w(static_cast<std::size_t>(part.num_supernodes()));
  for (index_t s = 0; s < part.num_supernodes(); ++s) {
    const double t = static_cast<double>(part.width(s));
    const double ns = static_cast<double>(part.height(s));
    // Partial dense Cholesky of an ns x t panel + Schur complement.
    w[static_cast<std::size_t>(s)] =
        ns * t * t - 2.0 * t * t * t / 3.0 + (ns - t) * (ns - t) * t;
  }
  return w;
}

}  // namespace sparts::mapping
