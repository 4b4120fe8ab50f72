#include "solver/report.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/table.hpp"
#include "mapping/load_balance.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "ordering/etree.hpp"
#include "exec/cost_model.hpp"

namespace sparts::solver {

namespace {

/// Rough simulated-solve projection from the T3D cost model: work term +
/// per-level pipeline startups — the model of paper Eq. (1)/(2) with the
/// library's calibrated constants.  Not a simulation; a planning estimate.
double projected_solve_seconds(const symbolic::SupernodePartition& part,
                               const mapping::SubcubeMapping& map,
                               index_t m) {
  const exec::CostModel cost = exec::CostModel::t3d();
  const auto weights = mapping::solve_work_weights(part, m);
  const mapping::LoadBalance lb =
      mapping::analyze_load_balance(part, map, weights);
  double t = 2.0 * lb.max_work * cost.panel_flop(m);  // forward + backward

  // Pipeline and transfer startups at the shared levels.
  for (index_t s = 0; s < part.num_supernodes(); ++s) {
    const auto& g = map.group[static_cast<std::size_t>(s)];
    if (g.count < 2) continue;
    const double tokens =
        std::ceil(static_cast<double>(part.width(s)) / 8.0);
    t += 2.0 * (static_cast<double>(g.count) + tokens) *
         (cost.t_s + 8.0 * static_cast<double>(m) * cost.t_w) /
         static_cast<double>(g.count);
  }
  return t;
}

}  // namespace

void write_analysis_report(const SparseSolver& solver,
                           const ReportOptions& options, std::ostream& out) {
  const auto& part = solver.partition();
  const auto& info = solver.info();
  const index_t n = part.n();

  out << "=== SPARTS analysis report ===\n\n";
  out << "matrix:            N = " << n
      << ", nnz(A, lower) = " << solver.permuted_matrix().nnz_lower() << "\n";
  out << "factor:            nnz(L) = " << info.factor_nnz << " ("
      << format_fixed(static_cast<double>(info.factor_nnz) /
                          static_cast<double>(
                              solver.permuted_matrix().nnz_lower()),
                      1)
      << "x fill), flops = "
      << format_si(static_cast<double>(info.factor_flops)) << "\n";
  out << "solve cost:        "
      << format_si(static_cast<double>(info.solve_flops_per_rhs))
      << " flops per right-hand side\n";

  // Supernode statistics.
  const index_t nsup = part.num_supernodes();
  index_t max_width = 0, max_height = 0;
  double avg_width = 0.0;
  for (index_t s = 0; s < nsup; ++s) {
    max_width = std::max(max_width, part.width(s));
    max_height = std::max(max_height, part.height(s));
    avg_width += static_cast<double>(part.width(s));
  }
  avg_width /= static_cast<double>(nsup);
  out << "supernodes:        " << nsup << " (avg width "
      << format_fixed(avg_width, 1) << ", max width " << max_width
      << ", max height " << max_height << ")\n";
  out << "tree height:       " << ordering::tree_height(part.stree)
      << " supernodes\n";

  // Supernode width histogram.
  {
    const index_t buckets[] = {1, 2, 4, 8, 16, 32, 64};
    std::vector<index_t> hist(std::size(buckets) + 1, 0);
    for (index_t s = 0; s < nsup; ++s) {
      const index_t w = part.width(s);
      std::size_t b = 0;
      while (b < std::size(buckets) && w > buckets[b]) ++b;
      ++hist[b];
    }
    out << "width histogram:   ";
    for (std::size_t b = 0; b < hist.size(); ++b) {
      if (b < std::size(buckets)) {
        out << "<=" << buckets[b];
      } else {
        out << ">" << buckets[std::size(buckets) - 1];
      }
      out << ":" << hist[b] << "  ";
    }
    out << "\n";
  }

  if (!options.run_projections) return;

  out << "\nparallel projections (T3D cost model, nrhs = " << options.nrhs
      << "):\n";
  TextTable table({"p", "load imbalance", "projected solve (s)",
                   "projected speedup"});
  const auto weights = mapping::solve_work_weights(part, options.nrhs);
  double t1 = 0.0;
  for (index_t p = 1; p <= options.max_p; p *= 4) {
    const mapping::SubcubeMapping map =
        mapping::subtree_to_subcube(part, p, weights);
    const mapping::LoadBalance lb =
        mapping::analyze_load_balance(part, map, weights);
    const double t = projected_solve_seconds(part, map, options.nrhs);
    if (p == 1) t1 = t;
    table.new_row();
    table.add(static_cast<long long>(p));
    table.add(lb.imbalance(), 2);
    table.add(t, 4);
    table.add(t1 / t, 2);
  }
  out << table.str();
}

std::string analysis_report(const SparseSolver& solver,
                            const ReportOptions& options) {
  std::ostringstream oss;
  write_analysis_report(solver, options, oss);
  return oss.str();
}

}  // namespace sparts::solver
