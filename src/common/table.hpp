// Aligned ASCII table printer used by the benchmark harness to reproduce the
// paper's tables (Figs. 5 and 7) in a readable fixed-width layout.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace sparts {

/// Builds a column-aligned text table.  Cells are strings; numeric helpers
/// format with fixed precision.  Rows may be separators.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Begin a new row; subsequent add() calls fill its cells left to right.
  void new_row();

  /// Append a cell to the current row.
  void add(std::string cell);
  void add(double v, int precision = 3);
  void add(long long v);
  void add_int(long long v) { add(v); }

  /// Insert a horizontal rule after the current row.
  void add_rule();

  /// Render with single-space-padded columns and a header rule.
  std::string str() const;

  /// Render directly to a stream.
  friend std::ostream& operator<<(std::ostream& os, const TextTable& t);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::size_t> rules_;  // row indices after which to draw a rule
};

/// Format `v` with `precision` digits after the point.
std::string format_fixed(double v, int precision);

/// Format `v` in scientific notation with `precision` digits after the
/// point, e.g. 1.2345e-15 -> "1.23e-15": for values such as residuals
/// that a fixed format would print as zero.
std::string format_sci(double v, int precision);

/// Human-readable count, e.g. 1234567 -> "1.23M".
std::string format_si(double v);

}  // namespace sparts
