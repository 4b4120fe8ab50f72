#include "common/table.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace sparts {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  SPARTS_CHECK(!headers_.empty(), "table needs at least one column");
}

void TextTable::new_row() { rows_.emplace_back(); }

void TextTable::add(std::string cell) {
  SPARTS_CHECK(!rows_.empty(), "call new_row() before add()");
  SPARTS_CHECK(rows_.back().size() < headers_.size(),
               "row has more cells than headers");
  rows_.back().push_back(std::move(cell));
}

void TextTable::add(double v, int precision) {
  add(format_fixed(v, precision));
}

void TextTable::add(long long v) { add(std::to_string(v)); }

void TextTable::add_rule() { rules_.push_back(rows_.size()); }

std::string TextTable::str() const {
  const std::size_t ncols = headers_.size();
  std::vector<std::size_t> width(ncols);
  for (std::size_t c = 0; c < ncols; ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  std::ostringstream oss;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < ncols; ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      oss << std::setw(static_cast<int>(width[c])) << cell;
      if (c + 1 < ncols) oss << "  ";
    }
    oss << '\n';
  };
  auto emit_rule = [&] {
    for (std::size_t c = 0; c < ncols; ++c) {
      oss << std::string(width[c], '-');
      if (c + 1 < ncols) oss << "--";
    }
    oss << '\n';
  };

  emit_row(headers_);
  emit_rule();
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    emit_row(rows_[r]);
    if (std::find(rules_.begin(), rules_.end(), r + 1) != rules_.end()) {
      emit_rule();
    }
  }
  return oss.str();
}

std::ostream& operator<<(std::ostream& os, const TextTable& t) {
  return os << t.str();
}

std::string format_fixed(double v, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << v;
  return oss.str();
}

std::string format_sci(double v, int precision) {
  std::ostringstream oss;
  oss << std::scientific << std::setprecision(precision) << v;
  return oss.str();
}

std::string format_si(double v) {
  const char* suffix = "";
  double scaled = v;
  if (std::abs(v) >= 1e9) {
    scaled = v / 1e9;
    suffix = "G";
  } else if (std::abs(v) >= 1e6) {
    scaled = v / 1e6;
    suffix = "M";
  } else if (std::abs(v) >= 1e3) {
    scaled = v / 1e3;
    suffix = "K";
  }
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(2) << scaled << suffix;
  return oss.str();
}

}  // namespace sparts
