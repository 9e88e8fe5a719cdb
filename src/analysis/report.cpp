#include "analysis/report.hpp"

#include <algorithm>
#include <sstream>

#include "obs/format.hpp"

namespace v6t::analysis {

TextTable::TextTable(std::vector<std::string> header)
    : columns_(header.size()), header_(std::move(header)) {}

void TextTable::addRow(std::vector<std::string> cells) {
  cells.resize(columns_);
  rows_.push_back(std::move(cells));
}

void TextTable::addSeparator() { rows_.emplace_back(); }

void TextTable::render(std::ostream& out) const {
  std::vector<std::size_t> width(columns_);
  for (std::size_t c = 0; c < columns_; ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto line = [&](char fill) {
    for (std::size_t c = 0; c < columns_; ++c) {
      out << '+' << std::string(width[c] + 2, fill);
    }
    out << "+\n";
  };
  auto renderRow = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < columns_; ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      out << "| " << cell << std::string(width[c] - cell.size() + 1, ' ');
    }
    out << "|\n";
  };
  line('-');
  renderRow(header_);
  line('=');
  for (const auto& row : rows_) {
    if (row.empty()) {
      line('-');
    } else {
      renderRow(row);
    }
  }
  line('-');
}

std::string TextTable::toString() const {
  std::ostringstream out;
  render(out);
  return out.str();
}

std::string withThousands(std::uint64_t value) {
  return obs::fmt::withThousands(value);
}

std::string fixed(double value, int decimals) {
  return obs::fmt::fixed(value, decimals);
}

std::string bar(double value, double maxValue, int width) {
  if (maxValue <= 0.0) return {};
  int filled = static_cast<int>(value / maxValue * width + 0.5);
  filled = std::clamp(filled, 0, width);
  return std::string(static_cast<std::size_t>(filled), '#');
}

std::string gapFlagged(std::string cell, bool overlapsGap) {
  if (overlapsGap) cell += " !gap";
  return cell;
}

} // namespace v6t::analysis
