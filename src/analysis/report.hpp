// v6t::analysis — plain-text report rendering.
//
// The paper report, v6t_run and the examples print their tables through
// TextTable, so the output lines up with the paper's rows and stays
// grep-able.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace v6t::analysis {

class TextTable {
public:
  explicit TextTable(std::vector<std::string> header);

  /// Append one row; must match the header arity.
  void addRow(std::vector<std::string> cells);

  /// Append a visual separator line.
  void addSeparator();

  void render(std::ostream& out) const;
  [[nodiscard]] std::string toString() const;

  [[nodiscard]] std::size_t rowCount() const { return rows_.size(); }

private:
  std::size_t columns_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_; // empty vector = separator
};

/// Number formatting helpers used throughout the reports.
[[nodiscard]] std::string withThousands(std::uint64_t value);
[[nodiscard]] std::string fixed(double value, int decimals = 2);

/// A labelled horizontal bar for ASCII "figures".
[[nodiscard]] std::string bar(double value, double maxValue, int width = 40);

/// Flag a cell whose time window overlaps a declared capture outage:
/// degraded numbers are marked "<cell> !gap", never silently blended in
/// with clean windows (graceful degradation under fault injection).
[[nodiscard]] std::string gapFlagged(std::string cell, bool overlapsGap);

} // namespace v6t::analysis
