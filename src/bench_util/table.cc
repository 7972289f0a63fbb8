#include "bench_util/table.h"

#include <cmath>
#include <cstdio>
#include <iostream>

namespace wcoj {

TextTable::TextTable(std::vector<std::string> header) {
  rows_.push_back(std::move(header));
}

void TextTable::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

std::string TextTable::ToString() const {
  std::vector<size_t> widths;
  for (const auto& row : rows_) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  for (size_t r = 0; r < rows_.size(); ++r) {
    for (size_t c = 0; c < rows_[r].size(); ++c) {
      const std::string& cell = rows_[r][c];
      if (c == 0) {
        out += cell + std::string(widths[c] - cell.size(), ' ');
      } else {
        out += "  " + std::string(widths[c] - cell.size(), ' ') + cell;
      }
    }
    out += "\n";
    if (r == 0) {
      size_t total = 0;
      for (size_t c = 0; c < widths.size(); ++c) {
        total += widths[c] + (c ? 2 : 0);
      }
      out += std::string(total, '-') + "\n";
    }
  }
  return out;
}

void TextTable::Print() const { std::cout << ToString() << std::flush; }

std::string FormatSeconds(double seconds, const Status& outcome) {
  if (!outcome.ok()) return "-";
  char buf[32];
  if (seconds < 0.01) {
    std::snprintf(buf, sizeof(buf), "%.4f", seconds);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3f", seconds);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", seconds);
  }
  return buf;
}

std::string FormatRatio(double ratio) {
  if (!std::isfinite(ratio)) return "inf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ratio);
  return buf;
}

}  // namespace wcoj
