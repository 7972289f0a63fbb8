#ifndef WCOJ_BENCH_UTIL_TABLE_H_
#define WCOJ_BENCH_UTIL_TABLE_H_

// Paper-style ASCII tables for the benchmark harnesses: right-aligned
// cells, a "-" for timeouts, and second/ratio formatting that matches the
// granularity the paper reports.

#include <string>
#include <vector>

#include "util/status.h"

namespace wcoj {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);
  std::string ToString() const;
  void Print() const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

// Seconds with adaptive precision; "-" when the run failed, e.g. timed
// out (like the paper).
std::string FormatSeconds(double seconds, const Status& outcome);
// Speedup ratios with 2 decimals; "inf" for thrashing (paper's ∞).
std::string FormatRatio(double ratio);

}  // namespace wcoj

#endif  // WCOJ_BENCH_UTIL_TABLE_H_
