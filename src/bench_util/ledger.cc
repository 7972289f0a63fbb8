#include "bench_util/ledger.h"

namespace wcoj {

CellCheck CheckCell(const std::vector<CellRun>& runs, double bound) {
  CellCheck check;
  const ExecResult* first = nullptr;
  for (const CellRun& run : runs) {
    if (!run.result.ok()) continue;
    ++check.answered;
    if (first == nullptr) first = &run.result;
    // The bound is a floating-point LP optimum; allow its rounding.
    if (run.result.count != first->count ||
        static_cast<double>(run.result.count) > bound * (1 + 1e-9)) {
      check.agrees = false;
    }
  }
  return check;
}

std::string LedgerRows(const std::string& table, const std::string& cell,
                       const std::vector<CellRun>& runs) {
  std::string out;
  for (const CellRun& run : runs) {
    const ExecResult& r = run.result;
    const EngineStats& s = r.stats;
    std::vector<std::string> fields = {
        table, cell, run.name, StatusCodeName(r.status.code()),
        r.ok() ? std::to_string(r.count) : "-"};
    for (const uint64_t counter :
         {s.seeks, s.constraints_inserted, s.free_tuples, s.gap_cache_hits,
          s.intermediate_tuples}) {
      fields.push_back(r.ok() && run.repeatable_counters
                           ? std::to_string(counter)
                           : "-");
    }
    for (const std::string& field : fields) out += field + "\t";
    out.back() = '\n';
  }
  return out;
}

}  // namespace wcoj
