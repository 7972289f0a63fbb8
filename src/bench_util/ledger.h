#ifndef WCOJ_BENCH_UTIL_LEDGER_H_
#define WCOJ_BENCH_UTIL_LEDGER_H_

// The paper-table answer ledger. A cell is one query on one dataset and
// sample; its runs (engines, GAOs or partition granularities) must all
// give the same count. The ledger holds one TSV row per run: status,
// count and deterministic work counters, never seconds, so two runs of
// the same cells diff exactly.

#include <cmath>
#include <string>
#include <vector>

#include "core/engine.h"

namespace wcoj {

struct CellRun {
  std::string name;  // engine, GAO ("abcde") or granularity ("f=4")
  ExecResult result;
  // Partitioned runs do not repeat their work counters (which morsels a
  // worker's warm CDS has seen depends on which worker claims which
  // morsel): count only.
  bool repeatable_counters = true;
};

struct CellCheck {
  int answered = 0;    // runs that returned OK
  bool agrees = true;  // every answer equal, and none above the bound
};

// Only an OK run answers: a refusal, a deadline or a budget expiry does
// not. `bound` is an upper bound on the true count (the AGM bound).
CellCheck CheckCell(const std::vector<CellRun>& runs, double bound = HUGE_VAL);

// The column names, then one newline-terminated row per run.
inline constexpr char kLedgerHeader[] =
    "table\tcell\trun\tstatus\tcount\tseeks\tconstraints_inserted\t"
    "free_tuples\tgap_cache_hits\tintermediate_tuples\n";
std::string LedgerRows(const std::string& table, const std::string& cell,
                       const std::vector<CellRun>& runs);

}  // namespace wcoj

#endif  // WCOJ_BENCH_UTIL_LEDGER_H_
