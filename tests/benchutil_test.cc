#include <gtest/gtest.h>

#include "bench_util/ledger.h"
#include "bench_util/table.h"

namespace wcoj {
namespace {

TEST(FormatTest, SecondsAdaptPrecision) {
  EXPECT_EQ(FormatSeconds(0.00123, Status()), "0.0012");
  EXPECT_EQ(FormatSeconds(0.123, Status()), "0.123");
  EXPECT_EQ(FormatSeconds(12.3456, Status()), "12.35");
  // A failed run wins over its seconds.
  EXPECT_EQ(FormatSeconds(
                1.0, Status(StatusCode::kDeadlineExceeded, "deadline expired")),
            "-");
}

TEST(FormatTest, RatioHandlesInfinity) {
  EXPECT_EQ(FormatRatio(2.345), "2.35");
  EXPECT_EQ(FormatRatio(std::numeric_limits<double>::infinity()), "inf");
}

TEST(TextTableTest, AlignsColumnsAndDrawsRule) {
  TextTable t({"name", "x"});
  t.AddRow({"a", "10"});
  t.AddRow({"long-name", "9"});
  const std::string s = t.ToString();
  // Header, rule, two rows.
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  // Numeric cells right-aligned to the same column end.
  const size_t ten = s.find("10");
  const size_t nine = s.find(" 9\n");
  ASSERT_NE(ten, std::string::npos);
  ASSERT_NE(nine, std::string::npos);
}

TEST(TextTableTest, RaggedRowsDoNotCrash) {
  TextTable t({"a", "b", "c"});
  t.AddRow({"only-one"});
  t.AddRow({"1", "2", "3", "4"});  // extra cell widens the table
  EXPECT_FALSE(t.ToString().empty());
}

CellRun Answered(const std::string& name, uint64_t count) {
  CellRun run{name, {}, true};
  run.result.count = count;
  run.result.stats.seeks = 7;
  return run;
}

CellRun Failed(const std::string& name, StatusCode code) {
  CellRun run{name, {}, true};
  run.result.count = 99;  // partial work, not an answer
  run.result.status = Status(code, "no answer");
  return run;
}

TEST(CheckCellTest, EqualCountsAgree) {
  const CellCheck check =
      CheckCell({Answered("lftj", 5), Answered("ms", 5), Answered("psql", 5)});
  EXPECT_EQ(check.answered, 3);
  EXPECT_TRUE(check.agrees);
}

TEST(CheckCellTest, DisagreeingAnswersAreFlagged) {
  EXPECT_FALSE(CheckCell({Answered("lftj", 5), Answered("ms", 6)}).agrees);
  EXPECT_FALSE(
      CheckCell({Answered("a", 5), Answered("b", 5), Answered("c", 4)}).agrees);
}

TEST(CheckCellTest, OneAnswerLeavesTheCellUnchecked) {
  const CellCheck check = CheckCell({Answered("lftj", 5)});
  EXPECT_EQ(check.answered, 1);
  EXPECT_TRUE(check.agrees);
}

TEST(CheckCellTest, RefusalsAndDeadlinesAreNotAnswers) {
  const CellCheck check = CheckCell(
      {Answered("lftj", 5), Failed("clique", StatusCode::kUnimplemented),
       Failed("ms-noidea7", StatusCode::kDeadlineExceeded)});
  EXPECT_EQ(check.answered, 1);
  EXPECT_TRUE(check.agrees);
  EXPECT_EQ(CheckCell({Failed("ms", StatusCode::kDeadlineExceeded)}).answered,
            0);
}

TEST(CheckCellTest, AnswerAboveTheBoundIsFlagged) {
  EXPECT_TRUE(CheckCell({Answered("lftj", 8), Answered("ms", 8)}, 8.0).agrees);
  EXPECT_FALSE(CheckCell({Answered("lftj", 9), Answered("ms", 9)}, 8.0).agrees);
}

TEST(LedgerTest, RowsCarryCountersOnlyWhereTheyRepeat) {
  CellRun partitioned = Answered("f=4", 5);
  partitioned.repeatable_counters = false;
  EXPECT_EQ(LedgerRows("t", "d/q",
                       {Answered("ms", 5), partitioned,
                        Failed("lftj", StatusCode::kDeadlineExceeded)}),
            "t\td/q\tms\tOK\t5\t7\t0\t0\t0\t0\n"
            "t\td/q\tf=4\tOK\t5\t-\t-\t-\t-\t-\n"
            "t\td/q\tlftj\tDEADLINE_EXCEEDED\t-\t-\t-\t-\t-\t-\n");
}

}  // namespace
}  // namespace wcoj
