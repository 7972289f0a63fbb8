#include <gtest/gtest.h>

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

}  // namespace
}  // namespace wcoj
