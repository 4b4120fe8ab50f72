// common/ utilities: error machinery, table formatting, timers.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

namespace sparts {
namespace {

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    SPARTS_CHECK(1 == 2, "custom message " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom message 42"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Error, HierarchyIsCatchable) {
  EXPECT_THROW(throw InvalidArgument("x"), Error);
  EXPECT_THROW(throw NumericalError("x"), Error);
  EXPECT_THROW(throw IoError("x"), Error);
  EXPECT_THROW(throw DeadlockError("x"), Error);
}

TEST(Table, AlignsColumnsAndRules) {
  TextTable t({"name", "value"});
  t.new_row();
  t.add("alpha");
  t.add(static_cast<long long>(7));
  t.add_rule();
  t.new_row();
  t.add("bb");
  t.add(3.14159, 2);
  const std::string s = t.str();
  // Header, rule, row, rule, row.
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  // Column alignment: every line has the same length.
  std::size_t first_len = s.find('\n');
  for (std::size_t pos = 0; pos < s.size();) {
    const std::size_t nl = s.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);
    EXPECT_EQ(nl - pos, first_len) << "ragged line: '"
                                   << s.substr(pos, nl - pos) << "'";
    pos = nl + 1;
  }
}

TEST(Table, RejectsOverfullRow) {
  TextTable t({"only"});
  t.new_row();
  t.add("a");
  EXPECT_THROW(t.add("b"), Error);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_sci(1.2345e-15, 2), "1.23e-15");
  EXPECT_EQ(format_sci(0.0, 2), "0.00e+00");
  EXPECT_EQ(format_si(1'500'000.0), "1.50M");
  EXPECT_EQ(format_si(2'000'000'000.0), "2.00G");
  EXPECT_EQ(format_si(999.0), "999.00");
  EXPECT_EQ(format_si(1200.0), "1.20K");
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s1 = t.seconds();
  EXPECT_GE(s1, 0.015);
  t.reset();
  EXPECT_LT(t.seconds(), s1);
}

}  // namespace
}  // namespace sparts
