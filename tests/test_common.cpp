// common/ utilities: error machinery, table formatting, timers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "common/arena.hpp"
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
  EXPECT_EQ(format_si(1'500'000.0), "1.50M");
  EXPECT_EQ(format_si(2'000'000'000.0), "2.00G");
  EXPECT_EQ(format_si(999.0), "999.00");
  EXPECT_EQ(format_si(1200.0), "1.20K");
}

TEST(Arena, HeapFallbackPayloadsAreCacheLineAligned) {
  // With the arena off, every block comes from operator new behind the
  // 64-byte header, and its payload keeps the arena's 64-byte alignment.
  const bool was_on = common::arena_enabled();
  common::arena_force_enabled_for_test(false);
  std::vector<std::size_t> sizes;
  for (std::size_t bytes = 1; bytes < (std::size_t{3} << 20);
       bytes = 2 * bytes + 1) {
    sizes.push_back(bytes);
  }
  sizes.push_back(std::size_t{3} << 20);
  std::vector<void*> blocks;
  for (const std::size_t bytes : sizes) {
    void* p = common::arena_alloc(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u) << bytes;
    std::memset(p, 0x5a, bytes);
    blocks.push_back(p);
  }
  for (void* p : blocks) common::arena_free(p);
  common::arena_force_enabled_for_test(was_on);
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
