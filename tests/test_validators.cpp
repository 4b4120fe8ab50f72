// Tests for the structural-invariant validators (SPARTS_CHECKS system):
// every corruption is rejected with a diagnostic naming the violated
// invariant as a bracketed [invariant-name] tag, and the runtime check
// level actually gates the expensive passes.  Registered under the CTest
// label `analysis`.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/checks.hpp"
#include "common/error.hpp"
#include "ordering/etree.hpp"
#include "partrisolve/layout.hpp"
#include "sparse/formats.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"
#include "sparse/validate.hpp"

namespace sparts {
namespace {

/// Pin the check level for one test and restore the previous one on exit
/// (set_check_level overrides the environment, so tests must not leak it).
class ScopedCheckLevel {
 public:
  explicit ScopedCheckLevel(CheckLevel level) : saved_(check_level()) {
    set_check_level(level);
  }
  ~ScopedCheckLevel() { set_check_level(saved_); }
  ScopedCheckLevel(const ScopedCheckLevel&) = delete;
  ScopedCheckLevel& operator=(const ScopedCheckLevel&) = delete;

 private:
  CheckLevel saved_;
};

/// Expect `fn` to throw sparts::Error whose message contains `tag`.
template <typename Fn>
void expect_invariant_violation(Fn&& fn, const std::string& tag) {
  try {
    fn();
    FAIL() << "expected Error tagged " << tag;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(tag), std::string::npos)
        << "wrong diagnostic: " << e.what();
  }
}

TEST(Validators, UnsortedCscColumnRejected) {
  // Column 0 holds rows {0, 2, 1}: diagonal first, but then descending.
  const std::vector<nnz_t> colptr = {0, 3, 4, 5};
  const std::vector<index_t> rowind = {0, 2, 1, 1, 2};
  expect_invariant_violation(
      [&] { sparse::validate_csc(3, colptr, rowind, 5); },
      "[csc-sortedness]");
}

TEST(Validators, OutOfRangeCscRowRejected) {
  // Column 0 references row 5 of a 3x3 matrix.
  const std::vector<nnz_t> colptr = {0, 2, 3, 4};
  const std::vector<index_t> rowind = {0, 5, 1, 2};
  expect_invariant_violation(
      [&] { sparse::validate_csc(3, colptr, rowind, 4); }, "[csc-bounds]");
}

TEST(Validators, MissingDiagonalRejected) {
  // Column 1's first stored row is 2, not the diagonal.
  const std::vector<nnz_t> colptr = {0, 1, 2, 3};
  const std::vector<index_t> rowind = {0, 2, 2};
  expect_invariant_violation(
      [&] { sparse::validate_csc(3, colptr, rowind, 3); }, "[csc-diagonal]");
}

TEST(Validators, SymmetricCscConstructorValidatesAtCheapLevel) {
  ScopedCheckLevel guard(CheckLevel::cheap);
  const std::vector<nnz_t> colptr = {0, 3, 4, 5};
  const std::vector<index_t> rowind = {0, 2, 1, 1, 2};
  const std::vector<real_t> values = {4.0, -1.0, -1.0, 4.0, 4.0};
  expect_invariant_violation(
      [&] { sparse::SymmetricCsc(3, colptr, rowind, values); },
      "[csc-sortedness]");
}

TEST(Validators, CheckLevelOffSkipsGatedValidation) {
  // Same corrupted arrays as above: with checks off, only the O(1)
  // unconditional shape checks run and construction succeeds.  This is
  // the benchmark-mode contract — validation cost is really gone.
  ScopedCheckLevel guard(CheckLevel::off);
  const std::vector<nnz_t> colptr = {0, 3, 4, 5};
  const std::vector<index_t> rowind = {0, 2, 1, 1, 2};
  const std::vector<real_t> values = {4.0, -1.0, -1.0, 4.0, 4.0};
  EXPECT_NO_THROW(sparse::SymmetricCsc(3, colptr, rowind, values));
}

TEST(Validators, NonBijectivePermutationRejected) {
  expect_invariant_violation(
      [] { sparse::Permutation(std::vector<index_t>{0, 0, 2}); },
      "[permutation-bijectivity]");
  expect_invariant_violation(
      [] { sparse::Permutation(std::vector<index_t>{0, 3, 1}); },
      "[permutation-bijectivity]");
}

TEST(Validators, CyclicEtreeRejected) {
  ordering::EliminationTree t;
  t.parent = {1, 2, 0};  // 0 -> 1 -> 2 -> 0
  expect_invariant_violation([&] { ordering::validate_etree(t); },
                             "[etree-acyclicity]");
}

TEST(Validators, EtreeParentOutOfRangeRejected) {
  ordering::EliminationTree t;
  t.parent = {1, 7};
  expect_invariant_violation([&] { ordering::validate_etree(t); },
                             "[etree-bounds]");
}

TEST(Validators, NonPostorderRejected) {
  // parent = {1, -1}: the only postorder is {0, 1}; {1, 0} visits the
  // root before its child.
  ordering::EliminationTree t;
  t.parent = {1, -1};
  const std::vector<index_t> bad = {1, 0};
  expect_invariant_violation([&] { ordering::validate_postorder(t, bad); },
                             "[postorder-consistency]");
  const std::vector<index_t> good = {0, 1};
  EXPECT_NO_THROW(ordering::validate_postorder(t, good));
}

TEST(Validators, ValidStructuresPass) {
  // A real matrix and its derived structures sail through the expensive
  // level: validators reject corruption, not correct data.
  ScopedCheckLevel guard(CheckLevel::expensive);
  const sparse::SymmetricCsc a = sparse::grid2d(8, 8);
  EXPECT_NO_THROW(sparse::validate_symmetric_csc(a));
  const ordering::EliminationTree t = ordering::elimination_tree(a);
  EXPECT_NO_THROW(ordering::validate_etree(t));
  EXPECT_NO_THROW(ordering::validate_postorder(t, ordering::postorder(t)));
  const partrisolve::Layout map{/*q=*/4, /*b=*/4, /*ns=*/a.n(), /*t=*/0};
  EXPECT_NO_THROW(partrisolve::validate_block_cyclic(map));
}

TEST(Validators, BlockCyclicShapeRejected) {
  const partrisolve::Layout map{/*q=*/4, /*b=*/0, /*ns=*/16, /*t=*/0};
  expect_invariant_violation([&] { partrisolve::validate_block_cyclic(map); },
                             "[block-cyclic-shape]");
}

TEST(CheckLevels, ParseAcceptsNamesAndDigits) {
  EXPECT_EQ(parse_check_level("off"), CheckLevel::off);
  EXPECT_EQ(parse_check_level("cheap"), CheckLevel::cheap);
  EXPECT_EQ(parse_check_level("expensive"), CheckLevel::expensive);
  EXPECT_EQ(parse_check_level("0"), CheckLevel::off);
  EXPECT_EQ(parse_check_level("1"), CheckLevel::cheap);
  EXPECT_EQ(parse_check_level("2"), CheckLevel::expensive);
  EXPECT_THROW(parse_check_level("paranoid"), InvalidArgument);
}

TEST(CheckLevels, ToStringNamesLevels) {
  EXPECT_STREQ(to_string(CheckLevel::off), "off");
  EXPECT_STREQ(to_string(CheckLevel::cheap), "cheap");
  EXPECT_STREQ(to_string(CheckLevel::expensive), "expensive");
}

TEST(CheckLevels, AtLeastIsMonotone) {
  ScopedCheckLevel guard(CheckLevel::cheap);
  EXPECT_TRUE(checks_at_least(CheckLevel::off));
  EXPECT_TRUE(checks_at_least(CheckLevel::cheap));
  EXPECT_FALSE(checks_at_least(CheckLevel::expensive));
}

}  // namespace
}  // namespace sparts
