// Tests for functional-dependency and lossless-join checks.

#include "evolution/fd.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace cods {
namespace {

using ::cods::testing::Figure1TableR;
using ::cods::testing::MakeTable;

TEST(Fd, HoldsOnFigure1) {
  auto r = Figure1TableR();
  // Employee -> Address holds in Figure 1.
  EXPECT_TRUE(FunctionalDependencyHolds(*r, {"Employee"}, {"Address"})
                  .ValueOrDie());
  // Employee -> Skill does not (Jones has three skills).
  EXPECT_FALSE(FunctionalDependencyHolds(*r, {"Employee"}, {"Skill"})
                   .ValueOrDie());
  // Address -> Employee does not (two employees share an address).
  EXPECT_FALSE(FunctionalDependencyHolds(*r, {"Address"}, {"Employee"})
                   .ValueOrDie());
}

TEST(Fd, CompositeLhs) {
  auto r = Figure1TableR();
  EXPECT_TRUE(FunctionalDependencyHolds(*r, {"Employee", "Skill"},
                                        {"Address"})
                  .ValueOrDie());
}

TEST(Fd, ErrorsOnBadInput) {
  auto r = Figure1TableR();
  EXPECT_FALSE(FunctionalDependencyHolds(*r, {}, {"Address"}).ok());
  EXPECT_FALSE(FunctionalDependencyHolds(*r, {"Nope"}, {"Address"}).ok());
}

TEST(CandidateKey, DetectsKeysAndNonKeys) {
  auto r = Figure1TableR();
  // (Employee, Skill) is unique in Figure 1; Employee alone is not.
  EXPECT_TRUE(IsCandidateKey(*r, {"Employee", "Skill"}).ValueOrDie());
  EXPECT_FALSE(IsCandidateKey(*r, {"Employee"}).ValueOrDie());
  EXPECT_FALSE(IsCandidateKey(*r, {}).ok());
}

TEST(LosslessCheck, Figure1DecompositionIsLossless) {
  auto r = Figure1TableR();
  // S(Employee, Skill), T(Employee, Address): common attr Employee is a
  // key of T -> S unchanged (+1).
  int side = CheckLosslessDecomposition(*r, {"Employee", "Skill"},
                                        {"Employee", "Address"})
                 .ValueOrDie();
  EXPECT_EQ(side, +1);
  // Swapping the argument order flips the unchanged side.
  side = CheckLosslessDecomposition(*r, {"Employee", "Address"},
                                    {"Employee", "Skill"})
             .ValueOrDie();
  EXPECT_EQ(side, -1);
}

TEST(LosslessCheck, RejectsLossyDecomposition) {
  // Skill <-> Address share nothing functionally: splitting on Employee
  // fails when neither side is determined.
  Schema schema({{"A", DataType::kInt64},
                 {"B", DataType::kInt64},
                 {"C", DataType::kInt64}},
                {});
  auto t = MakeTable(
      "X", schema,
      {{Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{1})},
       {Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{2})},
       {Value(int64_t{1}), Value(int64_t{3}), Value(int64_t{3})}});
  // Common attr A maps to several B and several C: lossy.
  Status st =
      CheckLosslessDecomposition(*t, {"A", "B"}, {"A", "C"}).status();
  EXPECT_TRUE(st.IsConstraintViolation()) << st.ToString();
}

TEST(LosslessCheck, RejectsMissingCoverageAndEmptyIntersection) {
  auto r = Figure1TableR();
  EXPECT_TRUE(CheckLosslessDecomposition(*r, {"Employee"}, {"Address"})
                  .status()
                  .IsConstraintViolation());  // Skill not covered
  EXPECT_TRUE(CheckLosslessDecomposition(*r, {"Employee", "Skill"},
                                         {"Address"})
                  .status()
                  .IsConstraintViolation());  // no common attrs
}

TEST(LosslessCheck, TrivialChangedSideIsJustTheKey) {
  auto r = Figure1TableR();
  // T = (Employee) alone: vacuously determined.
  EXPECT_EQ(CheckLosslessDecomposition(
                *r, {"Employee", "Skill", "Address"}, {"Employee"})
                .ValueOrDie(),
            +1);
}

}  // namespace
}  // namespace cods
