// Tests for logical operations on compressed bitmaps, including the
// fill-skipping fast paths, verified against the plain-bitmap oracle.

#include "bitmap/wah_ops.h"

#include "bitmap/plain_bitmap.h"
#include "common/random.h"
#include "gtest/gtest.h"

namespace cods {
namespace {

WahBitmap RandomWah(uint64_t size, double density, uint64_t seed) {
  Rng rng(seed);
  WahBitmap bm;
  for (uint64_t i = 0; i < size; ++i) bm.AppendBit(rng.NextBool(density));
  return bm;
}

TEST(WahOps, AndBasic) {
  WahBitmap a = WahBitmap::FromPositions({1, 2, 3, 100}, 200);
  WahBitmap b = WahBitmap::FromPositions({2, 3, 4, 150}, 200);
  WahBitmap c = WahAnd(a, b);
  EXPECT_EQ(c.SetPositions(), (std::vector<uint64_t>{2, 3}));
}

TEST(WahOps, OrBasic) {
  WahBitmap a = WahBitmap::FromPositions({1, 100}, 200);
  WahBitmap b = WahBitmap::FromPositions({2, 150}, 200);
  WahBitmap c = WahOr(a, b);
  EXPECT_EQ(c.SetPositions(), (std::vector<uint64_t>{1, 2, 100, 150}));
}

TEST(WahOps, NotFlipsEverything) {
  WahBitmap a = WahBitmap::FromPositions({0, 99}, 100);
  WahBitmap n = WahNot(a);
  EXPECT_EQ(n.size(), 100u);
  EXPECT_EQ(n.CountOnes(), 98u);
  EXPECT_FALSE(n.Get(0));
  EXPECT_TRUE(n.Get(1));
  EXPECT_FALSE(n.Get(99));
  // Double negation is identity (and representations are canonical).
  EXPECT_EQ(WahNot(n), a);
}

TEST(WahOps, EmptyOperands) {
  WahBitmap a, b;
  EXPECT_EQ(WahAnd(a, b).size(), 0u);
  EXPECT_EQ(WahOr(a, b).size(), 0u);
  EXPECT_EQ(WahNot(a).size(), 0u);
  EXPECT_EQ(WahAndCount(a, b), 0u);
}

TEST(WahOps, ZeroFillSkipsAreTaken) {
  // a is one huge zero fill; AND must stay tiny regardless of b.
  WahBitmap a;
  a.AppendRun(false, 63 * 100000);
  WahBitmap b = RandomWah(63 * 100000, 0.5, 3);
  WahBitmap c = WahAnd(a, b);
  EXPECT_EQ(c.CountOnes(), 0u);
  EXPECT_EQ(c.NumWords(), 1u);  // canonical single zero fill
}

TEST(WahOps, OneFillSaturatesOr) {
  WahBitmap a;
  a.AppendRun(true, 63 * 1000);
  WahBitmap b = RandomWah(63 * 1000, 0.5, 4);
  WahBitmap c = WahOr(a, b);
  EXPECT_EQ(c.CountOnes(), c.size());
  EXPECT_EQ(c.NumWords(), 1u);
}

TEST(WahOps, AndCountMatchesMaterializedAnd) {
  WahBitmap a = RandomWah(5000, 0.3, 5);
  WahBitmap b = RandomWah(5000, 0.3, 6);
  EXPECT_EQ(WahAndCount(a, b), WahAnd(a, b).CountOnes());
}

TEST(WahOpsDeath, SizeMismatchIsFatal) {
  WahBitmap a = WahBitmap::FromPositions({1}, 10);
  WahBitmap b = WahBitmap::FromPositions({1}, 11);
  EXPECT_DEATH(WahAnd(a, b), "different sizes");
}

// ---- Property sweep against the plain oracle. ------------------------------

struct OpsParam {
  uint64_t size;
  double da;
  double db;
};

class WahOpsProperty : public ::testing::TestWithParam<OpsParam> {};

TEST_P(WahOpsProperty, AllOpsMatchOracle) {
  const OpsParam p = GetParam();
  WahBitmap a = RandomWah(p.size, p.da, 100 + p.size);
  WahBitmap b = RandomWah(p.size, p.db, 200 + p.size);
  PlainBitmap pa = PlainBitmap::FromWah(a);
  PlainBitmap pb = PlainBitmap::FromWah(b);

  EXPECT_EQ(WahAnd(a, b), pa.And(pb).ToWah());
  EXPECT_EQ(WahOr(a, b), pa.Or(pb).ToWah());
  EXPECT_EQ(WahAndCount(a, b), pa.And(pb).CountOnes());

  PlainBitmap not_b(p.size);
  for (uint64_t i = 0; i < p.size; ++i) {
    if (!pb.Get(i)) not_b.Set(i);
  }
  EXPECT_EQ(WahNot(b), not_b.ToWah());

  // Algebraic identities.
  EXPECT_EQ(WahAnd(a, a), a);
  EXPECT_EQ(WahOr(a, a), a);
  EXPECT_EQ(WahAnd(a, b), WahAnd(b, a));
  EXPECT_EQ(WahOr(a, b), WahOr(b, a));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WahOpsProperty,
    ::testing::Values(OpsParam{1, 0.5, 0.5}, OpsParam{63, 0.5, 0.5},
                      OpsParam{64, 0.2, 0.8}, OpsParam{1000, 0.0, 0.5},
                      OpsParam{1000, 1.0, 0.5}, OpsParam{1000, 0.5, 0.5},
                      OpsParam{12345, 0.001, 0.9},
                      OpsParam{12345, 0.01, 0.01},
                      OpsParam{70000, 0.0001, 0.5},
                      OpsParam{70000, 0.3, 0.3}),
    [](const ::testing::TestParamInfo<OpsParam>& info) {
      return "n" + std::to_string(info.param.size) + "_a" +
             std::to_string(static_cast<int>(info.param.da * 10000)) + "_b" +
             std::to_string(static_cast<int>(info.param.db * 10000));
    });

}  // namespace
}  // namespace cods
