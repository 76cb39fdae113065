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

TEST(WahOps, XorBasic) {
  WahBitmap a = WahBitmap::FromPositions({1, 2}, 100);
  WahBitmap b = WahBitmap::FromPositions({2, 3}, 100);
  EXPECT_EQ(WahXor(a, b).SetPositions(), (std::vector<uint64_t>{1, 3}));
}

TEST(WahOps, AndNotBasic) {
  WahBitmap a = WahBitmap::FromPositions({1, 2, 3}, 100);
  WahBitmap b = WahBitmap::FromPositions({2}, 100);
  EXPECT_EQ(WahAndNot(a, b).SetPositions(), (std::vector<uint64_t>{1, 3}));
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
  EXPECT_FALSE(WahIntersects(a, b));
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

TEST(WahOps, IntersectsAgreesWithAndCount) {
  WahBitmap a = WahBitmap::FromPositions({4000}, 5000);
  WahBitmap b = WahBitmap::FromPositions({4000}, 5000);
  WahBitmap c = WahBitmap::FromPositions({4001}, 5000);
  EXPECT_TRUE(WahIntersects(a, b));
  EXPECT_FALSE(WahIntersects(a, c));
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
  EXPECT_EQ(WahXor(a, b), pa.Xor(pb).ToWah());
  EXPECT_EQ(WahAndCount(a, b), pa.And(pb).CountOnes());
  EXPECT_EQ(WahIntersects(a, b), pa.And(pb).CountOnes() > 0);

  // AndNot via oracle: a AND (NOT b).
  PlainBitmap not_b(p.size);
  for (uint64_t i = 0; i < p.size; ++i) {
    if (!pb.Get(i)) not_b.Set(i);
  }
  EXPECT_EQ(WahAndNot(a, b), pa.And(not_b).ToWah());
  EXPECT_EQ(WahNot(b), not_b.ToWah());

  // Algebraic identities.
  EXPECT_EQ(WahAnd(a, a), a);
  EXPECT_EQ(WahOr(a, a), a);
  EXPECT_EQ(WahXor(a, a).CountOnes(), 0u);
  EXPECT_EQ(WahAnd(a, b), WahAnd(b, a));
  EXPECT_EQ(WahOr(a, b), WahOr(b, a));
  EXPECT_EQ(WahOr(WahAnd(a, b), WahAndNot(a, b)), a);
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

// ---- Multi-operand kernels --------------------------------------------------

// Pairwise-fold oracle the k-way kernels must agree with bit for bit.
WahBitmap FoldOr(const std::vector<const WahBitmap*>& ops, uint64_t size) {
  WahBitmap acc;
  acc.AppendRun(false, size);
  for (const WahBitmap* bm : ops) acc = WahOr(acc, *bm);
  return acc;
}

WahBitmap FoldAnd(const std::vector<const WahBitmap*>& ops, uint64_t size) {
  WahBitmap acc;
  acc.AppendRun(true, size);
  for (const WahBitmap* bm : ops) acc = WahAnd(acc, *bm);
  return acc;
}

std::vector<const WahBitmap*> Ptrs(const std::vector<WahBitmap>& bms) {
  std::vector<const WahBitmap*> out;
  for (const WahBitmap& bm : bms) out.push_back(&bm);
  return out;
}

// ToBools oracle: positionwise OR/AND of the decompressed operands.
std::vector<bool> BoolsOr(const std::vector<WahBitmap>& bms, uint64_t size) {
  std::vector<bool> out(size, false);
  for (const WahBitmap& bm : bms) {
    std::vector<bool> bits = bm.ToBools();
    for (uint64_t i = 0; i < size; ++i) out[i] = out[i] || bits[i];
  }
  return out;
}

std::vector<bool> BoolsAnd(const std::vector<WahBitmap>& bms, uint64_t size) {
  std::vector<bool> out(size, true);
  for (const WahBitmap& bm : bms) {
    std::vector<bool> bits = bm.ToBools();
    for (uint64_t i = 0; i < size; ++i) out[i] = out[i] && bits[i];
  }
  return out;
}

TEST(WahManyOps, EmptyOperandListIsFoldIdentity) {
  const std::vector<const WahBitmap*> none;
  WahBitmap union_none = WahOrMany(none, 100);
  EXPECT_EQ(union_none.size(), 100u);
  EXPECT_TRUE(union_none.IsAllZeros());
  WahBitmap inter_none = WahAndMany(none, 100);
  EXPECT_EQ(inter_none.size(), 100u);
  EXPECT_TRUE(inter_none.IsAllOnes());
  EXPECT_EQ(WahOrManyCount(none, 100), 0u);
  EXPECT_EQ(WahAndManyCount(none, 100), 100u);
}

TEST(WahManyOps, SingleOperandIsIdentity) {
  WahBitmap a = RandomWah(10000, 0.1, 11);
  const std::vector<const WahBitmap*> just_a{&a};
  EXPECT_EQ(WahOrMany(just_a, a.size()), a);
  EXPECT_EQ(WahAndMany(just_a, a.size()), a);
  EXPECT_EQ(WahOrManyCount(just_a, a.size()), a.CountOnes());
  EXPECT_EQ(WahAndManyCount(just_a, a.size()), a.CountOnes());
}

TEST(WahManyOps, SingleOperandSizeMismatchIsFatal) {
  WahBitmap a = WahBitmap::FromPositions({1}, 10);
  const std::vector<const WahBitmap*> just_a{&a};
  EXPECT_DEATH(WahOrMany(just_a, 11), "k-way op operand");
  EXPECT_DEATH(WahAndManyCount(just_a, 11), "k-way op operand");
}

TEST(WahManyOps, AllZeroFillOperands) {
  const uint64_t size = 63 * 1000 + 17;  // partial tail group
  std::vector<WahBitmap> ops(8);
  for (WahBitmap& bm : ops) bm.AppendRun(false, size);
  WahBitmap u = WahOrMany(Ptrs(ops), size);
  EXPECT_TRUE(u.IsAllZeros());
  EXPECT_EQ(u, ops[0]);  // canonical representation
  EXPECT_EQ(WahAndMany(Ptrs(ops), size), ops[0]);
  EXPECT_EQ(WahOrManyCount(Ptrs(ops), size), 0u);
  EXPECT_EQ(WahAndManyCount(Ptrs(ops), size), 0u);
}

TEST(WahManyOps, AllOneFillOperands) {
  const uint64_t size = 63 * 1000 + 62;
  std::vector<WahBitmap> ops(8);
  for (WahBitmap& bm : ops) bm.AppendRun(true, size);
  EXPECT_EQ(WahOrMany(Ptrs(ops), size), ops[0]);
  EXPECT_EQ(WahAndMany(Ptrs(ops), size), ops[0]);
  EXPECT_EQ(WahOrManyCount(Ptrs(ops), size), size);
  EXPECT_EQ(WahAndManyCount(Ptrs(ops), size), size);
}

TEST(WahManyOps, OneFillAnnihilatesUnionAcrossLiterals) {
  const uint64_t size = 63 * 400;
  std::vector<WahBitmap> ops;
  ops.push_back(RandomWah(size, 0.5, 21));
  WahBitmap ones;
  ones.AppendRun(true, size);
  ops.push_back(std::move(ones));
  ops.push_back(RandomWah(size, 0.5, 22));
  WahBitmap u = WahOrMany(Ptrs(ops), size);
  EXPECT_TRUE(u.IsAllOnes());
  EXPECT_EQ(u.NumWords(), 1u);  // one saturated fill word
}

TEST(WahManyOps, ZeroFillAnnihilatesIntersection) {
  const uint64_t size = 63 * 400 + 5;
  std::vector<WahBitmap> ops;
  ops.push_back(RandomWah(size, 0.9, 23));
  WahBitmap zeros;
  zeros.AppendRun(false, size);
  ops.push_back(std::move(zeros));
  ops.push_back(RandomWah(size, 0.9, 24));
  WahBitmap m = WahAndMany(Ptrs(ops), size);
  EXPECT_TRUE(m.IsAllZeros());
  EXPECT_EQ(WahAndManyCount(Ptrs(ops), size), 0u);
}

TEST(WahManyOps, MixedFillLiteralBoundaries) {
  // Operands engineered so fill runs start and end at different group
  // offsets, forcing run-boundary crossings in the galloping skip.
  const uint64_t size = 63 * 64 + 30;
  std::vector<WahBitmap> ops;
  WahBitmap a;  // zeros, ones block, zeros
  a.AppendRun(false, 63 * 10);
  a.AppendRun(true, 63 * 20);
  a.AppendRun(false, size - a.size());
  ops.push_back(std::move(a));
  WahBitmap b;  // literal-heavy
  b = RandomWah(size, 0.4, 25);
  ops.push_back(std::move(b));
  WahBitmap c;  // ones block overlapping a's tail zeros
  c.AppendRun(false, 63 * 25);
  c.AppendRun(true, 63 * 30);
  c.AppendRun(false, size - c.size());
  ops.push_back(std::move(c));

  EXPECT_EQ(WahOrMany(Ptrs(ops), size), FoldOr(Ptrs(ops), size));
  EXPECT_EQ(WahAndMany(Ptrs(ops), size), FoldAnd(Ptrs(ops), size));
  EXPECT_EQ(WahOrMany(Ptrs(ops), size).ToBools(), BoolsOr(ops, size));
  EXPECT_EQ(WahAndMany(Ptrs(ops), size).ToBools(), BoolsAnd(ops, size));
}

struct ManyParam {
  size_t k;
  uint64_t size;
  double density;
};

class WahManyOpsProperty : public ::testing::TestWithParam<ManyParam> {};

TEST_P(WahManyOpsProperty, MatchesPairwiseFoldAndBoolOracle) {
  const ManyParam p = GetParam();
  std::vector<WahBitmap> ops;
  for (size_t i = 0; i < p.k; ++i) {
    // Mix densities so some operands are sparse (fill-dominated) and
    // some dense (literal-dominated).
    double d = (i % 3 == 0) ? p.density / 10 : p.density;
    ops.push_back(RandomWah(p.size, d, 1000 + 31 * i + p.k));
  }
  std::vector<const WahBitmap*> ptrs = Ptrs(ops);

  WahBitmap union_many = WahOrMany(ptrs, p.size);
  WahBitmap union_fold = FoldOr(ptrs, p.size);
  EXPECT_EQ(union_many, union_fold);  // bit-identical, canonical words
  EXPECT_EQ(union_many.words(), union_fold.words());
  EXPECT_EQ(union_many.ToBools(), BoolsOr(ops, p.size));

  WahBitmap inter_many = WahAndMany(ptrs, p.size);
  WahBitmap inter_fold = FoldAnd(ptrs, p.size);
  EXPECT_EQ(inter_many, inter_fold);
  EXPECT_EQ(inter_many.ToBools(), BoolsAnd(ops, p.size));

  EXPECT_EQ(WahOrManyCount(ptrs, p.size), union_fold.CountOnes());
  EXPECT_EQ(WahAndManyCount(ptrs, p.size), inter_fold.CountOnes());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WahManyOpsProperty,
    ::testing::Values(ManyParam{1, 1000, 0.3}, ManyParam{2, 12345, 0.1},
                      ManyParam{2, 63, 0.5}, ManyParam{8, 10007, 0.05},
                      ManyParam{8, 63 * 100, 0.3}, ManyParam{64, 5000, 0.02},
                      ManyParam{64, 70001, 0.001}),
    [](const ::testing::TestParamInfo<ManyParam>& info) {
      return "k" + std::to_string(info.param.k) + "_n" +
             std::to_string(info.param.size) + "_d" +
             std::to_string(static_cast<int>(info.param.density * 1000));
    });

TEST(WahManyOps, SizeMismatchIsFatal) {
  WahBitmap a = WahBitmap::FromPositions({1}, 10);
  WahBitmap b = WahBitmap::FromPositions({1}, 11);
  const std::vector<const WahBitmap*> both{&a, &b};
  EXPECT_DEATH(WahOrMany(both, 10), "k-way op operand");
}

// ---- In-place ops -----------------------------------------------------------

TEST(WahInPlaceOps, OrWithMatchesWahOr) {
  WahBitmap a = RandomWah(9000, 0.2, 41);
  WahBitmap b = RandomWah(9000, 0.2, 42);
  WahBitmap expected = WahOr(a, b);
  WahBitmap acc = a;
  acc.OrWith(b);
  EXPECT_EQ(acc, expected);
}

TEST(WahInPlaceOps, AndWithMatchesWahAnd) {
  WahBitmap a = RandomWah(9000, 0.6, 43);
  WahBitmap b = RandomWah(9000, 0.6, 44);
  WahBitmap expected = WahAnd(a, b);
  WahBitmap acc = a;
  acc.AndWith(b);
  EXPECT_EQ(acc, expected);
}

TEST(WahInPlaceOps, FastPathsPreserveSemantics) {
  const uint64_t size = 63 * 50 + 7;
  WahBitmap zeros, ones;
  zeros.AppendRun(false, size);
  ones.AppendRun(true, size);
  WahBitmap mixed = RandomWah(size, 0.3, 45);

  WahBitmap acc = zeros;
  acc.OrWith(mixed);  // empty accumulator absorbs the operand
  EXPECT_EQ(acc, mixed);
  acc.OrWith(zeros);  // zero operand is a no-op
  EXPECT_EQ(acc, mixed);
  acc.OrWith(ones);  // saturating operand
  EXPECT_EQ(acc, ones);
  acc.OrWith(mixed);  // saturated accumulator is a no-op
  EXPECT_EQ(acc, ones);

  acc = ones;
  acc.AndWith(mixed);  // all-ones accumulator absorbs the operand
  EXPECT_EQ(acc, mixed);
  acc.AndWith(ones);  // all-ones operand is a no-op
  EXPECT_EQ(acc, mixed);
  acc.AndWith(zeros);  // annihilating operand
  EXPECT_EQ(acc, zeros);
  acc.AndWith(mixed);  // annihilated accumulator is a no-op
  EXPECT_EQ(acc, zeros);
}

TEST(WahInPlaceOps, FoldViaOrWithMatchesOrMany) {
  const uint64_t size = 12000;
  std::vector<WahBitmap> ops;
  for (int i = 0; i < 6; ++i) ops.push_back(RandomWah(size, 0.05, 50 + i));
  WahBitmap acc;
  acc.AppendRun(false, size);
  for (const WahBitmap& bm : ops) acc.OrWith(bm);
  EXPECT_EQ(acc, WahOrMany(Ptrs(ops), size));
}

TEST(WahInPlaceOps, FoldViaAndWithMatchesAndMany) {
  const uint64_t size = 12000;
  std::vector<WahBitmap> ops;
  for (int i = 0; i < 6; ++i) ops.push_back(RandomWah(size, 0.9, 60 + i));
  WahBitmap acc;
  acc.AppendRun(true, size);
  for (const WahBitmap& bm : ops) acc.AndWith(bm);
  EXPECT_EQ(acc, WahAndMany(Ptrs(ops), size));
}

TEST(WahInPlaceOps, SelfAliasingIsIdempotent) {
  WahBitmap a = RandomWah(9000, 0.3, 70);
  WahBitmap expected = a;
  a.OrWith(a);
  EXPECT_EQ(a, expected);
  a.AndWith(a);
  EXPECT_EQ(a, expected);
}

TEST(WahInPlaceOps, ClearAndSwapPreserveContentSemantics) {
  WahBitmap a = RandomWah(5000, 0.2, 71);
  WahBitmap b = RandomWah(700, 0.8, 72);
  WahBitmap a_copy = a;
  WahBitmap b_copy = b;
  a.Swap(b);
  EXPECT_EQ(a, b_copy);
  EXPECT_EQ(b, a_copy);
  a.Clear();
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.NumWords(), 0u);
  // A cleared bitmap rebuilds to canonical form like a fresh one.
  a.AppendRun(true, 700);
  WahBitmap fresh;
  fresh.AppendRun(true, 700);
  EXPECT_EQ(a, fresh);
}

TEST(WahInPlaceOps, ResultStaysCanonical) {
  // The in-place merge appends through the canonicalizing API, so the
  // result compares representation-equal to the pairwise kernel's and
  // to a fresh append of the same logical content.
  for (double d : {0.01, 0.5, 0.99}) {
    WahBitmap a = RandomWah(20000, d, 80);
    WahBitmap b = RandomWah(20000, d, 81);
    WahBitmap acc = a;
    acc.OrWith(b);
    WahBitmap expected = WahOr(a, b);
    ASSERT_EQ(acc.NumWords(), expected.NumWords()) << d;
    EXPECT_EQ(acc, expected) << d;
  }
}

}  // namespace
}  // namespace cods
