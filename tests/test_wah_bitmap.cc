// Unit and property tests for the WAH compressed bitmap: append paths,
// canonical form, point/bulk reads, iterators, and randomized
// equivalence against the uncompressed oracle.

#include "bitmap/wah_bitmap.h"

#include <vector>

#include "bitmap/plain_bitmap.h"
#include "common/random.h"
#include "common/result.h"
#include "gtest/gtest.h"

namespace cods {
namespace {

TEST(WahBitmap, EmptyBitmap) {
  WahBitmap bm;
  EXPECT_EQ(bm.size(), 0u);
  EXPECT_TRUE(bm.empty());
  EXPECT_EQ(bm.CountOnes(), 0u);
  EXPECT_EQ(bm.FirstSetBit(), 0u);
  EXPECT_TRUE(bm.ToBools().empty());
}

TEST(WahBitmap, AppendSingleBits) {
  WahBitmap bm;
  bm.AppendBit(true);
  bm.AppendBit(false);
  bm.AppendBit(true);
  EXPECT_EQ(bm.size(), 3u);
  EXPECT_TRUE(bm.Get(0));
  EXPECT_FALSE(bm.Get(1));
  EXPECT_TRUE(bm.Get(2));
  EXPECT_EQ(bm.CountOnes(), 2u);
}

TEST(WahBitmap, AppendRunCrossesGroupBoundary) {
  WahBitmap bm;
  bm.AppendRun(true, 100);
  bm.AppendRun(false, 100);
  EXPECT_EQ(bm.size(), 200u);
  EXPECT_EQ(bm.CountOnes(), 100u);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(bm.Get(i)) << i;
    EXPECT_FALSE(bm.Get(100 + i)) << i;
  }
}

TEST(WahBitmap, LongZeroRunCompressesToOneWord) {
  WahBitmap bm;
  bm.AppendRun(false, 63 * 1000);
  // One fill word covering 1000 groups.
  EXPECT_EQ(bm.NumWords(), 1u);
  EXPECT_EQ(bm.size(), 63u * 1000);
  EXPECT_EQ(bm.CountOnes(), 0u);
}

TEST(WahBitmap, LongOneRunCompressesToOneWord) {
  WahBitmap bm;
  bm.AppendRun(true, 63 * 500);
  EXPECT_EQ(bm.NumWords(), 1u);
  EXPECT_EQ(bm.CountOnes(), 63u * 500);
  EXPECT_EQ(bm.FirstSetBit(), 0u);
}

TEST(WahBitmap, AdjacentFillsMerge) {
  WahBitmap bm;
  bm.AppendRun(false, 63);
  bm.AppendRun(false, 63 * 2);
  bm.AppendRun(false, 63 * 3);
  EXPECT_EQ(bm.NumWords(), 1u);
  EXPECT_EQ(wah::FillGroups(bm.words()[0]), 6u);
}

TEST(WahBitmap, CompletedHomogeneousLiteralBecomesFill) {
  WahBitmap bm;
  for (int i = 0; i < 63; ++i) bm.AppendBit(true);
  ASSERT_EQ(bm.NumWords(), 1u);
  EXPECT_TRUE(wah::IsFill(bm.words()[0]));
  EXPECT_TRUE(wah::FillValue(bm.words()[0]));
}

TEST(WahBitmap, AppendSetBitPadsZeros) {
  WahBitmap bm;
  bm.AppendSetBit(1000);
  EXPECT_EQ(bm.size(), 1001u);
  EXPECT_EQ(bm.CountOnes(), 1u);
  EXPECT_EQ(bm.FirstSetBit(), 1000u);
  EXPECT_FALSE(bm.Get(999));
  EXPECT_TRUE(bm.Get(1000));
}

TEST(WahBitmap, FromPositionsRoundTrip) {
  std::vector<uint64_t> positions = {0, 5, 62, 63, 64, 200, 1000, 12345};
  WahBitmap bm = WahBitmap::FromPositions(positions, 20000);
  EXPECT_EQ(bm.size(), 20000u);
  EXPECT_EQ(bm.CountOnes(), positions.size());
  EXPECT_EQ(bm.SetPositions(), positions);
}

TEST(WahBitmap, FromBoolsRoundTrip) {
  std::vector<bool> bits;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) bits.push_back(rng.NextBool(0.3));
  WahBitmap bm = WahBitmap::FromBools(bits);
  EXPECT_EQ(bm.ToBools(), bits);
}

TEST(WahBitmap, EqualsComparesContent) {
  WahBitmap a = WahBitmap::FromPositions({1, 2, 3}, 100);
  WahBitmap b = WahBitmap::FromPositions({1, 2, 3}, 100);
  WahBitmap c = WahBitmap::FromPositions({1, 2, 4}, 100);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.Equals(c));
}

TEST(WahBitmap, CanonicalFormIndependentOfAppendPath) {
  // Bit-by-bit vs run appends must produce identical words.
  WahBitmap by_bits;
  for (int i = 0; i < 200; ++i) by_bits.AppendBit(i >= 50 && i < 150);
  WahBitmap by_runs;
  by_runs.AppendRun(false, 50);
  by_runs.AppendRun(true, 100);
  by_runs.AppendRun(false, 50);
  EXPECT_EQ(by_bits, by_runs);
  EXPECT_EQ(by_bits.words(), by_runs.words());
}

TEST(WahBitmap, ConcatMatchesAppendedContent) {
  WahBitmap a = WahBitmap::FromPositions({0, 70, 99}, 100);
  WahBitmap b = WahBitmap::FromPositions({5, 63}, 200);
  WahBitmap joined = a;
  joined.Concat(b);
  EXPECT_EQ(joined.size(), 300u);
  EXPECT_EQ(joined.SetPositions(),
            (std::vector<uint64_t>{0, 70, 99, 105, 163}));
}

TEST(WahBitmap, ConcatWithEmptySides) {
  WahBitmap a = WahBitmap::FromPositions({1}, 10);
  WahBitmap empty;
  WahBitmap left = a;
  left.Concat(empty);
  EXPECT_EQ(left, a);
  WahBitmap right = empty;
  right.Concat(a);
  EXPECT_EQ(right, a);
}

TEST(WahBitmap, ConcatGroupAlignedSplicesWords) {
  // Left side ends exactly on a group boundary: the word-splice fast
  // path must produce the same canonical form as bit-by-bit appending.
  WahBitmap left;
  left.AppendRun(false, 63 * 4);
  left.AppendSetBit(63 * 4);       // literal group with one bit...
  left.AppendRun(false, 63 - 1);   // ...completed to the boundary
  ASSERT_EQ(left.size() % 63, 0u);
  WahBitmap right;
  right.AppendRun(true, 63 * 2);
  right.AppendSetBit(63 * 2 + 5);
  right.AppendRun(false, 40);      // partial tail carried over
  WahBitmap joined = left;
  joined.Concat(right);

  WahBitmap oracle;
  std::vector<bool> bits = left.ToBools();
  std::vector<bool> rbits = right.ToBools();
  bits.insert(bits.end(), rbits.begin(), rbits.end());
  EXPECT_EQ(joined, WahBitmap::FromBools(bits));
  EXPECT_EQ(joined.words(), WahBitmap::FromBools(bits).words());
}

TEST(WahBitmap, ConcatMergesBoundaryFills) {
  WahBitmap left, right;
  left.AppendRun(false, 63 * 3);
  right.AppendRun(false, 63 * 5);
  WahBitmap joined = left;
  joined.Concat(right);
  EXPECT_EQ(joined.NumWords(), 1u);  // single merged zero fill
  EXPECT_EQ(joined.size(), 63u * 8);
}

TEST(WahBitmap, ConcatSelfDoubles) {
  WahBitmap a = WahBitmap::FromPositions({2, 64, 100}, 130);
  WahBitmap expected = a;
  expected.Concat(WahBitmap(a));
  a.Concat(a);
  EXPECT_EQ(a, expected);
  EXPECT_EQ(a.SetPositions(),
            (std::vector<uint64_t>{2, 64, 100, 132, 194, 230}));
}

TEST(WahBitmap, AppendBitsMatchesBitByBit) {
  for (uint64_t lead : {0ull, 1ull, 62ull, 63ull, 100ull}) {
    WahBitmap via_bits, via_words;
    via_bits.AppendRun(true, lead);
    via_words.AppendRun(true, lead);
    const uint64_t payload = 0x5a5a5a5a5a5a5a5aull & wah::kPayloadMask;
    for (uint64_t nbits : {1ull, 17ull, 63ull}) {
      via_words.AppendBits(payload, nbits);
      for (uint64_t i = 0; i < nbits; ++i) {
        via_bits.AppendBit((payload >> i) & 1);
      }
    }
    EXPECT_EQ(via_words, via_bits) << "lead=" << lead;
  }
}

TEST(WahBitmap, IsAllZerosAndAllOnes) {
  WahBitmap empty;
  EXPECT_TRUE(empty.IsAllZeros());
  EXPECT_TRUE(empty.IsAllOnes());  // vacuously

  WahBitmap zeros;
  zeros.AppendRun(false, 63 * 100 + 3);
  EXPECT_TRUE(zeros.IsAllZeros());
  EXPECT_FALSE(zeros.IsAllOnes());

  WahBitmap ones;
  ones.AppendRun(true, 63 * 100 + 3);
  EXPECT_FALSE(ones.IsAllZeros());
  EXPECT_TRUE(ones.IsAllOnes());

  WahBitmap one_bit = WahBitmap::FromPositions({63 * 99}, 63 * 100);
  EXPECT_FALSE(one_bit.IsAllZeros());
  EXPECT_FALSE(one_bit.IsAllOnes());

  // Set bit only in the partial tail.
  WahBitmap tail_bit = WahBitmap::FromPositions({63 * 2 + 1}, 63 * 2 + 10);
  EXPECT_FALSE(tail_bit.IsAllZeros());
}

TEST(WahBitmap, ReserveDoesNotChangeContent) {
  WahBitmap a = WahBitmap::FromPositions({1, 200, 4000}, 5000);
  WahBitmap b = a;
  b.Reserve(1024);
  EXPECT_EQ(a, b);
  b.AppendRun(true, 10);
  EXPECT_EQ(b.size(), 5010u);
}

TEST(WahBitmap, FirstSetBitOnAllZeros) {
  WahBitmap bm;
  bm.AppendRun(false, 500);
  EXPECT_EQ(bm.FirstSetBit(), 500u);  // == size(): no set bit
}

// Two one-fills whose group counts sum, times 63, to 71 modulo 2^64: a
// loader that adds the claimed lengths unchecked accepts a 71-bit,
// all-ones bitmap whose runs reach ~2^69 bits past its end.
TEST(WahBitmap, FromRawPartsRejectsFillsThatOverflowTheHeader) {
  const std::vector<uint64_t> words = {
      wah::MakeFill(true, 4538484653055524604ull),
      wah::MakeFill(true, 4538484653055524605ull)};
  Result<WahBitmap> bm = WahBitmap::FromRawParts(words, 0, 0, 71);
  ASSERT_FALSE(bm.ok());
  EXPECT_TRUE(bm.status().IsCorruption()) << bm.status().ToString();
  // One fill past the header's length, and a literal past it, too.
  EXPECT_TRUE(WahBitmap::FromRawParts({wah::MakeFill(false, 2)}, 0, 0, 63)
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(
      WahBitmap::FromRawParts({1, 1}, 0, 0, 63).status().IsCorruption());
  EXPECT_TRUE(WahBitmap::FromRawParts({}, 1, 5, 4).status().IsCorruption());
  // Exact lengths still load.
  Result<WahBitmap> exact =
      WahBitmap::FromRawParts({wah::MakeFill(true, 2), 1}, 1, 5, 63 * 3 + 5);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact.ValueOrDie().CountOnes(), 63u * 2 + 2);
}

TEST(WahDecoder, WalksRunsAndLiterals) {
  WahBitmap bm;
  bm.AppendRun(false, 63 * 4);
  bm.AppendBit(true);
  bm.AppendRun(false, 62);  // completes a literal group with one set bit
  bm.AppendRun(true, 63 * 2);
  WahDecoder dec(bm);
  ASSERT_FALSE(dec.exhausted());
  EXPECT_TRUE(dec.is_fill());
  EXPECT_FALSE(dec.fill_value());
  EXPECT_EQ(dec.remaining_groups(), 4u);
  dec.Consume(4);
  ASSERT_FALSE(dec.exhausted());
  EXPECT_FALSE(dec.is_fill());
  EXPECT_EQ(dec.group_payload(), 1u);
  dec.Consume(1);
  ASSERT_FALSE(dec.exhausted());
  EXPECT_TRUE(dec.is_fill());
  EXPECT_TRUE(dec.fill_value());
  dec.Consume(2);
  EXPECT_TRUE(dec.exhausted());
}

TEST(WahDecoder, PartialConsumeOfFill) {
  WahBitmap bm;
  bm.AppendRun(false, 63 * 10);
  WahDecoder dec(bm);
  dec.Consume(3);
  EXPECT_EQ(dec.remaining_groups(), 7u);
  dec.Consume(7);
  EXPECT_TRUE(dec.exhausted());
}

TEST(WahSetBitIterator, EnumeratesAllSetBits) {
  std::vector<uint64_t> positions = {3, 62, 63, 126, 500, 501, 502, 9999};
  WahBitmap bm = WahBitmap::FromPositions(positions, 10000);
  WahSetBitIterator it(bm);
  std::vector<uint64_t> got;
  uint64_t pos;
  while (it.Next(&pos)) got.push_back(pos);
  EXPECT_EQ(got, positions);
}

TEST(WahRunIterator, ProducesMaximalRuns) {
  WahBitmap bm;
  bm.AppendRun(false, 100);
  bm.AppendRun(true, 200);
  bm.AppendRun(false, 63);
  bm.AppendRun(true, 1);
  WahRunIterator it(bm);
  WahRunIterator::Run run;
  ASSERT_TRUE(it.Next(&run));
  EXPECT_EQ(run.value, false);
  EXPECT_EQ(run.start, 0u);
  EXPECT_EQ(run.length, 100u);
  ASSERT_TRUE(it.Next(&run));
  EXPECT_EQ(run.value, true);
  EXPECT_EQ(run.start, 100u);
  EXPECT_EQ(run.length, 200u);
  ASSERT_TRUE(it.Next(&run));
  EXPECT_EQ(run.value, false);
  EXPECT_EQ(run.length, 63u);
  ASSERT_TRUE(it.Next(&run));
  EXPECT_EQ(run.value, true);
  EXPECT_EQ(run.length, 1u);
  EXPECT_FALSE(it.Next(&run));
}

TEST(WahRunIterator, RunsPartitionTheDomain) {
  Rng rng(11);
  WahBitmap bm;
  for (int i = 0; i < 1000; ++i) bm.AppendBit(rng.NextBool(0.5));
  WahRunIterator it(bm);
  WahRunIterator::Run run;
  uint64_t expected_start = 0;
  bool last_value = false;
  bool first = true;
  while (it.Next(&run)) {
    EXPECT_EQ(run.start, expected_start);
    EXPECT_GT(run.length, 0u);
    if (!first) EXPECT_NE(run.value, last_value) << "runs must alternate";
    expected_start += run.length;
    last_value = run.value;
    first = false;
  }
  EXPECT_EQ(expected_start, bm.size());
}

// ---- Property sweep: WAH must agree with the plain-bitmap oracle over a
// grid of sizes and densities.

struct WahParam {
  uint64_t size;
  double density;
};

class WahProperty : public ::testing::TestWithParam<WahParam> {};

TEST_P(WahProperty, MatchesPlainOracle) {
  const WahParam p = GetParam();
  Rng rng(p.size * 1000 + static_cast<uint64_t>(p.density * 100));
  PlainBitmap plain(p.size);
  WahBitmap wah;
  for (uint64_t i = 0; i < p.size; ++i) {
    bool bit = rng.NextBool(p.density);
    if (bit) plain.Set(i);
    wah.AppendBit(bit);
  }
  EXPECT_EQ(wah.size(), plain.size());
  EXPECT_EQ(wah.CountOnes(), plain.CountOnes());
  // Point reads agree on a sample.
  for (int i = 0; i < 100 && p.size > 0; ++i) {
    uint64_t pos = static_cast<uint64_t>(
        rng.Uniform(0, static_cast<int64_t>(p.size) - 1));
    EXPECT_EQ(wah.Get(pos), plain.Get(pos)) << pos;
  }
  // Round trips.
  EXPECT_EQ(PlainBitmap::FromWah(wah).words(), plain.words());
  EXPECT_EQ(plain.ToWah(), wah);
  // Set-position stream agrees.
  std::vector<uint64_t> expected;
  for (uint64_t i = 0; i < p.size; ++i) {
    if (plain.Get(i)) expected.push_back(i);
  }
  EXPECT_EQ(wah.SetPositions(), expected);
}

TEST_P(WahProperty, SparseBitmapsStaySmall) {
  const WahParam p = GetParam();
  if (p.density > 0.01 || p.size < 10000) GTEST_SKIP();
  Rng rng(p.size);
  WahBitmap wah;
  uint64_t ones = 0;
  for (uint64_t i = 0; i < p.size; ++i) {
    bool bit = rng.NextBool(p.density);
    wah.AppendBit(bit);
    ones += bit;
  }
  // Each isolated set bit costs at most 3 words (fill, literal, fill).
  EXPECT_LE(wah.NumWords(), 3 * ones + 3);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDensities, WahProperty,
    ::testing::Values(WahParam{0, 0.5}, WahParam{1, 0.5}, WahParam{62, 0.5},
                      WahParam{63, 0.5}, WahParam{64, 0.5},
                      WahParam{126, 0.1}, WahParam{1000, 0.0},
                      WahParam{1000, 1.0}, WahParam{1000, 0.5},
                      WahParam{10000, 0.001}, WahParam{10000, 0.01},
                      WahParam{10000, 0.999}, WahParam{100000, 0.0001},
                      WahParam{100000, 0.5}),
    [](const ::testing::TestParamInfo<WahParam>& info) {
      return "n" + std::to_string(info.param.size) + "_d" +
             std::to_string(static_cast<int>(info.param.density * 10000));
    });

}  // namespace
}  // namespace cods
