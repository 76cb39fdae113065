// Tests for the density-adaptive bitmap codec: the representation rule,
// the pairwise kernels verified against the WAH oracle across all
// representation pairs (randomized property sweep), the k-way kernels
// against an uncompressed PlainBitmap fold, serde round trips for v1/v2/v3
// images, and corruption injection — a mutated image must surface as
// Status::Corruption, never as silently wrong data.

#include "bitmap/codec.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "bitmap/plain_bitmap.h"
#include "bitmap/popcount.h"
#include "bitmap/wah_filter.h"
#include "bitmap/wah_ops.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "storage/serde.h"
#include "test_util.h"

namespace cods {
namespace {

using ::cods::testing::ExpectSameContent;
using ::cods::testing::Figure1TableR;
using ::cods::testing::RandomFdTable;

// Sample exactly `ones` distinct positions in [0, size), so the
// representation each density class maps to is guaranteed, not merely
// likely.
std::vector<uint32_t> SamplePositions(uint64_t size, uint64_t ones,
                                      uint64_t seed) {
  Rng rng(seed);
  std::set<uint32_t> picked;
  while (picked.size() < ones) {
    picked.insert(
        static_cast<uint32_t>(rng.Uniform(0, static_cast<int64_t>(size) - 1)));
  }
  return std::vector<uint32_t>(picked.begin(), picked.end());
}

WahBitmap WahFromU32(const std::vector<uint32_t>& positions, uint64_t size) {
  std::vector<uint64_t> wide(positions.begin(), positions.end());
  return WahBitmap::FromPositions(wide, size);
}

ValueBitmap MakeRandom(uint64_t size, uint64_t ones, uint64_t seed) {
  return ValueBitmap::FromPositions(SamplePositions(size, ones, seed), size);
}

// The uncompressed oracle for the k-way kernels: a fold of PlainBitmap
// word ops over the operands' set bits, sharing no code with any codec
// or WAH kernel. Returned in canonical codec form, so an EXPECT_EQ
// against a kernel result also checks the kernel's container choice.
PlainBitmap ToPlain(const ValueBitmap& vb) {
  PlainBitmap plain(vb.size());
  for (uint64_t p : vb.SetPositions()) plain.Set(p);
  return plain;
}

ValueBitmap PlainOrFold(const std::vector<const ValueBitmap*>& operands,
                        uint64_t size) {
  PlainBitmap acc(size);
  for (const ValueBitmap* vb : operands) acc = acc.Or(ToPlain(*vb));
  return ValueBitmap::FromWah(acc.ToWah());
}

ValueBitmap PlainAndFold(const std::vector<const ValueBitmap*>& operands,
                         uint64_t size) {
  PlainBitmap acc(size);
  for (uint64_t i = 0; i < size; ++i) acc.Set(i);
  for (const ValueBitmap* vb : operands) acc = acc.And(ToPlain(*vb));
  return ValueBitmap::FromWah(acc.ToWah());
}

// The density classes the sweep crosses. For size 4096: empty and full
// stay on WAH (homogeneous), 30 ones <= 4096/64 picks the array, 400 is
// the mixed WAH regime, 2000 >= 1024 picks the bitset.
constexpr uint64_t kSweepSize = 4096;
struct DensityClass {
  uint64_t ones;
  BitmapRep rep;
};
const DensityClass kClasses[] = {
    {0, BitmapRep::kWah},     {30, BitmapRep::kArray},
    {400, BitmapRep::kWah},   {2000, BitmapRep::kBitset},
    {4096, BitmapRep::kWah},
};

TEST(ChooseRep, DensityThresholds) {
  // Homogeneous bitmaps stay on WAH regardless of density class.
  EXPECT_EQ(ChooseBitmapRep(0, 1000), BitmapRep::kWah);
  EXPECT_EQ(ChooseBitmapRep(1000, 1000), BitmapRep::kWah);
  EXPECT_EQ(ChooseBitmapRep(0, 0), BitmapRep::kWah);
  // Sparse boundary: ones <= size/64.
  EXPECT_EQ(ChooseBitmapRep(15, 1000), BitmapRep::kArray);
  EXPECT_EQ(ChooseBitmapRep(16, 1024), BitmapRep::kArray);
  EXPECT_EQ(ChooseBitmapRep(17, 1024), BitmapRep::kWah);
  // Dense boundary: ones >= (size+3)/4.
  EXPECT_EQ(ChooseBitmapRep(255, 1024), BitmapRep::kWah);
  EXPECT_EQ(ChooseBitmapRep(256, 1024), BitmapRep::kBitset);
  // Positions are uint32_t: huge bitmaps never choose the array.
  EXPECT_EQ(ChooseBitmapRep(2, (uint64_t{1} << 33)), BitmapRep::kWah);
}

TEST(ValueBitmap, ConstructorsAgreeAndAreCanonical) {
  for (const DensityClass& c : kClasses) {
    std::vector<uint32_t> positions = SamplePositions(kSweepSize, c.ones, 7);
    ValueBitmap from_positions =
        ValueBitmap::FromPositions(positions, kSweepSize);
    ValueBitmap from_wah =
        ValueBitmap::FromWah(WahFromU32(positions, kSweepSize));
    std::vector<uint64_t> words((kSweepSize + 63) / 64, 0);
    for (uint32_t p : positions) words[p / 64] |= uint64_t{1} << (p % 64);
    ValueBitmap from_words = ValueBitmap::FromDenseWords(words, kSweepSize);

    EXPECT_EQ(from_positions.rep(), c.rep) << c.ones;
    EXPECT_EQ(from_positions, from_wah) << c.ones;
    EXPECT_EQ(from_positions, from_words) << c.ones;
    EXPECT_EQ(from_positions.CountOnes(), c.ones);
    EXPECT_TRUE(from_positions.Validate(kSweepSize).ok());
    EXPECT_EQ(from_positions.ToWah(), WahFromU32(positions, kSweepSize));
  }
}

TEST(ValueBitmap, PointQueriesMatchOracle) {
  for (const DensityClass& c : kClasses) {
    std::vector<uint32_t> positions = SamplePositions(kSweepSize, c.ones, 11);
    ValueBitmap vb = ValueBitmap::FromPositions(positions, kSweepSize);
    WahBitmap oracle = WahFromU32(positions, kSweepSize);
    EXPECT_EQ(vb.FirstSetBit(), oracle.FirstSetBit());
    EXPECT_EQ(vb.SetPositions(), oracle.SetPositions());
    Rng rng(13);
    for (int i = 0; i < 64; ++i) {
      uint64_t pos = static_cast<uint64_t>(
          rng.Uniform(0, static_cast<int64_t>(kSweepSize) - 1));
      EXPECT_EQ(vb.Get(pos), oracle.Get(pos));
    }
    std::vector<uint64_t> collected;
    vb.ForEachSetBit([&](uint64_t pos) { collected.push_back(pos); });
    EXPECT_EQ(collected, oracle.SetPositions());
    // A visitor returning false stops the walk.
    std::vector<uint64_t> first;
    vb.ForEachSetBit([&](uint64_t pos) {
      first.push_back(pos);
      return first.size() < 3;
    });
    collected.resize(std::min<size_t>(collected.size(), 3));
    EXPECT_EQ(first, collected);
  }
}

// The core property sweep: every pairwise kernel against the WAH oracle
// across the full representation cross product, several seeds each.
TEST(CodecKernels, PairwiseSweepVsWahOracle) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (const DensityClass& ca : kClasses) {
      for (const DensityClass& cb : kClasses) {
        ValueBitmap a = MakeRandom(kSweepSize, ca.ones, seed * 101 + ca.ones);
        ValueBitmap b = MakeRandom(kSweepSize, cb.ones, seed * 977 + cb.ones);
        WahBitmap wa = a.ToWah();
        WahBitmap wb = b.ToWah();
        SCOPED_TRACE(a.ToString() + " x " + b.ToString());

        EXPECT_EQ(CodecAnd(a, b), ValueBitmap::FromWah(WahAnd(wa, wb)));
        EXPECT_EQ(CodecOr(a, b), ValueBitmap::FromWah(WahOr(wa, wb)));
        EXPECT_EQ(CodecNot(a), ValueBitmap::FromWah(WahNot(wa)));
        EXPECT_EQ(CodecAndCount(a, b), WahAndCount(wa, wb));

        // A WHERE selection of each representation, as the query layer
        // narrows value bitmaps with it.
        for (const DensityClass& cs : kClasses) {
          if (cs.ones == 0 || cs.ones == kSweepSize) continue;
          WahBitmap wsel;
          Rng rng(seed * 31 + ca.ones + cb.ones + cs.ones);
          const double p = static_cast<double>(cs.ones) / kSweepSize;
          for (uint64_t i = 0; i < kSweepSize; ++i) {
            wsel.AppendBit(rng.NextBool(p));
          }
          const ValueBitmap selection = ValueBitmap::FromWah(wsel);
          ASSERT_EQ(selection.rep(), cs.rep) << selection.ToString();
          EXPECT_EQ(CodecAnd(a, selection),
                    ValueBitmap::FromWah(WahAnd(wa, wsel)));
          EXPECT_EQ(CodecAndCount(a, selection), WahAndCount(wa, wsel));
        }
      }
    }
  }
}

TEST(CodecKernels, OrManyMixedRepsVsOracle) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    std::vector<ValueBitmap> vbs;
    for (const DensityClass& c : kClasses) {
      vbs.push_back(MakeRandom(kSweepSize, c.ones, seed * 53 + c.ones));
      vbs.push_back(MakeRandom(kSweepSize, c.ones, seed * 59 + c.ones + 1));
    }
    std::vector<const ValueBitmap*> operands;
    for (const ValueBitmap& vb : vbs) operands.push_back(&vb);

    const ValueBitmap oracle = PlainOrFold(operands, kSweepSize);
    const ValueBitmap merged = CodecOrMany(operands, kSweepSize);
    EXPECT_EQ(merged, oracle);
    EXPECT_TRUE(merged.Validate(kSweepSize).ok());
    EXPECT_EQ(CodecOrManyCount(operands, kSweepSize), oracle.CountOnes());

    // Subsets exercise an all-WAH pair and the single-operand case.
    std::vector<const ValueBitmap*> just_wah = {operands[4], operands[5]};
    EXPECT_EQ(CodecOrMany(just_wah, kSweepSize),
              ValueBitmap::FromWah(WahOr(vbs[4].ToWah(), vbs[5].ToWah())));
    std::vector<const ValueBitmap*> one = {operands[2]};
    EXPECT_EQ(CodecOrMany(one, kSweepSize), vbs[2]);
    EXPECT_EQ(CodecOrMany({}, kSweepSize).CountOnes(), 0u);
    EXPECT_EQ(CodecOrMany({}, kSweepSize).size(), kSweepSize);
  }
}

// Every subset of two operands per density class: the k-way AND and its
// count equal the PlainBitmap fold, and neither depends on operand order.
TEST(CodecKernels, AndManyMixedRepsVsOracle) {
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    std::vector<ValueBitmap> vbs;
    for (const DensityClass& c : kClasses) {
      for (uint64_t i = 0; i < 2; ++i) {
        // Full bitmaps are identical; vary the others.
        vbs.push_back(MakeRandom(kSweepSize, c.ones, seed * 71 + c.ones + i));
      }
    }
    for (uint32_t mask = 0; mask < (1u << vbs.size()); ++mask) {
      std::vector<const ValueBitmap*> operands;
      for (size_t i = 0; i < vbs.size(); ++i) {
        if ((mask >> i) & 1) operands.push_back(&vbs[i]);
      }
      SCOPED_TRACE("mask " + std::to_string(mask));
      const ValueBitmap oracle = PlainAndFold(operands, kSweepSize);
      const ValueBitmap got = CodecAndMany(operands, kSweepSize);
      EXPECT_EQ(got, oracle);
      EXPECT_TRUE(got.Validate(kSweepSize).ok());
      EXPECT_EQ(CodecAndManyCount(operands, kSweepSize), oracle.CountOnes());
      std::reverse(operands.begin(), operands.end());
      EXPECT_EQ(CodecAndMany(operands, kSweepSize), got);
      EXPECT_EQ(CodecAndManyCount(operands, kSweepSize), oracle.CountOnes());
    }
  }
}

TEST(CodecKernels, FilterMatchesCompressedOracle) {
  Rng rng(21);
  std::vector<uint64_t> kept;
  for (uint64_t i = 0; i < kSweepSize; ++i) {
    if (rng.NextBool(0.3)) kept.push_back(i);
  }
  WahPositionFilter filter(kept, kSweepSize);
  for (const DensityClass& c : kClasses) {
    ValueBitmap vb = MakeRandom(kSweepSize, c.ones, 87 + c.ones);
    ValueBitmap filtered = CodecFilter(filter, vb);
    WahBitmap oracle = filter.Filter(vb.ToWah());
    EXPECT_EQ(filtered, ValueBitmap::FromWah(oracle)) << vb.ToString();
    EXPECT_TRUE(filtered.Validate(kept.size()).ok());
  }
}

TEST(CodecKernels, AllArrayOrManyMatchesDensePath) {
  // Unions of array operands merge their position lists when that beats
  // the dense accumulator (few positions over a long domain) and take
  // the accumulator otherwise; both must equal the PlainBitmap fold and
  // a dense union built here, container for container. Operands overlap,
  // and empty operands ride along; domains are not multiples of 63 or 64.
  for (uint64_t size : {4096u, 200'003u}) {
    for (uint64_t k : {2u, 3u, 8u}) {
      for (uint64_t ones : {1u, 10u, 60u, 3000u}) {
        if (ones > size / 64) continue;
        std::vector<ValueBitmap> arrays;
        std::vector<uint64_t> dense((size + 63) / 64, 0);
        for (uint64_t i = 0; i < k; ++i) {
          // Every other operand reuses its predecessor's first half.
          std::vector<uint32_t> pos = SamplePositions(size, ones, 7 * i + ones);
          if (i % 2 == 1) {
            const std::vector<uint32_t>& prev =
                arrays.back().array_positions();
            pos.insert(pos.end(), prev.begin(),
                       prev.begin() + static_cast<long>(prev.size() / 2));
            std::sort(pos.begin(), pos.end());
            pos.erase(std::unique(pos.begin(), pos.end()), pos.end());
            if (pos.size() > size / 64) pos.resize(size / 64);
          }
          for (uint32_t p : pos) dense[p >> 6] |= uint64_t{1} << (p & 63);
          arrays.push_back(ValueBitmap::FromPositions(std::move(pos), size));
          ASSERT_EQ(arrays.back().rep(), BitmapRep::kArray);
        }
        arrays.push_back(MakeRandom(size, 0, 1));  // empty: a WAH fill
        std::vector<const ValueBitmap*> operands;
        for (const ValueBitmap& vb : arrays) operands.push_back(&vb);
        const ValueBitmap oracle = PlainOrFold(operands, size);
        const std::string label = "size " + std::to_string(size) + " k " +
                                  std::to_string(k) + " ones " +
                                  std::to_string(ones);
        EXPECT_EQ(CodecOrMany(operands, size), oracle) << label;
        EXPECT_EQ(CodecOrMany(operands, size),
                  ValueBitmap::FromDenseWords(dense, size))
            << label;
        EXPECT_EQ(CodecOrManyCount(operands, size), oracle.CountOnes())
            << label;
      }
    }
  }
}

// All-WAH operand sets take the same dense-accumulator union and
// sparsest-first CodecAnd fold as every other mix. The sweep crosses the
// widths around the 16-operand mark and up to 63, with fill-heavy
// (clustered) and literal-heavy (scattered) operands, plus a set holding
// an all-ones operand and a set of pairwise disjoint operands.
TEST(CodecKernels, AllWahManyVsOracle) {
  const uint64_t size = 200'003;  // neither a multiple of 63 nor of 64
  auto clustered = [size](uint64_t seed) {
    Rng rng(seed);
    WahBitmap bm;
    for (int run = 0; run < 4; ++run) {
      const uint64_t len = size / 40;
      const uint64_t start = static_cast<uint64_t>(
          rng.Uniform(static_cast<int64_t>(bm.size()),
                      static_cast<int64_t>(bm.size() + size / 5)));
      bm.AppendRun(false, start - bm.size());
      bm.AppendRun(true, len);
    }
    bm.AppendRun(false, size - bm.size());
    return ValueBitmap::FromWah(std::move(bm));
  };
  auto scattered = [size](uint64_t seed) {
    Rng rng(seed);
    std::vector<uint64_t> positions;
    for (uint64_t i = 0; i < size; ++i) {
      if (rng.NextBool(0.05)) positions.push_back(i);
    }
    return ValueBitmap::FromWah(WahBitmap::FromPositions(positions, size));
  };
  auto disjoint = [size](uint64_t i, uint64_t k) {
    const uint64_t stride = size / k;
    WahBitmap bm;
    bm.AppendRun(false, i * stride);
    bm.AppendRun(true, std::min(stride, size / 8));
    bm.AppendRun(false, size - bm.size());
    return ValueBitmap::FromWah(std::move(bm));
  };
  WahBitmap ones_wah;
  ones_wah.AppendRun(true, size);
  const ValueBitmap all_ones = ValueBitmap::FromWah(std::move(ones_wah));

  for (uint64_t k : {2u, 3u, 15u, 16u, 17u, 63u}) {
    std::vector<std::pair<std::string, std::vector<ValueBitmap>>> sets(4);
    sets[0].first = "clustered";
    sets[1].first = "scattered";
    sets[2].first = "with all-ones";
    sets[3].first = "disjoint";
    for (uint64_t i = 0; i < k; ++i) {
      sets[0].second.push_back(clustered(1000 * k + i));
      sets[1].second.push_back(scattered(2000 * k + i));
      sets[2].second.push_back(i == k / 2 ? all_ones
                                          : scattered(3000 * k + i));
      sets[3].second.push_back(disjoint(i, k));
    }
    for (const auto& [name, vbs] : sets) {
      SCOPED_TRACE(name + " k " + std::to_string(k));
      std::vector<const ValueBitmap*> operands;
      for (const ValueBitmap& vb : vbs) {
        ASSERT_EQ(vb.rep(), BitmapRep::kWah) << vb.ToString();
        operands.push_back(&vb);
      }
      const ValueBitmap or_oracle = PlainOrFold(operands, size);
      const ValueBitmap and_oracle = PlainAndFold(operands, size);
      const ValueBitmap united = CodecOrMany(operands, size);
      const ValueBitmap intersected = CodecAndMany(operands, size);
      EXPECT_EQ(united, or_oracle);
      EXPECT_TRUE(united.Validate(size).ok());
      EXPECT_EQ(intersected, and_oracle);
      EXPECT_TRUE(intersected.Validate(size).ok());
      EXPECT_EQ(CodecOrManyCount(operands, size), or_oracle.CountOnes());
      EXPECT_EQ(CodecAndManyCount(operands, size), and_oracle.CountOnes());
    }
  }
}

// Every k-way kernel CHECKs operand sizes in release builds too: a
// longer operand would otherwise write past the union's accumulator.
TEST(CodecKernelsDeath, OperandSizeMismatchIsFatal) {
  const ValueBitmap ok = MakeRandom(kSweepSize, 400, 3);
  const uint64_t longer = kSweepSize + 64;
  for (const DensityClass& c : kClasses) {
    if (c.ones == 0 || c.ones == kSweepSize) continue;
    const ValueBitmap bad = MakeRandom(longer, c.ones, 5);
    ASSERT_EQ(bad.rep(), c.rep);
    SCOPED_TRACE(BitmapRepName(bad.rep()));
    const std::vector<const ValueBitmap*> operands = {&ok, &bad};
    EXPECT_DEATH(CodecOrMany(operands, kSweepSize), "k-way codec operand");
    EXPECT_DEATH(CodecOrManyCount(operands, kSweepSize),
                 "k-way codec operand");
    EXPECT_DEATH(CodecAndMany(operands, kSweepSize), "k-way codec operand");
    EXPECT_DEATH(CodecAndManyCount(operands, kSweepSize),
                 "k-way codec operand");
  }
}

TEST(CodecKernels, DenseSelectionMatchesCodecKernels) {
  for (const DensityClass& s : kClasses) {
    const ValueBitmap selection = MakeRandom(kSweepSize, s.ones, 500 + s.ones);
    DenseSelection dense(selection);
    for (const DensityClass& c : kClasses) {
      ValueBitmap vb = MakeRandom(kSweepSize, c.ones, 700 + c.ones);
      EXPECT_EQ(dense.AndCount(vb), CodecAndCount(vb, selection))
          << s.ones << " x " << c.ones;
      std::vector<uint64_t> positions;
      dense.AndPositions(vb, &positions);
      EXPECT_EQ(positions, CodecAnd(vb, selection).SetPositions())
          << s.ones << " x " << c.ones;
    }
  }
}

TEST(CodecKernels, DenseSelectionOverValueBitmaps) {
  // Sizes with and without a partial tail word.
  for (uint64_t size : {kSweepSize, kSweepSize + 3}) {
    const ValueBitmap selection = MakeRandom(size, size / 3, 41);
    ASSERT_EQ(selection.rep(), BitmapRep::kBitset);
    const DenseSelection dense_sel(selection);
    for (const DensityClass& ca : kClasses) {
      const uint64_t a_ones = ca.ones == kSweepSize ? size : ca.ones;
      const ValueBitmap a = MakeRandom(size, a_ones, 900 + ca.ones);
      ASSERT_EQ(a.rep(), ca.rep);
      const WahBitmap wa = a.ToWah();
      DenseSelection da(a);
      EXPECT_EQ(da.CountOnes(), a.CountOnes());
      EXPECT_EQ(da.size(), size);
      // The GROUP BY fold: selection & a, owned, popcount cached.
      DenseSelection folded(dense_sel, a);
      const WahBitmap wfolded = WahAnd(wa, selection.ToWah());
      EXPECT_EQ(folded.CountOnes(), wfolded.CountOnes()) << a.ToString();
      if (a.rep() == BitmapRep::kArray) {
        EXPECT_EQ(dense_sel.AndArray(a), ValueBitmap::FromWah(wfolded));
      }
      // Move keeps the words (owned or borrowed) reachable.
      DenseSelection moved(std::move(da));
      for (const DensityClass& cb : kClasses) {
        const uint64_t b_ones = cb.ones == kSweepSize ? size : cb.ones;
        const ValueBitmap b = MakeRandom(size, b_ones, 1700 + cb.ones);
        const WahBitmap wb = b.ToWah();
        SCOPED_TRACE(a.ToString() + " x " + b.ToString());
        const uint64_t want = WahAndCount(wa, wb);
        EXPECT_EQ(CodecAndCount(a, b), want);
        EXPECT_EQ(moved.AndCount(b), want);
        EXPECT_EQ(moved.AndCount(DenseSelection(b)), want);
        EXPECT_EQ(folded.AndCount(b), WahAndCount(wfolded, wb));
        EXPECT_EQ(folded.AndCount(DenseSelection(b)),
                  WahAndCount(wfolded, wb));
      }
    }
  }
  // The value-bitmap size rule: arrays never expand (their probes are
  // O(positions)), bitsets always (in place), WAH by the word rule.
  const ValueBitmap array = MakeRandom(kSweepSize, 30, 1);
  const ValueBitmap wah = MakeRandom(kSweepSize, 400, 2);
  const ValueBitmap bitset = MakeRandom(kSweepSize, 2000, 3);
  EXPECT_FALSE(DenseSelection::Pays(array, 1'000'000));
  EXPECT_TRUE(DenseSelection::Pays(bitset, 1));
  EXPECT_FALSE(DenseSelection::Pays(wah, 0));
  EXPECT_TRUE(DenseSelection::Pays(wah, 64));
  // The WAH rule: densify once the walks cost more code words than the
  // dense copy (64 words for 4096 rows).
  EXPECT_EQ(DenseSelection::Pays(wah, 2), 2 * wah.wah().NumWords() > 64);
  EXPECT_TRUE(DenseSelection::Pays(wah, 1000));
}

// Both popcount instances (bitmap/popcount.h) against a bit loop, on
// seeded words plus 0, ~0, single bits, and ranges ending inside a word.
uint64_t BitLoopCount(const std::vector<uint64_t>& words, uint64_t start,
                      uint64_t end) {
  uint64_t ones = 0;
  for (uint64_t bit = start; bit < end; ++bit) {
    ones += (words[bit / 64] >> (bit % 64)) & 1;
  }
  return ones;
}

TEST(Popcount, InstancesAgreeWithBitLoop) {
  Rng rng(64);
  std::vector<uint64_t> a = {0, ~uint64_t{0}, uint64_t{1}, uint64_t{1} << 63,
                             uint64_t{1} << 31, 0x5555555555555555ULL};
  for (int bit = 0; bit < 64; ++bit) a.push_back(uint64_t{1} << bit);
  while (a.size() < 200) {
    a.push_back(static_cast<uint64_t>(rng.engine()()) &
                static_cast<uint64_t>(rng.engine()()));
  }
  std::vector<uint64_t> b(a.rbegin(), a.rend());
  std::vector<uint64_t> both(a.size());
  for (size_t i = 0; i < a.size(); ++i) both[i] = a[i] & b[i];

  auto check = [&](const auto& run, const char* instance) {
    SCOPED_TRACE(instance);
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, a.size()}) {
      EXPECT_EQ(run([&] { return CountWords(a.data(), n); }),
                BitLoopCount(a, 0, n * 64))
          << n;
      EXPECT_EQ(run([&] { return CountAndWords(a.data(), b.data(), n); }),
                BitLoopCount(both, 0, n * 64))
          << n;
    }
    const uint64_t bits = a.size() * 64;
    std::vector<std::pair<uint64_t, uint64_t>> ranges = {
        {0, 0}, {0, 1}, {5, 6}, {63, 64}, {63, 65}, {0, 64}, {64, 128},
        {1, bits - 1}, {0, bits}, {100, 100}, {127, 129}};
    for (int i = 0; i < 200; ++i) {
      uint64_t x = static_cast<uint64_t>(
          rng.Uniform(0, static_cast<int64_t>(bits)));
      uint64_t y = static_cast<uint64_t>(
          rng.Uniform(0, static_cast<int64_t>(bits)));
      ranges.emplace_back(std::min(x, y), std::max(x, y));
    }
    for (const auto& [start, end] : ranges) {
      EXPECT_EQ(run([&] { return CountRange(a.data(), start, end); }),
                BitLoopCount(a, start, end))
          << "[" << start << ", " << end << ")";
    }
  };
  check([](const auto& kernel) { return kernel(); }, "portable");
#if CODS_POPCNT_DISPATCH
  if (CpuHasPopcnt()) {
    check([](const auto& kernel) { return RunPopcnt(kernel); }, "popcnt");
  }
#endif
  check([](const auto& kernel) { return DispatchPopcount(kernel); },
        "dispatched");
}

TEST(CodecKernels, AppendToWahMatchesConcat) {
  WahBitmap acc = WahBitmap::FromPositions({1, 63, 200}, 300);
  for (const DensityClass& c : kClasses) {
    ValueBitmap vb = MakeRandom(kSweepSize, c.ones, 33 + c.ones);
    WahBitmap via_append = acc;
    vb.AppendToWah(&via_append);
    WahBitmap via_concat = acc;
    via_concat.Concat(vb.ToWah());
    EXPECT_EQ(via_append, via_concat) << vb.ToString();
  }
}

TEST(ValueBitmap, FromRawPartsRejectsNonCanonical) {
  // Wrong representation for the density: 3 ones in 4096 bits must be an
  // array, not a bitset.
  std::vector<uint64_t> words(kSweepSize / 64, 0);
  words[0] = 0b111;
  EXPECT_FALSE(ValueBitmap::FromRawParts(BitmapRep::kBitset, kSweepSize, {},
                                         WahBitmap(), words)
                   .ok());
  // Unsorted positions.
  EXPECT_FALSE(ValueBitmap::FromRawParts(BitmapRep::kArray, kSweepSize,
                                         {9, 3}, WahBitmap(), {})
                   .ok());
  // Out-of-range position.
  EXPECT_FALSE(ValueBitmap::FromRawParts(BitmapRep::kArray, kSweepSize,
                                         {static_cast<uint32_t>(kSweepSize)},
                                         WahBitmap(), {})
                   .ok());
  // Bitset with nonzero slack bits above size.
  std::vector<uint64_t> slack(2, ~uint64_t{0});
  EXPECT_FALSE(ValueBitmap::FromRawParts(BitmapRep::kBitset, 100, {},
                                         WahBitmap(), slack)
                   .ok());
  // A canonical payload round-trips.
  std::vector<uint32_t> sparse = {1, 2, 3};
  EXPECT_TRUE(ValueBitmap::FromRawParts(BitmapRep::kArray, kSweepSize, sparse,
                                        WahBitmap(), {})
                  .ok());
}

// ---- Serde ---------------------------------------------------------------

TEST(CodecSerde, ValueBitmapRoundTripEveryRep) {
  for (const DensityClass& c : kClasses) {
    ValueBitmap vb = MakeRandom(kSweepSize, c.ones, 5 + c.ones);
    BinaryWriter w;
    WriteValueBitmap(vb, &w);
    BinaryReader r(w.buffer());
    ValueBitmap back = ReadValueBitmap(&r, kSweepSize).ValueOrDie();
    EXPECT_EQ(back, vb);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(CodecSerde, RejectsUnknownTag) {
  BinaryWriter w;
  w.U8(7);  // not a BitmapRep
  BinaryReader r(w.buffer());
  EXPECT_TRUE(ReadValueBitmap(&r, kSweepSize).status().IsCorruption());
}

TEST(CodecSerde, CatalogV3RoundTrip) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(Figure1TableR()).ok());
  ASSERT_TRUE(catalog.AddTable(RandomFdTable(800, 40, 9)->WithName("X")).ok());
  std::vector<uint8_t> image = SerializeCatalogV3(catalog, /*wal_lsn=*/77);
  uint64_t lsn = 0;
  Catalog back = DeserializeCatalog(image, &lsn).ValueOrDie();
  EXPECT_EQ(lsn, 77u);
  for (const std::string& name : catalog.TableNames()) {
    ExpectSameContent(*catalog.GetTable(name).ValueOrDie(),
                      *back.GetTable(name).ValueOrDie());
  }
}

TEST(CodecSerde, OlderImageVersionsStayReadable) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(RandomFdTable(500, 25, 3)).ok());
  for (std::vector<uint8_t> image :
       {SerializeCatalog(catalog), SerializeCatalogV2(catalog, 5)}) {
    Catalog back = DeserializeCatalog(image).ValueOrDie();
    ExpectSameContent(*catalog.GetTable("R").ValueOrDie(),
                      *back.GetTable("R").ValueOrDie());
    // Reloaded bitmaps land in their canonical codec representations.
    auto col = back.GetTable("R").ValueOrDie()->column(0);
    for (Vid v = 0; v < col->distinct_count(); ++v) {
      EXPECT_TRUE(col->bitmap(v).Validate(col->rows()).ok());
    }
  }
}

TEST(CodecSerde, V3BitFlipsAreDetected) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(RandomFdTable(300, 17, 4)).ok());
  std::vector<uint8_t> image = SerializeCatalogV3(catalog, 123);
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bad = image;
    size_t byte = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(bad.size()) - 1));
    bad[byte] ^= static_cast<uint8_t>(1u << rng.Uniform(0, 7));
    Result<Catalog> r = DeserializeCatalog(bad);
    // The footer CRC covers every preceding byte, so any single-bit
    // flip — header, payload, or the footer itself — must error.
    EXPECT_FALSE(r.ok()) << "flip at byte " << byte << " went undetected";
  }
}

TEST(CodecSerde, V3TruncationsAreDetected) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(Figure1TableR()).ok());
  std::vector<uint8_t> image = SerializeCatalogV3(catalog, 9);
  for (size_t len = 0; len < image.size(); ++len) {
    std::vector<uint8_t> prefix(image.begin(), image.begin() + len);
    EXPECT_FALSE(DeserializeCatalog(prefix).ok()) << "prefix length " << len;
  }
}

TEST(CodecStatsTest, PopcountHitsAccumulate) {
  uint64_t before =
      GlobalCodecStats().popcount_hits.load(std::memory_order_relaxed);
  ValueBitmap vb = MakeRandom(kSweepSize, 30, 1);
  (void)vb.CountOnes();
  (void)vb.CountOnes();
  uint64_t after =
      GlobalCodecStats().popcount_hits.load(std::memory_order_relaxed);
  EXPECT_GE(after - before, 2u);
}

}  // namespace
}  // namespace cods
