// Tests for evolution over RLE-encoded (sorted) columns — §2.2 notes
// run-length encoding for sorted columns; the operators must accept such
// tables, use RLE-native fast paths where available, and produce results
// identical to the bitmap-encoded equivalents.

#include "evolution/decompose.h"
#include "evolution/merge.h"
#include "evolution/simple_ops.h"
#include "gtest/gtest.h"
#include "query/query_engine.h"
#include "test_util.h"

namespace cods {
namespace {

using ::cods::testing::ExpectSameContent;
using ::cods::testing::SortedRows;

// R(K, V, P) sorted by K, with K and P declared sorted (RLE-encoded);
// FD K -> P holds.
std::shared_ptr<const Table> SortedFdTable(uint64_t rows,
                                           uint64_t distinct) {
  Schema schema({{"K", DataType::kInt64, true},   // sorted → RLE
                 {"V", DataType::kInt64, false},
                 {"P", DataType::kInt64, true}},  // sorted runs too
                {});
  TableBuilder builder("R", schema);
  for (uint64_t r = 0; r < rows; ++r) {
    int64_t k = static_cast<int64_t>(r * distinct / rows);
    EXPECT_TRUE(builder
                    .AppendRow({Value(k), Value(static_cast<int64_t>(r % 5)),
                                Value((k * 3 + 1) % 7)})
                    .ok());
  }
  return builder.Finish().ValueOrDie();
}

// The same data with every column bitmap-encoded.
std::shared_ptr<const Table> AsBitmapTable(const Table& src) {
  auto converted = ReencodeRleToWah(src);
  return converted ? converted : src.WithName(src.name());
}

TEST(RleEvolution, TableUsesRleEncoding) {
  auto r = SortedFdTable(1000, 50);
  EXPECT_EQ(r->column(0)->encoding(), ColumnEncoding::kRle);
  EXPECT_EQ(r->column(1)->encoding(), ColumnEncoding::kWahBitmap);
  EXPECT_EQ(r->column(2)->encoding(), ColumnEncoding::kRle);
  EXPECT_TRUE(r->ValidateInvariants().ok());
}

TEST(RleEvolution, DistinctionUsesRunList) {
  auto r = SortedFdTable(1000, 50);
  auto positions = DistinctionPositions(*r, {"K"}).ValueOrDie();
  EXPECT_EQ(positions.size(), 50u);
  // Sorted input: representative of value k is the first row of its run.
  EXPECT_EQ(positions[0], 0u);
  auto bitmap_version = AsBitmapTable(*r);
  EXPECT_EQ(positions,
            DistinctionPositions(*bitmap_version, {"K"}).ValueOrDie());
}

TEST(RleEvolution, DecomposePreservesRleEncodingAndContent) {
  auto r = SortedFdTable(2000, 40);
  auto rle_result =
      CodsDecompose(*r, "S", {"K", "V"}, {}, "T", {"K", "P"}, {"K"})
          .ValueOrDie();
  auto bm_result = CodsDecompose(*AsBitmapTable(*r), "S", {"K", "V"}, {},
                                 "T", {"K", "P"}, {"K"})
                       .ValueOrDie();
  ExpectSameContent(*rle_result.s, *bm_result.s);
  ExpectSameContent(*rle_result.t, *bm_result.t);
  // The generated T keeps RLE for its sorted columns (native filtering).
  EXPECT_EQ(rle_result.t->column(0)->encoding(), ColumnEncoding::kRle);
  EXPECT_TRUE(rle_result.t->ValidateInvariants().ok());
}

TEST(RleEvolution, MergeAcceptsRleInputs) {
  auto r = SortedFdTable(2000, 40);
  auto dec = CodsDecompose(*r, "S", {"K", "V"}, {}, "T", {"K", "P"}, {"K"})
                 .ValueOrDie();
  auto merged =
      CodsMerge(*dec.s, *dec.t, {"K"}, {}, "R2").ValueOrDie();
  EXPECT_TRUE(merged.used_key_fk);
  EXPECT_EQ(SortedRows(*merged.table), SortedRows(*r));

  auto general =
      CodsMergeGeneral(*dec.s, *dec.t, {"K"}, {}, "R3").ValueOrDie();
  EXPECT_EQ(SortedRows(*general), SortedRows(*r));
}

TEST(RleEvolution, PartitionAndUnionAcceptRleInputs) {
  auto r = SortedFdTable(1000, 20);
  auto part = PartitionTableOp(*r, "Low", "High", "K", CompareOp::kLt,
                               Value(int64_t{10}))
                  .ValueOrDie();
  EXPECT_EQ(part.matching->rows() + part.rest->rows(), 1000u);
  auto u =
      UnionTablesOp(*part.matching, *part.rest, "U", nullptr).ValueOrDie();
  EXPECT_EQ(SortedRows(*u), SortedRows(*r));
}

TEST(GroupBy, CountMatchesValueCounts) {
  auto r = SortedFdTable(1000, 10);
  // GROUP BY reads the group column's value bitmaps: V (r % 5) is WAH;
  // the RLE-encoded K is rejected rather than decoded.
  auto groups =
      QueryEngine::GroupByRows(*r, "V", {AggregateSpec::Count()}, nullptr)
          .ValueOrDie();
  ASSERT_EQ(groups.size(), 5u);
  uint64_t total = 0;
  for (const GroupRow& group : groups) {
    const uint64_t count =
        static_cast<uint64_t>(group.aggregates[0].int64());
    EXPECT_EQ(count, 200u) << group.group.ToString();
    total += count;
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_TRUE(
      QueryEngine::GroupByRows(*r, "K", {AggregateSpec::Count()}, nullptr)
          .status()
          .IsInvalidArgument());
}

TEST(GroupBy, SumMatchesNaiveAggregation) {
  auto r = testing::RandomFdTable(3000, 30, 5);
  auto sums =
      QueryEngine::GroupByRows(*r, "K", {AggregateSpec::Sum("V")}, nullptr)
          .ValueOrDie();
  // Naive oracle over materialized rows.
  std::map<Value, double> expected;
  for (const Row& row : r->Materialize()) {
    expected[row[0]] += static_cast<double>(row[1].int64());
  }
  ASSERT_EQ(sums.size(), expected.size());
  for (const GroupRow& group : sums) {
    EXPECT_DOUBLE_EQ(group.aggregates[0].dbl(), expected.at(group.group))
        << group.group.ToString();
  }
}

TEST(GroupBy, SumRejectsStringMeasure) {
  auto r = testing::Figure1TableR();
  EXPECT_TRUE(QueryEngine::GroupByRows(*r, "Employee",
                                       {AggregateSpec::Sum("Skill")}, nullptr)
                  .status()
                  .IsTypeError());
}

}  // namespace
}  // namespace cods
