// Evolution over SORTED-declared tables. A column declared SORTED was
// once stored run-length encoded; images holding such columns now load
// into the one bitmap encoding (storage/serde.h). Every operator must
// answer on a SORTED-declared input exactly as on the same rows stored
// plainly.

#include <tuple>

#include "evolution/decompose.h"
#include "evolution/merge.h"
#include "evolution/simple_ops.h"
#include "gtest/gtest.h"
#include "query/query_engine.h"
#include "test_util.h"

namespace cods {
namespace {

using ::cods::testing::ExpectSameContent;
using ::cods::testing::LoadAsSortedDeclared;
using ::cods::testing::SortedRows;

// R(K, V, P) clustered by K; FD K -> P holds.
std::shared_ptr<const Table> ClusteredFdTable(uint64_t rows,
                                              uint64_t distinct) {
  Schema schema({{"K", DataType::kInt64},
                 {"V", DataType::kInt64},
                 {"P", DataType::kInt64}},
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

// The same rows with K and P declared SORTED (loaded from their legacy
// run-length image).
std::shared_ptr<const Table> SortedDeclared(const Table& plain) {
  return LoadAsSortedDeclared(plain, {"K", "P"});
}

TEST(SortedDeclaredEvolution, LoadsAsThePlainTable) {
  auto plain = ClusteredFdTable(1000, 50);
  auto sorted = SortedDeclared(*plain);
  EXPECT_TRUE(sorted->ValidateInvariants().ok());
  EXPECT_EQ(sorted->Materialize(), plain->Materialize());
  for (size_t i = 0; i < plain->num_columns(); ++i) {
    EXPECT_EQ(sorted->column(i)->bitmaps(), plain->column(i)->bitmaps())
        << "column " << i;
  }
}

TEST(SortedDeclaredEvolution, DistinctionMatchesPlain) {
  auto plain = ClusteredFdTable(1000, 50);
  auto positions =
      DistinctionPositions(*SortedDeclared(*plain), {"K"}).ValueOrDie();
  EXPECT_EQ(positions.size(), 50u);
  // Clustered input: the representative of value k is its first row.
  EXPECT_EQ(positions[0], 0u);
  EXPECT_EQ(positions, DistinctionPositions(*plain, {"K"}).ValueOrDie());
}

TEST(SortedDeclaredEvolution, DecomposeMatchesPlain) {
  auto plain = ClusteredFdTable(2000, 40);
  auto sorted_result = CodsDecompose(*SortedDeclared(*plain), "S", {"K", "V"},
                                     {}, "T", {"K", "P"}, {"K"})
                           .ValueOrDie();
  auto plain_result =
      CodsDecompose(*plain, "S", {"K", "V"}, {}, "T", {"K", "P"}, {"K"})
          .ValueOrDie();
  ExpectSameContent(*sorted_result.s, *plain_result.s);
  ExpectSameContent(*sorted_result.t, *plain_result.t);
  EXPECT_TRUE(sorted_result.t->ValidateInvariants().ok());
}

TEST(SortedDeclaredEvolution, MergeMatchesPlain) {
  auto plain = ClusteredFdTable(2000, 40);
  auto dec = CodsDecompose(*SortedDeclared(*plain), "S", {"K", "V"}, {}, "T",
                           {"K", "P"}, {"K"})
                 .ValueOrDie();
  auto merged =
      CodsMerge(*dec.s, *dec.t, {"K"}, {}, "R2").ValueOrDie();
  EXPECT_TRUE(merged.used_key_fk);
  EXPECT_EQ(SortedRows(*merged.table), SortedRows(*plain));

  auto general =
      CodsMergeGeneral(*dec.s, *dec.t, {"K"}, {}, "R3").ValueOrDie();
  EXPECT_EQ(SortedRows(*general), SortedRows(*plain));
}

TEST(SortedDeclaredEvolution, PartitionAndUnionMatchPlain) {
  auto plain = ClusteredFdTable(1000, 20);
  auto sorted = SortedDeclared(*plain);
  auto part = PartitionTableOp(*sorted, "Low", "High", "K", CompareOp::kLt,
                               Value(int64_t{10}))
                  .ValueOrDie();
  auto plain_part = PartitionTableOp(*plain, "Low", "High", "K",
                                     CompareOp::kLt, Value(int64_t{10}))
                        .ValueOrDie();
  EXPECT_EQ(part.matching->rows() + part.rest->rows(), 1000u);
  ExpectSameContent(*part.matching, *plain_part.matching);
  ExpectSameContent(*part.rest, *plain_part.rest);
  auto u =
      UnionTablesOp(*part.matching, *part.rest, "U", nullptr).ValueOrDie();
  EXPECT_EQ(SortedRows(*u), SortedRows(*plain));
}

TEST(GroupBy, CountMatchesValueCounts) {
  auto r = SortedDeclared(*ClusteredFdTable(1000, 10));
  // GROUP BY reads the group column's value bitmaps, the SORTED-declared
  // K (10 × 100 rows) included, as well as V (r % 5, 5 × 200 rows).
  for (const auto& [column, groups_expected, rows_per_group] :
       {std::tuple<const char*, size_t, uint64_t>{"V", 5, 200},
        std::tuple<const char*, size_t, uint64_t>{"K", 10, 100}}) {
    auto groups = QueryEngine::GroupByRows(*r, column,
                                           {AggregateSpec::Count()}, nullptr)
                      .ValueOrDie();
    ASSERT_EQ(groups.size(), groups_expected) << column;
    uint64_t total = 0;
    for (const GroupRow& group : groups) {
      const uint64_t count =
          static_cast<uint64_t>(group.aggregates[0].int64());
      EXPECT_EQ(count, rows_per_group)
          << column << " " << group.group.ToString();
      total += count;
    }
    EXPECT_EQ(total, 1000u) << column;
  }
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
