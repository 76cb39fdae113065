// Tests for the simple SMOs: create/copy, union, partition, and the
// column-level operators.

#include "evolution/simple_ops.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace cods {
namespace {

using ::cods::testing::ExpectSameContent;
using ::cods::testing::Figure1TableR;
using ::cods::testing::MakeTable;
using ::cods::testing::SortedRows;

TEST(SimpleOps, MakeEmptyTable) {
  Schema schema({{"a", DataType::kInt64},
                 {"b", DataType::kString}},
                {"a"});
  auto table = MakeEmptyTable("t", schema).ValueOrDie();
  EXPECT_EQ(table->rows(), 0u);
  EXPECT_EQ(table->num_columns(), 2u);
  EXPECT_TRUE(table->Materialize().empty());
  EXPECT_TRUE(table->ValidateInvariants().ok());
}

TEST(SimpleOps, ShallowCopySharesColumns) {
  auto r = Figure1TableR();
  auto copy = CopyTableOp(*r, "R2", /*deep=*/false).ValueOrDie();
  EXPECT_EQ(copy->name(), "R2");
  EXPECT_EQ(copy->column(0).get(), r->column(0).get());
  ExpectSameContent(*r, *copy);
}

TEST(SimpleOps, DeepCopyDuplicatesStorage) {
  auto r = Figure1TableR();
  auto copy = CopyTableOp(*r, "R2", /*deep=*/true).ValueOrDie();
  EXPECT_NE(copy->column(0).get(), r->column(0).get());
  ExpectSameContent(*r, *copy);
  EXPECT_TRUE(copy->ValidateInvariants().ok());
}

TEST(Union, ConcatenatesTuplesAndDictionaries) {
  Schema schema({{"k", DataType::kInt64},
                 {"v", DataType::kString}},
                {});
  auto a = MakeTable("A", schema,
                     {{Value(int64_t{1}), Value("x")},
                      {Value(int64_t{2}), Value("y")}});
  auto b = MakeTable("B", schema,
                     {{Value(int64_t{2}), Value("z")},
                      {Value(int64_t{3}), Value("x")}});
  RecordingObserver observer;
  auto u = UnionTablesOp(*a, *b, "U", &observer).ValueOrDie();
  EXPECT_EQ(u->rows(), 4u);
  EXPECT_TRUE(u->ValidateInvariants().ok());
  EXPECT_TRUE(observer.HasStep("concat"));
  std::vector<Row> rows = u->Materialize();
  EXPECT_EQ(rows[0], (Row{Value(int64_t{1}), Value("x")}));
  EXPECT_EQ(rows[2], (Row{Value(int64_t{2}), Value("z")}));
  EXPECT_EQ(rows[3], (Row{Value(int64_t{3}), Value("x")}));
}

TEST(Union, RequiresSameLayout) {
  auto r = Figure1TableR();
  Schema other({{"x", DataType::kInt64}});
  auto b = MakeTable("B", other, {{Value(int64_t{1})}});
  EXPECT_FALSE(UnionTablesOp(*r, *b, "U", nullptr).ok());
}

TEST(Union, WithSelfDoublesRows) {
  auto r = Figure1TableR();
  auto u = UnionTablesOp(*r, *r, "U", nullptr).ValueOrDie();
  EXPECT_EQ(u->rows(), 14u);
  EXPECT_TRUE(u->ValidateInvariants().ok());
}

TEST(Partition, SplitsByPredicate) {
  auto r = Figure1TableR();
  RecordingObserver observer;
  auto result = PartitionTableOp(*r, "Grant", "Rest", "Address",
                                 CompareOp::kEq, Value("425 Grant Ave"),
                                 &observer)
                    .ValueOrDie();
  EXPECT_EQ(result.matching->rows(), 4u);
  EXPECT_EQ(result.rest->rows(), 3u);
  EXPECT_TRUE(result.matching->ValidateInvariants().ok());
  EXPECT_TRUE(result.rest->ValidateInvariants().ok());
  EXPECT_TRUE(observer.HasStep("select"));
  EXPECT_TRUE(observer.HasStep("filtering"));
  for (const Row& row : result.matching->Materialize()) {
    EXPECT_EQ(row[2], Value("425 Grant Ave"));
  }
  for (const Row& row : result.rest->Materialize()) {
    EXPECT_NE(row[2], Value("425 Grant Ave"));
  }
}

TEST(Partition, NumericRangePredicates) {
  Schema schema({{"id", DataType::kInt64}});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({Value(i)});
  auto t = MakeTable("T", schema, rows);
  auto result = PartitionTableOp(*t, "Low", "High", "id", CompareOp::kLt,
                                 Value(int64_t{30}), nullptr)
                    .ValueOrDie();
  EXPECT_EQ(result.matching->rows(), 30u);
  EXPECT_EQ(result.rest->rows(), 70u);

  // Union of the parts restores the original multiset.
  auto u = UnionTablesOp(*result.matching, *result.rest, "U", nullptr)
               .ValueOrDie();
  EXPECT_EQ(SortedRows(*u), SortedRows(*t));
}

TEST(Partition, EmptySideIsFine) {
  auto r = Figure1TableR();
  auto result = PartitionTableOp(*r, "None", "All", "Employee",
                                 CompareOp::kEq, Value("Nobody"), nullptr)
                    .ValueOrDie();
  EXPECT_EQ(result.matching->rows(), 0u);
  EXPECT_EQ(result.rest->rows(), 7u);
}

TEST(Partition, MissingColumnErrors) {
  auto r = Figure1TableR();
  EXPECT_FALSE(PartitionTableOp(*r, "A", "B", "Nope", CompareOp::kEq,
                                Value("x"), nullptr)
                   .ok());
}

TEST(AddColumn, ConstantDefaultIsOneFill) {
  auto r = Figure1TableR();
  auto out = AddColumnOp(*r, {"Grade", DataType::kInt64},
                         Value(int64_t{1}))
                 .ValueOrDie();
  EXPECT_EQ(out->num_columns(), 4u);
  EXPECT_EQ(out->rows(), 7u);
  // Existing columns reused by pointer; new column is a single bitmap.
  EXPECT_EQ(out->column(0).get(), r->column(0).get());
  auto grade = out->ColumnByName("Grade").ValueOrDie();
  EXPECT_EQ(grade->distinct_count(), 1u);
  // The default column is a single all-ones run: the codec keeps the
  // homogeneous bitmap on WAH (at most one code word regardless of
  // table size — 7 rows fit entirely in the tail group).
  EXPECT_EQ(grade->bitmap(0).rep(), BitmapRep::kWah);
  EXPECT_LE(grade->bitmap(0).wah().NumWords(), 1u);
  EXPECT_EQ(grade->bitmap(0).CountOnes(), 7u);
  EXPECT_TRUE(out->ValidateInvariants().ok());
}

TEST(AddColumn, TypeMismatchRejected) {
  auto r = Figure1TableR();
  EXPECT_FALSE(AddColumnOp(*r, {"Grade", DataType::kInt64},
                           Value("not int"))
                   .ok());
}

TEST(AddColumn, WithDataLoadsValues) {
  auto r = Figure1TableR();
  std::vector<Value> grades;
  for (int64_t i = 0; i < 7; ++i) grades.push_back(Value(i % 3));
  auto out = AddColumnWithDataOp(*r, {"Grade", DataType::kInt64},
                                 grades)
                 .ValueOrDie();
  EXPECT_EQ(out->GetValue(5, 3), Value(int64_t{5 % 3}));
  EXPECT_TRUE(out->ValidateInvariants().ok());
  // Wrong length rejected.
  EXPECT_FALSE(AddColumnWithDataOp(*r, {"G2", DataType::kInt64},
                                   {Value(int64_t{1})})
                   .ok());
}

TEST(DropColumn, RemovesOnlyThatColumn) {
  auto r = Figure1TableR();
  auto out = DropColumnOp(*r, "Address").ValueOrDie();
  EXPECT_EQ(out->num_columns(), 2u);
  EXPECT_EQ(out->column(0).get(), r->column(0).get());
  EXPECT_FALSE(out->schema().HasColumn("Address"));
  EXPECT_FALSE(DropColumnOp(*r, "Nope").ok());
}

TEST(RenameColumn, SchemaOnlyChange) {
  auto r = Figure1TableR();
  auto out = RenameColumnOp(*r, "Address", "Addr").ValueOrDie();
  EXPECT_TRUE(out->schema().HasColumn("Addr"));
  EXPECT_EQ(out->column(2).get(), r->column(2).get());
  EXPECT_FALSE(RenameColumnOp(*r, "Nope", "X").ok());
  EXPECT_FALSE(RenameColumnOp(*r, "Address", "Skill").ok());
}

}  // namespace
}  // namespace cods
