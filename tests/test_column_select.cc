// Single-table selections on the column store: comparison, IN and
// conjunction predicates evaluated through EvalExpr and the table-level
// QueryEngine entry points, checked on Figure 1's R and against a naive
// row-at-a-time scan.

#include "query/expr.h"
#include "query/query_engine.h"

#include "gtest/gtest.h"
#include "storage/value_compare.h"
#include "test_util.h"
#include "workload/generator.h"

namespace cods {
namespace {

using ::cods::testing::Figure1TableR;
using ::cods::testing::MakeTable;

ExprPtr JonesExpr() {
  return Expr::Compare("Employee", CompareOp::kEq, Value("Jones"));
}

TEST(TableSelection, EqualityLeafSelectsMatchingPositions) {
  auto r = Figure1TableR();
  auto sel = EvalExpr(*r, JonesExpr());
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  EXPECT_EQ(sel->size(), 7u);
  EXPECT_EQ(sel->SetPositions(), (std::vector<uint64_t>{0, 1, 4}));
}

TEST(TableSelection, RangeAndNotEqualCountOnNumbers) {
  Schema schema({{"x", DataType::kInt64}});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({Value(i)});
  auto t = MakeTable("T", schema, rows);
  auto count = [&](CompareOp op, int64_t v) {
    return QueryEngine::CountRows(*t, Expr::Compare("x", op, Value(v)))
        .ValueOrDie();
  };
  EXPECT_EQ(count(CompareOp::kGe, 90), 10u);
  EXPECT_EQ(count(CompareOp::kNe, 5), 99u);
}

TEST(TableSelection, InLeafCountsEveryListedValue) {
  auto r = Figure1TableR();
  auto count = QueryEngine::CountRows(
      *r, Expr::In("Employee", {Value("Ellis"), Value("Roberts")}));
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 3u);
}

TEST(TableSelection, ConjunctionNarrowsToEmpty) {
  auto r = Figure1TableR();
  std::vector<ExprPtr> leaves = {
      Expr::Compare("Address", CompareOp::kEq, Value("425 Grant Ave")),
      Expr::Compare("Skill", CompareOp::kEq, Value("Light Cleaning")),
  };
  EXPECT_EQ(QueryEngine::CountRows(*r, Expr::And(leaves)).ValueOrDie(),
            1u);  // Harrison
  leaves.push_back(
      Expr::Compare("Employee", CompareOp::kEq, Value("Nobody")));
  EXPECT_EQ(QueryEngine::CountRows(*r, Expr::And(leaves)).ValueOrDie(), 0u);
}

TEST(TableSelection, SelectBuildsValidTableAndFetchesTuples) {
  auto r = Figure1TableR();
  auto jones = QueryEngine::SelectRows(*r, {}, JonesExpr(), "Jones");
  ASSERT_TRUE(jones.ok()) << jones.status().ToString();
  EXPECT_EQ((*jones)->rows(), 3u);
  EXPECT_TRUE((*jones)->ValidateInvariants().ok());
  for (const Row& row : (*jones)->Materialize()) {
    EXPECT_EQ(row[0], Value("Jones"));
  }

  auto alchemy = QueryEngine::SelectRows(
      *r, {}, Expr::Compare("Skill", CompareOp::kEq, Value("Alchemy")),
      "alchemy");
  ASSERT_TRUE(alchemy.ok()) << alchemy.status().ToString();
  const std::vector<Row> rows = (*alchemy)->Materialize();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value("Ellis"));
}

TEST(TableSelection, MissingColumnErrors) {
  auto r = Figure1TableR();
  auto sel =
      EvalExpr(*r, Expr::Compare("Nope", CompareOp::kEq, Value("x")));
  ASSERT_FALSE(sel.ok());
  EXPECT_NE(sel.status().message().find("Nope"), std::string::npos);
}

struct SelectParam {
  uint64_t rows;
  uint64_t distinct;
  int64_t threshold;
};

class TableSelectionProperty : public ::testing::TestWithParam<SelectParam> {
};

TEST_P(TableSelectionProperty, CountAgreesWithNaiveScan) {
  const SelectParam p = GetParam();
  WorkloadSpec spec;
  spec.num_rows = p.rows;
  spec.num_distinct = p.distinct;
  auto r = GenerateEvolutionTable(spec).ValueOrDie();
  const std::vector<Row> decoded = r->Materialize();

  for (CompareOp op : {CompareOp::kEq, CompareOp::kLt, CompareOp::kGe,
                       CompareOp::kNe}) {
    uint64_t fast =
        QueryEngine::CountRows(
            *r, Expr::Compare(kKeyColumn, op, Value(p.threshold)))
            .ValueOrDie();
    uint64_t naive = 0;
    for (const Row& row : decoded) {
      if (EvalCompare(row[0], op, Value(p.threshold))) ++naive;
    }
    EXPECT_EQ(fast, naive) << CompareOpToString(op);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TableSelectionProperty,
    ::testing::Values(SelectParam{100, 10, 5}, SelectParam{1000, 50, 25},
                      SelectParam{5000, 500, 100},
                      SelectParam{5000, 500, -1},
                      SelectParam{5000, 500, 10000}),
    [](const ::testing::TestParamInfo<SelectParam>& info) {
      std::string t = info.param.threshold < 0
                          ? "neg"
                          : std::to_string(info.param.threshold);
      return "r" + std::to_string(info.param.rows) + "_d" +
             std::to_string(info.param.distinct) + "_t" + t;
    });

}  // namespace
}  // namespace cods
