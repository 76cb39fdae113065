// Tests for the composable predicate AST: construction, rendering,
// normalization (De Morgan push-down, comparison negation, same-kind
// flattening), and compressed-domain evaluation checked against a naive
// row-at-a-time oracle.

#include "query/expr.h"
#include "storage/value_compare.h"

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/random.h"
#include "gtest/gtest.h"
#include "server/admission.h"
#include "test_util.h"
#include "workload/generator.h"

namespace cods {
namespace {

using ::cods::testing::Figure1TableR;
using ::cods::testing::MakeTable;

// Row-at-a-time oracle for arbitrary trees (the slow path the AST
// replaces).
bool NaiveMatches(const Expr& e, const Row& row, const Schema& schema) {
  switch (e.kind) {
    case ExprKind::kCompare:
    case ExprKind::kIn:
    case ExprKind::kBetween: {
      size_t idx = schema.ColumnIndex(e.column).ValueOrDie();
      return e.LeafMatches(row[idx]);
    }
    case ExprKind::kNot:
      return !NaiveMatches(*e.children[0], row, schema);
    case ExprKind::kAnd:
      for (const ExprPtr& c : e.children) {
        if (!NaiveMatches(*c, row, schema)) return false;
      }
      return true;
    case ExprKind::kOr:
      for (const ExprPtr& c : e.children) {
        if (NaiveMatches(*c, row, schema)) return true;
      }
      return false;
  }
  return false;
}

// EvalExpr and EvalExprCount against the row-at-a-time oracle over
// `rows` (the table's decoded rows). The selection must also be a
// valid, canonical container of the table's length.
void ExpectAgreesWithNaive(const Table& table, const ExprPtr& expr,
                           const std::vector<Row>& rows) {
  auto bm = EvalExpr(table, expr);
  ASSERT_TRUE(bm.ok()) << bm.status().ToString();
  EXPECT_TRUE(bm->Validate(table.rows()).ok())
      << expr->ToString() << ": " << bm->Validate(table.rows()).ToString();
  std::vector<uint64_t> selected = bm->SetPositions();
  std::vector<uint64_t> naive;
  for (uint64_t r = 0; r < rows.size(); ++r) {
    if (NaiveMatches(*expr, rows[r], table.schema())) naive.push_back(r);
  }
  EXPECT_EQ(selected, naive) << expr->ToString();
  // The count-only path must agree with the materialized one.
  auto count = EvalExprCount(table, expr);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, naive.size()) << expr->ToString();
}

void ExpectAgreesWithNaive(const Table& table, const ExprPtr& expr) {
  ExpectAgreesWithNaive(table, expr, table.Materialize());
}

TEST(Expr, LeafKinds) {
  auto r = Figure1TableR();
  ExpectAgreesWithNaive(
      *r, Expr::Compare("Employee", CompareOp::kEq, Value("Jones")));
  ExpectAgreesWithNaive(
      *r, Expr::In("Employee", {Value("Ellis"), Value("Roberts")}));
  ExpectAgreesWithNaive(*r,
                        Expr::Between("Employee", Value("E"), Value("K")));
}

TEST(Expr, NestedBooleanStructure) {
  auto r = Figure1TableR();
  // a = 'x' AND (b > 3 OR NOT c IN (...)) — the acceptance shape.
  ExpectAgreesWithNaive(
      *r,
      Expr::And({Expr::Compare("Address", CompareOp::kEq,
                               Value("425 Grant Ave")),
                 Expr::Or({Expr::Compare("Skill", CompareOp::kGt,
                                         Value("Typing")),
                           Expr::Not(Expr::In(
                               "Employee",
                               {Value("Jones"), Value("Harrison")}))})}));
  // Deep alternation with double negation.
  ExpectAgreesWithNaive(
      *r, Expr::Not(Expr::Or(
              {Expr::Not(Expr::Compare("Employee", CompareOp::kNe,
                                       Value("Ellis"))),
               Expr::And({Expr::Compare("Skill", CompareOp::kLt,
                                        Value("Juggling")),
                          Expr::Not(Expr::Between("Address", Value("4"),
                                                  Value("5")))})})));
}

TEST(Expr, ToStringRendersGrammar) {
  ExprPtr e = Expr::And(
      {Expr::Compare("a", CompareOp::kEq, Value("x")),
       Expr::Or({Expr::Compare("b", CompareOp::kGt, Value(int64_t{3})),
                 Expr::Not(Expr::In("c", {Value(int64_t{1}),
                                          Value(int64_t{2})}))})});
  EXPECT_EQ(e->ToString(), "a = 'x' AND (b > 3 OR NOT c IN (1, 2))");
  EXPECT_EQ(Expr::Between("x", Value(1.5), Value(int64_t{9}))->ToString(),
            "x BETWEEN 1.5 AND 9");
  EXPECT_EQ(Expr::Not(Expr::And({Expr::Compare("a", CompareOp::kLe,
                                               Value(int64_t{0})),
                                 Expr::Compare("b", CompareOp::kGe,
                                               Value(int64_t{0}))}))
                ->ToString(),
            "NOT (a <= 0 AND b >= 0)");
}

TEST(Expr, NormalizePushesNotThroughDeMorgan) {
  // NOT (a = 1 AND b = 2)  =>  a != 1 OR b != 2 (comparisons absorb).
  ExprPtr e = Expr::Not(
      Expr::And({Expr::Compare("a", CompareOp::kEq, Value(int64_t{1})),
                 Expr::Compare("b", CompareOp::kEq, Value(int64_t{2}))}));
  ExprPtr n = NormalizeExpr(e);
  EXPECT_EQ(n->ToString(), "a != 1 OR b != 2");
  // Double NOT cancels.
  EXPECT_EQ(NormalizeExpr(Expr::Not(Expr::Not(
                              Expr::Compare("a", CompareOp::kLt,
                                            Value(int64_t{5})))))
                ->ToString(),
            "a < 5");
  // NOT over IN survives as a residual complement above the leaf.
  ExprPtr not_in = NormalizeExpr(
      Expr::Not(Expr::In("c", {Value(int64_t{1})})));
  EXPECT_EQ(not_in->kind, ExprKind::kNot);
  EXPECT_EQ(not_in->children[0]->kind, ExprKind::kIn);
}

TEST(Expr, NormalizeFlattensSameKindChildren) {
  // (a AND (b AND c)) AND d  =>  one 4-way AND feeding one k-way kernel.
  auto leaf = [](const char* col) {
    return Expr::Compare(col, CompareOp::kEq, Value(int64_t{0}));
  };
  ExprPtr nested = Expr::And(
      {Expr::And({leaf("a"), Expr::And({leaf("b"), leaf("c")})}), leaf("d")});
  ExprPtr flat = NormalizeExpr(nested);
  EXPECT_EQ(flat->kind, ExprKind::kAnd);
  EXPECT_EQ(flat->children.size(), 4u);
  // De Morgan exposes flattening across the flipped node too:
  // NOT (a OR (b OR c)) => AND of three negated leaves.
  ExprPtr flipped = NormalizeExpr(
      Expr::Not(Expr::Or({leaf("a"), Expr::Or({leaf("b"), leaf("c")})})));
  EXPECT_EQ(flipped->kind, ExprKind::kAnd);
  EXPECT_EQ(flipped->children.size(), 3u);
}

TEST(Expr, NormalizationPreservesSemantics) {
  auto r = Figure1TableR();
  ExprPtr e = Expr::Not(Expr::Or(
      {Expr::Compare("Employee", CompareOp::kEq, Value("Jones")),
       Expr::Not(Expr::And(
           {Expr::In("Skill", {Value("Alchemy"), Value("Juggling")}),
            Expr::Compare("Address", CompareOp::kGt, Value("5"))}))}));
  auto ref = EvalExpr(*r, e);
  auto norm = EvalExpr(*r, NormalizeExpr(e));
  ASSERT_TRUE(ref.ok() && norm.ok());
  EXPECT_TRUE(*ref == *norm);  // code-word identical (canonical form)
}

TEST(Expr, ExprEqualsComparesStructure) {
  ExprPtr a = Expr::And({Expr::Compare("a", CompareOp::kEq, Value("x")),
                         Expr::In("b", {Value(int64_t{1})})});
  ExprPtr b = Expr::And({Expr::Compare("a", CompareOp::kEq, Value("x")),
                         Expr::In("b", {Value(int64_t{1})})});
  ExprPtr c = Expr::And({Expr::Compare("a", CompareOp::kNe, Value("x")),
                         Expr::In("b", {Value(int64_t{1})})});
  EXPECT_TRUE(ExprEquals(*a, *b));
  EXPECT_FALSE(ExprEquals(*a, *c));
}

TEST(Expr, UnknownColumnErrorsAtBindTime) {
  auto r = Figure1TableR();
  auto result = EvalExpr(
      *r, Expr::And({Expr::Compare("Employee", CompareOp::kEq,
                                   Value("Jones")),
                     Expr::Compare("Nope", CompareOp::kEq, Value("x"))}));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("Nope"), std::string::npos);
}

TEST(Expr, ComparisonNegationExactAcrossNumericTypes) {
  // EvalCompare derives every operator from the total Value order, so
  // int64 3 vs double 3.0 behaves numerically and NOT-lowering through
  // NegateCompareOp is exact even for cross-type literals.
  Value i3(int64_t{3}), d3(3.0);
  EXPECT_TRUE(EvalCompare(i3, CompareOp::kEq, d3));
  EXPECT_TRUE(EvalCompare(i3, CompareOp::kLe, d3));
  EXPECT_TRUE(EvalCompare(i3, CompareOp::kGe, d3));
  EXPECT_FALSE(EvalCompare(i3, CompareOp::kNe, d3));
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    for (const Value& lhs : {i3, d3, Value(2.5), Value(int64_t{4})}) {
      EXPECT_EQ(EvalCompare(lhs, NegateCompareOp(op), d3),
                !EvalCompare(lhs, op, d3))
          << CompareOpToString(op) << " on " << lhs.ToString();
    }
  }
  // End to end: NOT K < 3.0 on an int64 column keeps K = 3.
  Schema schema({{"K", DataType::kInt64}});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 6; ++i) rows.push_back({Value(i)});
  auto t = MakeTable("T", schema, rows);
  auto count = EvalExprCount(
      *t, Expr::Not(Expr::Compare("K", CompareOp::kLt, Value(3.0))));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);  // 3, 4, 5
}

TEST(Expr, NanOrdersTotallyAndEqualsOnlyItself) {
  // Value's order places NaN after every real number (IEEE `<` alone
  // would make NaN order-equal to everything and break both sorting
  // and complement lowering).
  const Value nan(std::nan(""));
  const Value five(5.0);
  EXPECT_FALSE(EvalCompare(nan, CompareOp::kEq, five));
  EXPECT_TRUE(EvalCompare(nan, CompareOp::kNe, five));
  EXPECT_TRUE(EvalCompare(nan, CompareOp::kGt, five));
  EXPECT_TRUE(EvalCompare(nan, CompareOp::kGt, Value(int64_t{5})));
  EXPECT_TRUE(EvalCompare(nan, CompareOp::kEq, nan));
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    EXPECT_EQ(EvalCompare(nan, NegateCompareOp(op), five),
              !EvalCompare(nan, op, five))
        << CompareOpToString(op);
  }
}

TEST(Expr, NotIsExactComplement) {
  auto r = Figure1TableR();
  ExprPtr inner = Expr::In("Employee", {Value("Jones"), Value("Ellis")});
  auto pos = EvalExpr(*r, inner);
  auto neg = EvalExpr(*r, Expr::Not(inner));
  ASSERT_TRUE(pos.ok() && neg.ok());
  EXPECT_EQ(pos->CountOnes() + neg->CountOnes(), r->rows());
  // Bit-level: the union is all rows, the intersection empty.
  EXPECT_EQ(CodecAndCount(*pos, *neg), 0u);
}

// Property sweep on generated data: random-ish nested trees vs naive.
TEST(Expr, PropertySweepOnGeneratedTable) {
  WorkloadSpec spec;
  spec.num_rows = 5000;
  spec.num_distinct = 200;
  spec.payload_distinct = 40;
  spec.dependent_distinct = 12;
  auto r = GenerateEvolutionTable(spec).ValueOrDie();
  for (int64_t pivot : {int64_t{0}, int64_t{17}, int64_t{100}, int64_t{5000}}) {
    ExprPtr e = Expr::Or(
        {Expr::And({Expr::Compare(kKeyColumn, CompareOp::kLt, Value(pivot)),
                    Expr::Not(Expr::Compare(kPayloadColumn, CompareOp::kGe,
                                            Value(int64_t{20})))}),
         Expr::Between(kDependentColumn, Value(int64_t{3}),
                       Value(int64_t{7})),
         Expr::Not(Expr::In(kPayloadColumn,
                            {Value(int64_t{1}), Value(int64_t{2}),
                             Value(pivot)}))});
    ExpectAgreesWithNaive(*r, e);
  }
}

// Selections of every container, on both sides of each density
// boundary, through leaves, residual NOTs and mixed AND/OR nodes. Over
// 6400 rows a selection of at most 100 rows is an array, one of at least
// 1600 rows a bitset, and anything between (or empty, or full) WAH.
// Every result must be the canonical container of its content.
TEST(Expr, SelectionContainersAcrossDensityBoundaries) {
  constexpr int64_t kRows = 6400;
  Rng rng(20261019);
  // K and J: two independent permutations of 0..rows-1, so `K < n`
  // selects exactly n scattered rows. G: 20 values of about 320 rows
  // each (WAH), H: 3 values of about 2133 rows each (bitsets).
  const std::vector<uint64_t> k_perm = rng.Permutation(kRows);
  const std::vector<uint64_t> j_perm = rng.Permutation(kRows);
  Schema schema({{"K", DataType::kInt64},
                 {"J", DataType::kInt64},
                 {"G", DataType::kInt64},
                 {"H", DataType::kInt64}},
                {});
  std::vector<Row> rows;
  for (int64_t r = 0; r < kRows; ++r) {
    rows.push_back({Value(static_cast<int64_t>(k_perm[r])),
                    Value(static_cast<int64_t>(j_perm[r])),
                    Value(rng.Uniform(0, 19)), Value(rng.Uniform(0, 2))});
  }
  auto t = MakeTable("T", schema, rows);
  auto i64 = [](int64_t v) { return Value(v); };
  auto below = [&](const char* col, int64_t n) {
    return Expr::Compare(col, CompareOp::kLt, i64(n));
  };

  // Leaves at and around rows/64 = 100 and (rows+3)/4 = 1600.
  const int64_t sizes[] = {0, 1, 99, 100, 101, 1599, 1600, 1601, kRows};
  const BitmapRep reps[] = {BitmapRep::kWah,    BitmapRep::kArray,
                            BitmapRep::kArray,  BitmapRep::kArray,
                            BitmapRep::kWah,    BitmapRep::kWah,
                            BitmapRep::kBitset, BitmapRep::kBitset,
                            BitmapRep::kWah};
  for (size_t i = 0; i < std::size(sizes); ++i) {
    auto bm = EvalExpr(*t, below("K", sizes[i]));
    ASSERT_TRUE(bm.ok());
    EXPECT_EQ(bm->rep(), reps[i]) << "K < " << sizes[i];
    EXPECT_EQ(bm->CountOnes(), static_cast<uint64_t>(sizes[i]));
    ExpectAgreesWithNaive(*t, below("K", sizes[i]), rows);
  }

  // A residual NOT over a leaf of each container.
  std::vector<ExprPtr> pool;
  for (int64_t n : {int64_t{0}, int64_t{50}, int64_t{1000}, int64_t{3000},
                    kRows}) {
    ExprPtr leaf = Expr::Between("J", i64(0), i64(n - 1));
    ExpectAgreesWithNaive(*t, Expr::Not(leaf), rows);
    pool.push_back(leaf);
    pool.push_back(Expr::Not(leaf));
  }
  // Unions of WAH values, of bitsets and of many arrays (the dense
  // accumulator), and of few arrays (the position merge).
  pool.push_back(Expr::In("G", {i64(1), i64(5), i64(7)}));
  pool.push_back(Expr::Not(Expr::In("G", {i64(2), i64(3)})));
  pool.push_back(Expr::In("H", {i64(0), i64(2)}));
  pool.push_back(Expr::Compare("H", CompareOp::kEq, i64(1)));
  pool.push_back(below("K", 101));
  pool.push_back(below("K", 1601));
  pool.push_back(Expr::In("K", {i64(3), i64(9), i64(4000)}));
  pool.push_back(Expr::Compare("G", CompareOp::kGe, i64(0)));
  for (const ExprPtr& a : pool) {
    ExpectAgreesWithNaive(*t, a, rows);
    for (const ExprPtr& b : pool) {
      ExpectAgreesWithNaive(*t, Expr::And({a, b}), rows);
      ExpectAgreesWithNaive(*t, Expr::Or({a, b}), rows);
    }
  }
  // Wider and nested mixes, count-only roots included.
  for (int n = 0; n < 60; ++n) {
    auto pick = [&] {
      return pool[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(pool.size()) - 1))];
    };
    ExpectAgreesWithNaive(
        *t, Expr::And({pick(), pick(), Expr::Or({pick(), pick(), pick()})}),
        rows);
    ExpectAgreesWithNaive(
        *t, Expr::Or({pick(), Expr::And({pick(), pick()}), pick()}), rows);
  }
}

// The brute-force reference MatchingVids must reproduce: LeafMatches
// over the whole dictionary, in vid order.
std::vector<Vid> ScanMatchingVids(const Column& column, const Expr& leaf) {
  std::vector<Vid> vids;
  for (Vid vid = 0; vid < column.distinct_count(); ++vid) {
    if (leaf.LeafMatches(column.dict().value(vid))) vids.push_back(vid);
  }
  return vids;
}

uint64_t SumValueCounts(const Column& column, const std::vector<Vid>& vids) {
  uint64_t sum = 0;
  for (Vid vid : vids) sum += column.ValueCount(vid);
  return sum;
}

// Probe ≡ scan: the hash-probed `=` / IN leaves (and every scanning
// leaf) select exactly the dictionary values LeafMatches accepts, and
// the admission estimate and the evaluated count follow, across int64,
// double (NaN entries, -0.0, values past 2^53) and string columns and
// the literals where order-equality and hashing part ways.
TEST(Expr, MatchingVidsProbeEqualsScan) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(20261016);
  Schema schema({{"I", DataType::kInt64},
                 {"D", DataType::kDouble},
                 {"S", DataType::kString}},
                {});
  // Edge values first, so each is in the dictionary; -0.0 precedes 0.0,
  // so the dictionary's zero entry is -0.0.
  const std::vector<int64_t> int_edges = {
      0,           -1,          kTwo53,      kTwo53 + 1, -kTwo53 - 1,
      kTwo53 - 1,  INT64_MIN,   INT64_MAX,   3};
  const std::vector<double> dbl_edges = {
      -0.0,         0.0,  nan,   nan,  3.0,  2.5, -7.0,
      static_cast<double>(kTwo53), -static_cast<double>(kTwo53),
      static_cast<double>(kTwo53) + 2.0, 9.3e18, inf, nan};
  std::vector<Row> rows;
  for (int r = 0; r < 600; ++r) {
    Value i = r < static_cast<int>(int_edges.size())
                  ? Value(int_edges[static_cast<size_t>(r)])
                  : Value(rng.Uniform(-40, 40));
    Value d = r < static_cast<int>(dbl_edges.size())
                  ? Value(dbl_edges[static_cast<size_t>(r)])
              : rng.NextBool(0.05) ? Value(nan)
                                   : Value(static_cast<double>(
                                               rng.Uniform(-40, 40)) /
                                           2.0);
    Value s(std::string(1, static_cast<char>('a' + rng.Uniform(0, 25))));
    rows.push_back({i, d, s});
  }
  auto t = MakeTable("T", schema, rows);
  ASSERT_GT(t->column(1)->distinct_count(), 4u);

  const std::vector<Value> literals = {
      Value(0.0),
      Value(-0.0),
      Value(nan),
      Value(3.0),
      Value(-7.0),
      Value(2.5),
      Value(-19.5),
      Value(static_cast<double>(kTwo53)),
      Value(-static_cast<double>(kTwo53)),
      Value(9.3e18),
      Value(inf),
      Value(int64_t{0}),
      Value(int64_t{3}),
      Value(int64_t{-7}),
      Value(kTwo53),
      Value(kTwo53 + 1),
      Value(-kTwo53 - 1),
      Value(INT64_MIN),
      Value(INT64_MAX),
      Value("q"),
      Value(),
  };
  auto random_literal = [&]() -> Value {
    switch (rng.Uniform(0, 3)) {
      case 0:
        return literals[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(literals.size()) - 1))];
      case 1:
        return Value(rng.Uniform(-40, 40));
      case 2:
        return Value(static_cast<double>(rng.Uniform(-40, 40)) / 2.0);
      default:
        return Value(
            std::string(1, static_cast<char>('a' + rng.Uniform(0, 25))));
    }
  };

  std::vector<ExprPtr> leaves;
  for (const char* col : {"I", "D", "S"}) {
    for (const Value& lit : literals) {
      leaves.push_back(Expr::Compare(col, CompareOp::kEq, lit));
      leaves.push_back(Expr::Compare(col, CompareOp::kGe, lit));
    }
    // Cross-type duplicates resolve once.
    leaves.push_back(
        Expr::In(col, {Value(int64_t{3}), Value(3.0), Value(int64_t{3})}));
    leaves.push_back(
        Expr::In(col, {Value(0.0), Value(-0.0), Value(int64_t{0})}));
    leaves.push_back(Expr::In(col, {Value(int64_t{3}), Value(nan)}));
    for (int n = 0; n < 40; ++n) {
      std::vector<Value> in;
      for (int64_t k = rng.Uniform(1, 5); k > 0; --k) {
        in.push_back(random_literal());
      }
      leaves.push_back(Expr::In(col, std::move(in)));
      leaves.push_back(Expr::Compare(col, CompareOp::kEq, random_literal()));
      leaves.push_back(
          Expr::Between(col, random_literal(), random_literal()));
    }
  }

  for (const ExprPtr& leaf : leaves) {
    const Column& col = *t->ColumnByRef(leaf->column).ValueOrDie();
    std::vector<Vid> scanned = ScanMatchingVids(col, *leaf);
    EXPECT_EQ(MatchingVids(col, *leaf), scanned) << leaf->ToString();
    const uint64_t matched = SumValueCounts(col, scanned);
    EXPECT_EQ(server::EstimateExprRows(*t, leaf), matched) << leaf->ToString();
    EXPECT_EQ(EvalExprCount(*t, leaf).ValueOrDie(), matched)
        << leaf->ToString();
    if (leaf->kind == ExprKind::kIn) {
      // NOT IN: the exact complement, in the estimate and the eval.
      ExprPtr not_in = Expr::Not(leaf);
      EXPECT_EQ(server::EstimateExprRows(*t, not_in), t->rows() - matched)
          << not_in->ToString();
      ExpectAgreesWithNaive(*t, not_in);
    }
  }
}

}  // namespace
}  // namespace cods
