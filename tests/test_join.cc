// Tests for the compressed-domain equi-join (query/join.h): directed
// cases pinning each plan shape (fk-right / fk-left / general), a
// randomized property sweep against the row-at-a-time HashJoinRowVec
// oracle across schemas and selectivities, and the engine-level ORDER
// BY interaction.

#include "query/join.h"

#include <algorithm>

#include "common/random.h"
#include "gtest/gtest.h"
#include "query/column_executor.h"
#include "query/query_engine.h"
#include "test_util.h"

namespace cods {
namespace {

using ::cods::testing::MakeTable;
using ::cods::testing::RowToString;

bool RowLessLocal(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i] < b[i]) return true;
    if (b[i] < a[i]) return false;
  }
  return a.size() < b.size();
}

// Multiset comparison of the compressed join against the row oracle.
void ExpectMatchesOracle(const Table& joined, const std::vector<Row>& left,
                         const std::vector<Row>& right, size_t lj, size_t rj,
                         const std::string& label) {
  std::vector<Row> expected = HashJoinRowVec(left, right, {lj}, {rj});
  std::vector<Row> actual = joined.Materialize();
  ASSERT_EQ(actual.size(), expected.size()) << label;
  std::sort(expected.begin(), expected.end(), RowLessLocal);
  std::sort(actual.begin(), actual.end(), RowLessLocal);
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i])
        << label << " row " << i << ": " << RowToString(actual[i]) << " vs "
        << RowToString(expected[i]);
  }
}

Schema LeftSchema() {
  return Schema({{"J", DataType::kInt64},
                 {"A", DataType::kInt64},
                 {"B", DataType::kString}},
                {});
}

Schema RightSchema(std::vector<std::string> key = {}) {
  return Schema({{"J", DataType::kInt64},
                 {"C", DataType::kString}},
                std::move(key));
}

TEST(CompressedJoin, FkRightShapePreservesLeftRowOrder) {
  auto left = MakeTable("L", LeftSchema(),
                        {{Value(int64_t{2}), Value(int64_t{10}), Value("x")},
                         {Value(int64_t{1}), Value(int64_t{11}), Value("y")},
                         {Value(int64_t{2}), Value(int64_t{12}), Value("z")},
                         {Value(int64_t{9}), Value(int64_t{13}), Value("w")}});
  auto right = MakeTable("R", RightSchema(),
                         {{Value(int64_t{1}), Value("one")},
                          {Value(int64_t{2}), Value("two")},
                          {Value(int64_t{3}), Value("three")}});
  JoinStats stats;
  auto joined =
      CompressedEquiJoin(*left, *right, 0, 0, "J", nullptr, &stats);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(stats.path, "fk-right");
  EXPECT_EQ(stats.matched_values, 2u);
  EXPECT_TRUE((*joined)->ValidateInvariants().ok());
  // Left row order survives; the unmatched J=9 row is dropped.
  std::vector<Row> rows = (*joined)->Materialize();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (Row{Value(int64_t{2}), Value(int64_t{10}), Value("x"),
                          Value("two")}));
  EXPECT_EQ(rows[1], (Row{Value(int64_t{1}), Value(int64_t{11}), Value("y"),
                          Value("one")}));
  EXPECT_EQ(rows[2], (Row{Value(int64_t{2}), Value(int64_t{12}), Value("z"),
                          Value("two")}));
  ExpectMatchesOracle(**joined, left->Materialize(), right->Materialize(),
                      0, 0, "fk-right");
}

TEST(CompressedJoin, FkLeftShapeKeepsLeftColumnOrder) {
  // The LEFT side's join values are unique, the right side repeats
  // them: the mirrored key-FK shape scans the right table, but the
  // output schema still lists left columns first.
  auto left = MakeTable("L", LeftSchema(),
                        {{Value(int64_t{1}), Value(int64_t{10}), Value("x")},
                         {Value(int64_t{2}), Value(int64_t{11}), Value("y")}});
  auto right = MakeTable("R", RightSchema(),
                         {{Value(int64_t{2}), Value("a")},
                          {Value(int64_t{2}), Value("b")},
                          {Value(int64_t{1}), Value("c")},
                          {Value(int64_t{7}), Value("d")}});
  JoinStats stats;
  auto joined =
      CompressedEquiJoin(*left, *right, 0, 0, "J", nullptr, &stats);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(stats.path, "fk-left");
  ASSERT_EQ((*joined)->num_columns(), 4u);
  EXPECT_EQ((*joined)->schema().column(0).name, "L.J");
  EXPECT_EQ((*joined)->schema().column(3).name, "R.C");
  EXPECT_TRUE((*joined)->ValidateInvariants().ok());
  // Output follows right row order (the scanned side).
  std::vector<Row> rows = (*joined)->Materialize();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (Row{Value(int64_t{2}), Value(int64_t{11}), Value("y"),
                          Value("a")}));
  ExpectMatchesOracle(**joined, left->Materialize(), right->Materialize(),
                      0, 0, "fk-left");
}

TEST(CompressedJoin, GeneralShapeClustersByJoinValue) {
  auto left = MakeTable("L", LeftSchema(),
                        {{Value(int64_t{1}), Value(int64_t{10}), Value("x")},
                         {Value(int64_t{2}), Value(int64_t{11}), Value("y")},
                         {Value(int64_t{1}), Value(int64_t{12}), Value("z")}});
  auto right = MakeTable("R", RightSchema(),
                         {{Value(int64_t{1}), Value("a")},
                          {Value(int64_t{1}), Value("b")},
                          {Value(int64_t{2}), Value("c")},
                          {Value(int64_t{2}), Value("d")}});
  JoinStats stats;
  auto joined =
      CompressedEquiJoin(*left, *right, 0, 0, "J", nullptr, &stats);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(stats.path, "general");
  EXPECT_EQ((*joined)->rows(), 2u * 2u + 1u * 2u);
  EXPECT_TRUE((*joined)->ValidateInvariants().ok());
  ExpectMatchesOracle(**joined, left->Materialize(), right->Materialize(),
                      0, 0, "general");
}

TEST(CompressedJoin, EmptyIntersectionYieldsEmptyTable) {
  auto left = MakeTable("L", LeftSchema(),
                        {{Value(int64_t{1}), Value(int64_t{10}), Value("x")}});
  auto right = MakeTable("R", RightSchema(),
                         {{Value(int64_t{5}), Value("a")}});
  auto joined = CompressedEquiJoin(*left, *right, 0, 0, "J");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ((*joined)->rows(), 0u);
  EXPECT_EQ((*joined)->num_columns(), 4u);
  EXPECT_TRUE((*joined)->ValidateInvariants().ok());
}

TEST(CompressedJoin, TypeMismatchErrors) {
  auto left = MakeTable("L", LeftSchema(),
                        {{Value(int64_t{1}), Value(int64_t{10}), Value("x")}});
  auto right = MakeTable("R", RightSchema(),
                         {{Value(int64_t{1}), Value("a")}});
  // Join the int64 J against the string C.
  auto joined = CompressedEquiJoin(*left, *right, 0, 1, "J");
  ASSERT_FALSE(joined.ok());
  EXPECT_TRUE(joined.status().IsTypeError()) << joined.status().ToString();
}

// The property sweep: random schemas and selectivities, every result
// checked against the row-at-a-time oracle and the column invariants.
TEST(CompressedJoin, PropertySweepMatchesRowOracle) {
  for (uint64_t seed = 0; seed < 24; ++seed) {
    Rng rng(seed * 7919 + 13);
    const int64_t domain = 3 + static_cast<int64_t>(rng.Uniform(0, 40));
    const uint64_t left_rows = 1 + rng.Uniform(0, 120);
    const int shape = static_cast<int>(seed % 3);  // 0 fk-right, 1 fk-left,
                                                   // 2 general
    TableBuilder lb("L", LeftSchema());
    for (uint64_t r = 0; r < left_rows; ++r) {
      int64_t j = shape == 1 ? static_cast<int64_t>(r)  // unique left keys
                             : rng.Uniform(0, domain - 1);
      CODS_CHECK_OK(lb.AppendRow(
          {Value(j), Value(rng.Uniform(0, 9)),
           Value("s" + std::to_string(rng.Uniform(0, 4)))}));
    }
    auto left = lb.Finish().ValueOrDie();
    TableBuilder rb("R", RightSchema());
    if (shape == 0) {
      // Unique right keys covering a random fraction of the domain.
      for (int64_t j = 0; j < domain; ++j) {
        if (rng.Uniform(0, 99) < 60) {
          CODS_CHECK_OK(rb.AppendRow(
              {Value(j), Value("c" + std::to_string(j % 7))}));
        }
      }
    } else {
      const uint64_t right_rows = 1 + rng.Uniform(0, 80);
      for (uint64_t r = 0; r < right_rows; ++r) {
        CODS_CHECK_OK(rb.AppendRow(
            {Value(rng.Uniform(0, domain - 1)),
             Value("c" + std::to_string(rng.Uniform(0, 6)))}));
      }
    }
    auto right = rb.Finish().ValueOrDie();
    JoinStats stats;
    auto joined =
        CompressedEquiJoin(*left, *right, 0, 0, "J", nullptr, &stats);
    ASSERT_TRUE(joined.ok())
        << "seed " << seed << ": " << joined.status().ToString();
    EXPECT_TRUE((*joined)->ValidateInvariants().ok()) << "seed " << seed;
    // The count-only plan agrees with the materialized cardinality.
    EXPECT_EQ(CompressedEquiJoinCount(*left, *right, 0, 0).ValueOrDie(),
              (*joined)->rows())
        << "seed " << seed;
    ExpectMatchesOracle(**joined, left->Materialize(), right->Materialize(),
                        0, 0, "seed " + std::to_string(seed) + " (path " +
                                  stats.path + ")");
    // The engine-level pipeline over the same join: WHERE + ORDER BY +
    // LIMIT agree with sorting/filtering the oracle rows.
    Catalog catalog;
    CODS_CHECK_OK(catalog.AddTable(left));
    CODS_CHECK_OK(catalog.AddTable(right));
    QueryEngine engine(&catalog);
    QueryRequest req = QueryRequest::Select(
        "L", {},
        Expr::Compare("A", CompareOp::kGe, Value(int64_t{3})), "sel");
    req.JoinOn("R", "L.J", "R.J");
    req.OrderBy("A", seed % 2 == 1);
    auto sorted = engine.Execute(req);
    ASSERT_TRUE(sorted.ok())
        << "seed " << seed << ": " << sorted.status().ToString();
    std::vector<Row> oracle =
        HashJoinRowVec(left->Materialize(), right->Materialize(), {0}, {0});
    oracle.erase(std::remove_if(oracle.begin(), oracle.end(),
                                [](const Row& row) {
                                  return row[1] < Value(int64_t{3});
                                }),
                 oracle.end());
    std::vector<Row> got = sorted->table->Materialize();
    ASSERT_EQ(got.size(), oracle.size()) << "seed " << seed;
    // The A-column sequence must be sorted in the requested direction.
    for (size_t i = 1; i < got.size(); ++i) {
      const Value& prev = got[i - 1][1];
      const Value& cur = got[i][1];
      if (seed % 2 == 1) {
        EXPECT_FALSE(prev < cur) << "seed " << seed << " row " << i;
      } else {
        EXPECT_FALSE(cur < prev) << "seed " << seed << " row " << i;
      }
    }
    // And the multisets agree.
    std::sort(oracle.begin(), oracle.end(), RowLessLocal);
    std::sort(got.begin(), got.end(), RowLessLocal);
    EXPECT_EQ(got, oracle) << "seed " << seed;
  }
}

}  // namespace
}  // namespace cods
