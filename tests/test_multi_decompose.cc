// Tests for recursive multi-way decomposition.

#include "evolution/multi_decompose.h"

#include "evolution/merge.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace cods {
namespace {

using ::cods::testing::ExpectSameContent;
using ::cods::testing::MakeTable;

// R(OrderId, Product, Category, Region, RegionManager): Product →
// Category and Region → RegionManager, so R splits three ways.
std::shared_ptr<const Table> WideTable() {
  Schema schema({{"OrderId", DataType::kInt64},
                 {"Product", DataType::kInt64},
                 {"Category", DataType::kInt64},
                 {"Region", DataType::kInt64},
                 {"Manager", DataType::kString}},
                {"OrderId"});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 200; ++i) {
    int64_t product = i % 20;
    int64_t region = i % 4;
    rows.push_back({Value(i), Value(product), Value(product / 5),
                    Value(region),
                    Value("mgr" + std::to_string(region))});
  }
  return MakeTable("R", schema, rows);
}

TEST(MultiDecompose, ThreeWaySplit) {
  auto r = WideTable();
  auto result =
      CodsDecomposeMulti(
          *r, {{"Facts", {"OrderId", "Product", "Region"}, {"OrderId"}},
               {"Products", {"Product", "Category"}, {"Product"}},
               {"Regions", {"Region", "Manager"}, {"Region"}}})
          .ValueOrDie();
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0]->name(), "Facts");
  EXPECT_EQ(result[0]->rows(), 200u);
  EXPECT_EQ(result[1]->name(), "Products");
  EXPECT_EQ(result[1]->rows(), 20u);
  EXPECT_EQ(result[2]->name(), "Regions");
  EXPECT_EQ(result[2]->rows(), 4u);
  for (const auto& t : result) {
    EXPECT_TRUE(t->ValidateInvariants().ok()) << t->name();
  }
  // The fact side reuses R's columns by pointer.
  EXPECT_EQ(result[0]->ColumnByName("OrderId").ValueOrDie().get(),
            r->ColumnByName("OrderId").ValueOrDie().get());
}

TEST(MultiDecompose, MergingBackRestoresR) {
  auto r = WideTable();
  auto result =
      CodsDecomposeMulti(
          *r, {{"Facts", {"OrderId", "Product", "Region"}, {"OrderId"}},
               {"Products", {"Product", "Category"}, {"Product"}},
               {"Regions", {"Region", "Manager"}, {"Region"}}})
          .ValueOrDie();
  // Reassemble: Facts ⋈ Products ⋈ Regions.
  auto step1 = CodsMerge(*result[0], *result[1], {"Product"}, {"OrderId"},
                         "tmp")
                   .ValueOrDie();
  auto step2 = CodsMerge(*step1.table, *result[2], {"Region"}, {"OrderId"},
                         "R2")
                   .ValueOrDie();
  // Column order differs from R; compare projected onto R's order.
  ASSERT_EQ(step2.table->rows(), r->rows());
  std::vector<Row> expected = r->Materialize();
  std::vector<Row> actual;
  for (const Row& row : step2.table->Materialize()) {
    // step2 columns: OrderId, Product, Region, Category, Manager.
    actual.push_back({row[0], row[1], row[3], row[2], row[4]});
  }
  std::sort(expected.begin(), expected.end(), RowLess);
  std::sort(actual.begin(), actual.end(), RowLess);
  EXPECT_EQ(actual, expected);
}

TEST(MultiDecompose, RejectsBadSpecs) {
  auto r = WideTable();
  // Fewer than two outputs.
  EXPECT_FALSE(
      CodsDecomposeMulti(*r, {{"A", {"OrderId"}, {}}}).ok());
  // Missing coverage (Manager nowhere).
  EXPECT_TRUE(CodsDecomposeMulti(
                  *r, {{"Facts", {"OrderId", "Product", "Region"}, {}},
                       {"Products", {"Product", "Category"}, {"Product"}}})
                  .status()
                  .IsConstraintViolation());
  // Output sharing nothing with the rest.
  EXPECT_FALSE(
      CodsDecomposeMulti(
          *r,
          {{"Facts", {"OrderId", "Product", "Category", "Region"}, {}},
           {"Lonely", {"Manager"}, {"Manager"}}})
          .ok());
}

TEST(MultiDecompose, TwoWayMatchesBinaryDecompose) {
  auto r = testing::Figure1TableR();
  auto multi = CodsDecomposeMulti(
                   *r, {{"S", {"Employee", "Skill"}, {}},
                        {"T", {"Employee", "Address"}, {"Employee"}}})
                   .ValueOrDie();
  auto binary = CodsDecompose(*r, "S", {"Employee", "Skill"}, {}, "T",
                              {"Employee", "Address"}, {"Employee"})
                    .ValueOrDie();
  ExpectSameContent(*multi[0], *binary.s);
  ExpectSameContent(*multi[1], *binary.t);
}

}  // namespace
}  // namespace cods
