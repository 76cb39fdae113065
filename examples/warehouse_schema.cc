// The paper's §1 scenario 2 ("new information about the workload"):
// a data-warehouse fact table evolving between a denormalized wide
// schema (star-ish, good for queries) and a normalized one (snowflake-
// ish, good for updates) as the workload shifts — and back.
//
// Sales(OrderId, Product, Category, Region, Amount) where Product →
// Category. Update-heavy phase: split the product dimension out.
// Query-heavy phase: merge it back in. Timings of both directions are
// reported, including what the query-level approach would have cost.
//
//   $ ./build/examples/warehouse_schema [rows]

#include <cstdlib>
#include <iostream>

#include "common/random.h"
#include "common/stopwatch.h"
#include "evolution/engine.h"
#include "query/query_evolution.h"
#include "storage/printer.h"

using namespace cods;

namespace {

std::shared_ptr<const Table> BuildSales(uint64_t rows) {
  Rng rng(7);
  Schema schema({{"OrderId", DataType::kInt64},
                 {"Product", DataType::kInt64},
                 {"Category", DataType::kInt64},
                 {"Region", DataType::kInt64},
                 {"Amount", DataType::kInt64}},
                {"OrderId"});
  TableBuilder builder("Sales", schema);
  constexpr int64_t kProducts = 500;
  for (uint64_t i = 0; i < rows; ++i) {
    int64_t product = i < kProducts ? static_cast<int64_t>(i)
                                    : rng.Uniform(0, kProducts - 1);
    int64_t category = product / 25;  // FD Product -> Category
    CODS_CHECK_OK(builder.AppendRow(
        {Value(static_cast<int64_t>(i)), Value(product), Value(category),
         Value(rng.Uniform(0, 7)), Value(rng.Uniform(1, 1000))}));
  }
  return builder.Finish().ValueOrDie();
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t rows = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200'000;
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(BuildSales(rows)));
  EvolutionEngine engine(&catalog);

  std::cout << "Fact table (" << rows << " rows):\n"
            << FormatTableStats(*catalog.GetTable("Sales").ValueOrDie())
            << "\n";

  // ---- Update-heavy phase: normalize (wide → snowflake). ---------------
  Stopwatch watch;
  CODS_CHECK_OK(engine.Apply(Smo::DecomposeTable(
      "Sales", "Facts", {"OrderId", "Product", "Region", "Amount"},
      {"OrderId"}, "ProductDim", {"Product", "Category"}, {"Product"})));
  double split_s = watch.ElapsedSeconds();
  std::cout << "Normalized in " << split_s * 1000 << " ms (CODS data "
            << "level):\n"
            << "  Facts: "
            << catalog.GetTable("Facts").ValueOrDie()->rows() << " rows\n"
            << "  ProductDim: "
            << catalog.GetTable("ProductDim").ValueOrDie()->rows()
            << " rows\n\n";

  // ---- Query-heavy phase: denormalize (snowflake → wide). --------------
  watch.Reset();
  CODS_CHECK_OK(engine.Apply(
      Smo::MergeTables("Facts", "ProductDim", "Sales", {"Product"},
                       {"OrderId"})));
  double merge_s = watch.ElapsedSeconds();
  std::cout << "Denormalized in " << merge_s * 1000
            << " ms (key-FK mergence).\n\n";

  // ---- What would the query-level approach have cost? ------------------
  auto sales = catalog.GetTable("Sales").ValueOrDie();
  DecomposeSpec spec;
  spec.s_columns = {"OrderId", "Product", "Region", "Amount"};
  spec.s_key = {"OrderId"};
  spec.t_columns = {"Product", "Category"};
  spec.t_key = {"Product"};
  watch.Reset();
  auto baseline = ColumnQueryLevelDecompose(*sales, spec, "F", "P");
  CODS_CHECK_OK(baseline.status());
  double baseline_s = watch.ElapsedSeconds();
  std::cout << "Query-level decomposition of the same table: "
            << baseline_s * 1000 << " ms ("
            << baseline_s / (split_s > 0 ? split_s : 1e-9)
            << "x slower than data-level)\n"
            << "  breakdown: scan " << baseline->timing.scan_s * 1000
            << " ms, query " << baseline->timing.query_s * 1000
            << " ms, re-compress " << baseline->timing.compress_s * 1000
            << " ms\n";
  return EXIT_SUCCESS;
}
