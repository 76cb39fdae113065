// Tests for the column-store engine: values, dictionaries, bitmap
// columns, schemas, tables, catalog, and the row-order scanner.

#include <memory>

#include "bitmap/codec.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "storage/catalog.h"
#include "storage/packed_vids.h"
#include "storage/scanner.h"
#include "storage/table.h"
#include "test_util.h"

namespace cods {
namespace {

using ::cods::testing::Figure1TableR;
using ::cods::testing::MakeTable;

TEST(Value, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{42}).int64(), 42);
  EXPECT_EQ(Value(3.5).dbl(), 3.5);
  EXPECT_EQ(Value("abc").str(), "abc");
  EXPECT_EQ(Value(int64_t{42}).type().ValueOrDie(), DataType::kInt64);
  EXPECT_FALSE(Value().type().ok());
}

TEST(Value, ParseByType) {
  EXPECT_EQ(Value::Parse("42", DataType::kInt64).ValueOrDie().int64(), 42);
  EXPECT_EQ(Value::Parse("-7", DataType::kInt64).ValueOrDie().int64(), -7);
  EXPECT_FALSE(Value::Parse("4.2", DataType::kInt64).ok());
  EXPECT_DOUBLE_EQ(Value::Parse("4.5", DataType::kDouble).ValueOrDie().dbl(),
                   4.5);
  EXPECT_FALSE(Value::Parse("xyz", DataType::kDouble).ok());
  EXPECT_EQ(Value::Parse(" hi ", DataType::kString).ValueOrDie().str(),
            " hi ");
}

TEST(Value, OrderingAndEquality) {
  EXPECT_TRUE(Value(int64_t{1}) < Value(int64_t{2}));
  EXPECT_TRUE(Value(int64_t{1}) < Value(1.5));  // cross numeric compare
  EXPECT_TRUE(Value(1.5) < Value(int64_t{2}));
  EXPECT_TRUE(Value() < Value(int64_t{0}));  // null sorts first
  EXPECT_TRUE(Value(int64_t{5}) < Value("a"));  // numbers before strings
  EXPECT_EQ(Value("x"), Value("x"));
  EXPECT_NE(Value(int64_t{1}), Value(1.0));  // distinct alternatives
}

TEST(Value, ToStringRendering) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{-3}).ToString(), "-3");
  EXPECT_EQ(Value("hi").ToString(), "hi");
}

TEST(DataTypeNames, RoundTrip) {
  EXPECT_EQ(DataTypeFromString("INT64").ValueOrDie(), DataType::kInt64);
  EXPECT_EQ(DataTypeFromString("int").ValueOrDie(), DataType::kInt64);
  EXPECT_EQ(DataTypeFromString("double").ValueOrDie(), DataType::kDouble);
  EXPECT_EQ(DataTypeFromString("VARCHAR").ValueOrDie(), DataType::kString);
  EXPECT_FALSE(DataTypeFromString("blob").ok());
}

TEST(Dictionary, AssignsDenseIdsInFirstAppearanceOrder) {
  Dictionary dict;
  EXPECT_EQ(dict.GetOrInsert(Value("b")), 0u);
  EXPECT_EQ(dict.GetOrInsert(Value("a")), 1u);
  EXPECT_EQ(dict.GetOrInsert(Value("b")), 0u);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.value(0), Value("b"));
  EXPECT_EQ(dict.Lookup(Value("a")).value(), 1u);
  EXPECT_FALSE(dict.Lookup(Value("zzz")).has_value());
}

TEST(Column, FromVidsBuildsPartitioningBitmaps) {
  Dictionary dict;
  dict.GetOrInsert(Value(int64_t{10}));
  dict.GetOrInsert(Value(int64_t{20}));
  std::vector<Vid> vids = {0, 1, 0, 0, 1};
  auto col = Column::FromVids(DataType::kInt64, dict, vids);
  EXPECT_EQ(col->rows(), 5u);
  EXPECT_EQ(col->distinct_count(), 2u);
  EXPECT_EQ(col->bitmap(0).SetPositions(),
            (std::vector<uint64_t>{0, 2, 3}));
  EXPECT_EQ(col->bitmap(1).SetPositions(), (std::vector<uint64_t>{1, 4}));
  EXPECT_EQ(col->DecodeVids(), vids);
  EXPECT_EQ(col->GetValue(3), Value(int64_t{10}));
  EXPECT_EQ(col->ValueCount(0), 3u);
  EXPECT_TRUE(col->ValidateInvariants().ok());
}

TEST(PackedVids, WidthForDistinctCounts) {
  EXPECT_EQ(PackedVids::WidthFor(0), 0u);
  EXPECT_EQ(PackedVids::WidthFor(1), 0u);
  EXPECT_EQ(PackedVids::WidthFor(2), 1u);
  for (unsigned k = 1; k <= 32; ++k) {
    EXPECT_EQ(PackedVids::WidthFor(uint64_t{1} << k), k) << k;
    if (k < 32) {
      EXPECT_EQ(PackedVids::WidthFor((uint64_t{1} << k) + 1), k + 1) << k;
    }
  }
}

TEST(PackedVids, EveryWidthRoundTripsAcrossWordBoundaries) {
  // Every width 0..32 at row counts on and off 64: each entry reads back
  // whether set in row order or scattered, entries straddling a word
  // boundary included, and the footprint is rows × width / 8 rounded up
  // to words.
  Rng rng(99);
  for (unsigned width = 0; width <= 32; ++width) {
    const uint64_t limit = width == 0 ? 1 : uint64_t{1} << width;
    for (uint64_t rows : {0u, 1u, 63u, 64u, 65u, 200u, 1001u}) {
      std::vector<Vid> vids(rows);
      for (uint64_t i = 0; i < rows; ++i) {
        // Extremes first (all ones, zero), then random.
        vids[i] = i == 0   ? static_cast<Vid>(limit - 1)
                  : i == 1 ? 0
                           : static_cast<Vid>(rng.engine()() % limit);
      }
      PackedVids in_order(rows, width);
      for (uint64_t i = 0; i < rows; ++i) in_order.Set(i, vids[i]);
      PackedVids scattered(rows, width);
      for (uint64_t i : rng.Permutation(rows)) scattered.Set(i, vids[i]);
      ASSERT_EQ(in_order.size(), rows);
      EXPECT_EQ(in_order.SizeBytes(), (rows * width + 63) / 64 * 8);
      for (uint64_t i = 0; i < rows; ++i) {
        ASSERT_EQ(in_order[i], vids[i]) << "width " << width << " row " << i;
        ASSERT_EQ(scattered[i], vids[i]) << "width " << width << " row " << i;
      }
    }
  }
}

TEST(Column, RowVidMapMatchesDecodeAndIsCachedOnce) {
  // Distinct counts 1, 2, 2^k and 2^k + 1 at row counts off the 64-row
  // block: the map reads back DecodeVids at width
  // WidthFor(distinct), is built once per column, and its bytes leave
  // the retained gauge with the column.
  CodecStats& stats = GlobalCodecStats();
  Rng rng(5);
  for (uint64_t distinct : {1u, 2u, 16u, 17u, 1024u, 1025u}) {
    for (uint64_t rows : {1u, 63u, 65u, 1031u, 5000u}) {
      if (distinct > rows) continue;
      Dictionary dict;
      for (uint64_t v = 0; v < distinct; ++v) {
        dict.GetOrInsert(Value(static_cast<int64_t>(v * 3)));
      }
      std::vector<Vid> vids(rows);
      for (uint64_t i = 0; i < rows; ++i) {
        vids[i] = static_cast<Vid>(i < distinct ? i
                                                : rng.engine()() % distinct);
      }
      const uint64_t built = stats.row_vid_maps_built.load();
      const uint64_t bytes = stats.row_vid_map_bytes.load();
      auto col = Column::FromVids(DataType::kInt64, dict, vids);
      const uint64_t stored = col->SizeBytes();
      const PackedVids& map = col->RowVidMap();
      EXPECT_EQ(&col->RowVidMap(), &map);
      EXPECT_EQ(stats.row_vid_maps_built.load(), built + 1);
      EXPECT_EQ(map.width(), PackedVids::WidthFor(distinct));
      EXPECT_EQ(map.SizeBytes(), (rows * map.width() + 63) / 64 * 8);
      EXPECT_EQ(stats.row_vid_map_bytes.load(), bytes + map.SizeBytes());
      EXPECT_EQ(col->SizeBytes(), stored);  // a cache, not storage
      ASSERT_EQ(map.size(), rows);
      for (uint64_t i = 0; i < rows; ++i) {
        ASSERT_EQ(map[i], vids[i]) << distinct << "/" << rows << " " << i;
      }
      col.reset();
      EXPECT_EQ(stats.row_vid_map_bytes.load(), bytes);
    }
  }
}

TEST(Column, ValidateDetectsCorruption) {
  Dictionary dict;
  dict.GetOrInsert(Value(int64_t{1}));
  dict.GetOrInsert(Value(int64_t{2}));
  // Both bitmaps claim row 0: not a partition.
  std::vector<WahBitmap> bitmaps(2);
  bitmaps[0] = WahBitmap::FromPositions({0}, 2);
  bitmaps[1] = WahBitmap::FromPositions({0}, 2);
  auto col = Column::FromBitmaps(DataType::kInt64, dict, bitmaps, 2);
  EXPECT_FALSE(col->ValidateInvariants().ok());
}

TEST(Schema, MakeValidates) {
  EXPECT_FALSE(Schema::Make({{"a", DataType::kInt64},
                             {"a", DataType::kInt64}})
                   .ok());
  EXPECT_FALSE(
      Schema::Make({{"a", DataType::kInt64}}, {"missing"}).ok());
  EXPECT_FALSE(Schema::Make({{"", DataType::kInt64}}).ok());
  auto schema =
      Schema::Make({{"a", DataType::kInt64}}, {"a"}).ValueOrDie();
  EXPECT_TRUE(schema.has_key());
  EXPECT_TRUE(schema.IsKey({"a"}));
}

TEST(Schema, ColumnManipulation) {
  Schema schema({{"a", DataType::kInt64},
                 {"b", DataType::kString}},
                {"a"});
  EXPECT_EQ(schema.ColumnIndex("b").ValueOrDie(), 1u);
  EXPECT_FALSE(schema.ColumnIndex("z").ok());

  Schema renamed = schema.RenameColumn("a", "id").ValueOrDie();
  EXPECT_TRUE(renamed.HasColumn("id"));
  EXPECT_EQ(renamed.key(), (std::vector<std::string>{"id"}));
  EXPECT_FALSE(schema.RenameColumn("a", "b").ok());  // collision
  EXPECT_FALSE(schema.RenameColumn("zz", "y").ok());

  Schema added =
      schema.AddColumn({"c", DataType::kDouble}).ValueOrDie();
  EXPECT_EQ(added.num_columns(), 3u);
  EXPECT_FALSE(schema.AddColumn({"a", DataType::kInt64}).ok());

  Schema dropped = schema.DropColumn("b").ValueOrDie();
  EXPECT_EQ(dropped.num_columns(), 1u);
  EXPECT_FALSE(schema.DropColumn("a").ok());  // key column
}

TEST(Schema, IsKeyIsOrderInsensitive) {
  Schema schema({{"a", DataType::kInt64},
                 {"b", DataType::kInt64}},
                {"a", "b"});
  EXPECT_TRUE(schema.IsKey({"b", "a"}));
  EXPECT_FALSE(schema.IsKey({"a"}));
}

TEST(Table, BuilderAndMaterialize) {
  auto r = Figure1TableR();
  EXPECT_EQ(r->rows(), 7u);
  EXPECT_EQ(r->num_columns(), 3u);
  std::vector<Row> rows = r->Materialize();
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows[0][0], Value("Jones"));
  EXPECT_EQ(rows[6][2], Value("425 Grant Ave"));
  EXPECT_EQ(r->GetValue(2, 1), Value("Light Cleaning"));
  EXPECT_TRUE(r->ValidateInvariants().ok());
}

TEST(Table, BuilderRejectsBadRows) {
  Schema schema({{"a", DataType::kInt64}});
  TableBuilder builder("t", schema);
  EXPECT_TRUE(builder.AppendRow({Value(int64_t{1})}).ok());
  EXPECT_FALSE(builder.AppendRow({Value("str")}).ok());       // wrong type
  EXPECT_FALSE(builder.AppendRow({Value(int64_t{1}), Value(int64_t{2})}).ok());
  EXPECT_FALSE(builder.AppendRow({Value()}).ok());            // null
}

TEST(Table, MakeValidatesShape) {
  Dictionary dict;
  dict.GetOrInsert(Value(int64_t{1}));
  auto col = Column::FromVids(DataType::kInt64, dict, {0, 0});
  Schema schema({{"a", DataType::kInt64}});
  EXPECT_TRUE(Table::Make("t", schema, {col}, 2).ok());
  EXPECT_FALSE(Table::Make("t", schema, {col}, 3).ok());  // row mismatch
  EXPECT_FALSE(Table::Make("t", schema, {}, 2).ok());     // arity mismatch
  Schema wrong({{"a", DataType::kString}});
  EXPECT_FALSE(Table::Make("t", wrong, {col}, 2).ok());   // type mismatch
}

TEST(Table, WithNameSharesColumns) {
  auto r = Figure1TableR();
  auto r2 = r->WithName("R2");
  EXPECT_EQ(r2->name(), "R2");
  EXPECT_EQ(r2->column(0).get(), r->column(0).get());
}

TEST(Scanner, DecodesRowOrder) {
  auto r = Figure1TableR();
  TableScanner scanner(*r);
  EXPECT_EQ(scanner.rows(), 7u);
  EXPECT_EQ(scanner.width(), 3u);
  EXPECT_EQ(scanner.GetRow(3),
            (Row{Value("Ellis"), Value("Alchemy"),
                 Value("747 Industrial Way")}));
}

TEST(Scanner, ProjectionScansSubset) {
  auto r = Figure1TableR();
  TableScanner scanner(*r, {2, 0});
  EXPECT_EQ(scanner.width(), 2u);
  EXPECT_EQ(scanner.GetRow(0), (Row{Value("425 Grant Ave"), Value("Jones")}));
}

TEST(Catalog, CrudOperations) {
  Catalog catalog;
  auto r = Figure1TableR();
  EXPECT_TRUE(catalog.AddTable(r).ok());
  EXPECT_TRUE(catalog.AddTable(r).IsAlreadyExists());
  EXPECT_TRUE(catalog.HasTable("R"));
  EXPECT_EQ(catalog.GetTable("R").ValueOrDie()->rows(), 7u);
  EXPECT_TRUE(catalog.GetTable("missing").status().IsKeyError());

  EXPECT_TRUE(catalog.RenameTable("R", "R1").ok());
  EXPECT_FALSE(catalog.HasTable("R"));
  EXPECT_EQ(catalog.GetTable("R1").ValueOrDie()->name(), "R1");
  EXPECT_TRUE(catalog.RenameTable("missing", "x").IsKeyError());

  auto other = Figure1TableR()->WithName("R2");
  EXPECT_TRUE(catalog.AddTable(other).ok());
  EXPECT_FALSE(catalog.RenameTable("R1", "R2").ok());
  EXPECT_EQ(catalog.TableNames(),
            (std::vector<std::string>{"R1", "R2"}));

  EXPECT_TRUE(catalog.DropTable("R1").ok());
  EXPECT_TRUE(catalog.DropTable("R1").IsKeyError());
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(Table, SizeBytesReflectsCompression) {
  // A constant column must compress far better than a high-cardinality
  // one of the same length.
  Schema schema({{"c", DataType::kInt64}});
  TableBuilder constant("const", schema);
  TableBuilder distinct("dist", schema);
  for (int64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(constant.AppendRow({Value(int64_t{7})}).ok());
    ASSERT_TRUE(distinct.AppendRow({Value(i)}).ok());
  }
  auto tc = constant.Finish().ValueOrDie();
  auto td = distinct.Finish().ValueOrDie();
  EXPECT_LT(tc->SizeBytes() * 10, td->SizeBytes());
}

}  // namespace
}  // namespace cods
