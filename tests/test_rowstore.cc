// Tests for the row-store baseline engine: tuple serialization, slotted
// pages, the heap table, and the hash index.

#include <unordered_set>

#include "gtest/gtest.h"
#include "rowstore/hash_index.h"
#include "rowstore/row_table.h"
#include "test_util.h"

namespace cods {
namespace {

TEST(RowSerialization, RoundTripAllTypes) {
  Row row{Value(int64_t{-42}), Value(3.25), Value("hello"), Value::Null(),
          Value(std::string())};
  std::vector<uint8_t> bytes;
  SerializeRow(row, &bytes);
  EXPECT_EQ(bytes.size(), SerializedRowSize(row));
  Row back = DeserializeRow(bytes.data(), bytes.size()).ValueOrDie();
  EXPECT_EQ(back, row);
}

TEST(RowSerialization, TruncationDetected) {
  Row row{Value(int64_t{1}), Value("abc")};
  std::vector<uint8_t> bytes;
  SerializeRow(row, &bytes);
  for (size_t cut : {size_t{0}, size_t{3}, bytes.size() - 1}) {
    EXPECT_TRUE(
        DeserializeRow(bytes.data(), cut).status().IsCorruption())
        << cut;
  }
}

TEST(RowSerialization, TrailingBytesRejected) {
  Row row{Value(int64_t{1})};
  std::vector<uint8_t> bytes;
  SerializeRow(row, &bytes);
  bytes.push_back(0);
  EXPECT_TRUE(DeserializeRow(bytes.data(), bytes.size())
                  .status()
                  .IsCorruption());
}

TEST(Page, InsertUntilFull) {
  Page page;
  std::vector<uint8_t> tuple(100, 0xAB);
  int inserted = 0;
  while (page.Insert(tuple).has_value()) ++inserted;
  // 100-byte tuples + 4-byte slots into an 8 KiB page: ~78.
  EXPECT_GT(inserted, 70);
  EXPECT_LT(inserted, 82);
  EXPECT_EQ(page.slot_count(), inserted);
  auto [data, size] = page.Get(0);
  EXPECT_EQ(size, tuple.size());
  EXPECT_EQ(data[0], 0xAB);
}

TEST(RowTable, InsertScanAndGet) {
  Schema schema({{"id", DataType::kInt64},
                 {"name", DataType::kString}});
  RowTable table("t", schema);
  std::vector<RowId> rids;
  for (int64_t i = 0; i < 1000; ++i) {
    Row row{Value(i), Value("name" + std::to_string(i))};
    rids.push_back(table.Insert(row).ValueOrDie());
  }
  EXPECT_EQ(table.rows(), 1000u);
  EXPECT_GT(table.num_pages(), 1u);  // must spill across pages

  Row row500 = table.Get(rids[500]).ValueOrDie();
  EXPECT_EQ(row500[0], Value(int64_t{500}));

  uint64_t seen = 0;
  int64_t sum = 0;
  table.Scan([&](RowId, const Row& row) {
    ++seen;
    sum += row[0].int64();
  });
  EXPECT_EQ(seen, 1000u);
  EXPECT_EQ(sum, 999 * 1000 / 2);
}

TEST(RowTable, RejectsBadShapes) {
  Schema schema({{"id", DataType::kInt64}});
  RowTable table("t", schema);
  EXPECT_FALSE(table.Insert({Value(int64_t{1}), Value(int64_t{2})}).ok());
  EXPECT_FALSE(table.Get(RowId{99, 0}).ok());
}

TEST(RowTable, ScanPreservesInsertionOrder) {
  Schema schema({{"id", DataType::kInt64}});
  RowTable table("t", schema);
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(table.Insert({Value(i)}).ok());
  }
  int64_t expected = 0;
  table.Scan([&](RowId, const Row& row) {
    EXPECT_EQ(row[0].int64(), expected++);
  });
}

TEST(HashIndex, LookupFindsAllDuplicates) {
  Schema schema({{"k", DataType::kInt64},
                 {"v", DataType::kInt64}});
  RowTable table("t", schema);
  for (int64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(table.Insert({Value(i % 10), Value(i)}).ok());
  }
  HashIndex index = HashIndex::Build(table, {0});
  EXPECT_EQ(index.size(), 300u);
  std::vector<RowId> hits = index.Lookup({Value(int64_t{3})});
  EXPECT_EQ(hits.size(), 30u);
  for (RowId rid : hits) {
    Row row = table.Get(rid).ValueOrDie();
    EXPECT_EQ(row[0], Value(int64_t{3}));
  }
  EXPECT_TRUE(index.Lookup({Value(int64_t{999})}).empty());
}

TEST(HashIndex, CompositeKeys) {
  Schema schema({{"a", DataType::kInt64},
                 {"b", DataType::kString},
                 {"c", DataType::kInt64}});
  RowTable table("t", schema);
  ASSERT_TRUE(table.Insert({Value(int64_t{1}), Value("x"), Value(int64_t{1})}).ok());
  ASSERT_TRUE(table.Insert({Value(int64_t{1}), Value("y"), Value(int64_t{2})}).ok());
  HashIndex index = HashIndex::Build(table, {0, 1});
  EXPECT_EQ(index.Lookup({Value(int64_t{1}), Value("x")}).size(), 1u);
  EXPECT_EQ(index.Lookup({Value(int64_t{1}), Value("z")}).size(), 0u);
}

}  // namespace
}  // namespace cods
