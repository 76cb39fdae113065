// Shared helpers for the CODS test suite: literal table construction,
// multiset comparison of table contents, random table generation for
// property tests, and legacy (SORTED/RLE) table images.

#ifndef CODS_TESTS_TEST_UTIL_H_
#define CODS_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "rowstore/btree_index.h"
#include "storage/serde.h"
#include "storage/table.h"

namespace cods::testing {

/// Builds a table from a literal row list. Fails the test on error.
inline std::shared_ptr<const Table> MakeTable(
    const std::string& name, const Schema& schema,
    const std::vector<Row>& rows) {
  TableBuilder builder(name, schema);
  for (const Row& r : rows) {
    Status st = builder.AppendRow(r);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  Result<std::shared_ptr<const Table>> table = builder.Finish();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ValueOrDie();
}

/// String columns Employee/Skill/Address from the paper's Figure 1.
inline std::shared_ptr<const Table> Figure1TableR() {
  Schema schema({{"Employee", DataType::kString},
                 {"Skill", DataType::kString},
                 {"Address", DataType::kString}},
                {});
  return MakeTable(
      "R", schema,
      {
          {Value("Jones"), Value("Typing"), Value("425 Grant Ave")},
          {Value("Jones"), Value("Shorthand"), Value("425 Grant Ave")},
          {Value("Roberts"), Value("Light Cleaning"),
           Value("747 Industrial Way")},
          {Value("Ellis"), Value("Alchemy"), Value("747 Industrial Way")},
          {Value("Jones"), Value("Whittling"), Value("425 Grant Ave")},
          {Value("Ellis"), Value("Juggling"), Value("747 Industrial Way")},
          {Value("Harrison"), Value("Light Cleaning"),
           Value("425 Grant Ave")},
      });
}

/// Materializes and sorts a table's rows for order-insensitive equality.
inline std::vector<Row> SortedRows(const Table& table) {
  std::vector<Row> rows = table.Materialize();
  std::sort(rows.begin(), rows.end(), RowLess);
  return rows;
}

/// Expects two tables to hold the same multiset of tuples (column order
/// must match; row order may differ).
inline void ExpectSameContent(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_columns(), b.num_columns());
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(SortedRows(a), SortedRows(b));
}

/// Renders a row for diagnostics.
inline std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out + ")";
}

/// Random table R(K, V, P) with the FD K -> P, for decomposition
/// property tests.
inline std::shared_ptr<const Table> RandomFdTable(uint64_t rows,
                                                  uint64_t distinct_keys,
                                                  uint64_t seed) {
  Rng rng(seed);
  Schema schema({{"K", DataType::kInt64},
                 {"V", DataType::kInt64},
                 {"P", DataType::kInt64}},
                {});
  TableBuilder builder("R", schema);
  for (uint64_t r = 0; r < rows; ++r) {
    int64_t k = r < distinct_keys
                    ? static_cast<int64_t>(r)
                    : rng.Uniform(0, static_cast<int64_t>(distinct_keys) - 1);
    int64_t v = rng.Uniform(0, 9);
    int64_t p = (k * 7 + 3) % 11;  // function of k => FD holds
    Status st = builder.AppendRow({Value(k), Value(v), Value(p)});
    EXPECT_TRUE(st.ok());
  }
  auto table = builder.Finish();
  EXPECT_TRUE(table.ok());
  return table.ValueOrDie();
}

/// `table` serialized as a version-1 table image written when columns
/// could be declared SORTED: each column named in `sorted` carries the
/// schema's sorted flag 1 and stores its rows as maximal vid runs
/// (column encoding 1); the others store v1 WAH payloads. This is the
/// byte layout older builds wrote for a table declared that way.
inline std::vector<uint8_t> LegacyTableImage(
    const Table& table, const std::vector<std::string>& sorted) {
  auto is_sorted = [&](const std::string& name) {
    return std::find(sorted.begin(), sorted.end(), name) != sorted.end();
  };
  const Schema& schema = table.schema();
  BinaryWriter w;
  w.Str(table.name());
  w.U64(table.rows());
  w.U32(static_cast<uint32_t>(schema.key().size()));
  for (const std::string& k : schema.key()) w.Str(k);
  w.U32(static_cast<uint32_t>(schema.num_columns()));
  for (const ColumnSpec& spec : schema.columns()) {
    w.Str(spec.name);
    w.U8(static_cast<uint8_t>(spec.type));
    w.U8(is_sorted(spec.name) ? 1 : 0);
  }
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    const Column& col = *table.column(i);
    const bool rle = is_sorted(schema.column(i).name);
    w.U8(static_cast<uint8_t>(col.type()));
    w.U8(rle ? 1 : 0);
    w.U64(col.rows());
    WriteDictionary(col.dict(), &w);
    if (!rle) {
      w.U32(static_cast<uint32_t>(col.distinct_count()));
      for (const ValueBitmap& vb : col.bitmaps()) WriteBitmap(vb.ToWah(), &w);
      continue;
    }
    std::vector<std::pair<Vid, uint64_t>> runs;
    for (Vid vid : col.DecodeVids()) {
      if (!runs.empty() && runs.back().first == vid) {
        ++runs.back().second;
      } else {
        runs.emplace_back(vid, 1);
      }
    }
    w.U32(static_cast<uint32_t>(runs.size()));
    for (const auto& [vid, length] : runs) {
      w.U32(vid);
      w.U64(length);
    }
  }
  return w.TakeBuffer();
}

/// `table` as a SORTED-declared table: its LegacyTableImage, loaded.
inline std::shared_ptr<const Table> LoadAsSortedDeclared(
    const Table& table, const std::vector<std::string>& sorted) {
  std::vector<uint8_t> image = LegacyTableImage(table, sorted);
  BinaryReader in(image);
  Result<std::shared_ptr<const Table>> loaded = ReadTable(&in);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(in.AtEnd());
  return loaded.ValueOrDie();
}

}  // namespace cods::testing

#endif  // CODS_TESTS_TEST_UTIL_H_
