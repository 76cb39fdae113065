// Tests for CSV load/save, schema inference, and the table printer.

#include "storage/csv.h"

#include <cstdio>

#include "gtest/gtest.h"
#include "storage/printer.h"
#include "test_util.h"

namespace cods {
namespace {

const char kCsv[] =
    "Employee,Skill,Address\n"
    "Jones,Typing,425 Grant Ave\n"
    "Roberts,Light Cleaning,747 Industrial Way\n";

Schema EmployeeSchema() {
  return Schema({{"Employee", DataType::kString},
                 {"Skill", DataType::kString},
                 {"Address", DataType::kString}},
                {});
}

TEST(Csv, LoadWithExplicitSchema) {
  auto table = CsvToTable(kCsv, "R", EmployeeSchema()).ValueOrDie();
  EXPECT_EQ(table->rows(), 2u);
  EXPECT_EQ(table->GetValue(1, 2), Value("747 Industrial Way"));
}

TEST(Csv, HeaderMismatchRejected) {
  Schema wrong({{"X", DataType::kString},
                {"Skill", DataType::kString},
                {"Address", DataType::kString}});
  EXPECT_FALSE(CsvToTable(kCsv, "R", wrong).ok());
}

TEST(Csv, ArityMismatchRejected) {
  EXPECT_FALSE(
      CsvToTable("a,b\n1\n", "t",
                 Schema({{"a", DataType::kInt64},
                         {"b", DataType::kInt64}}))
          .ok());
}

TEST(Csv, TypeErrorsSurfaceLine) {
  Schema schema({{"a", DataType::kInt64}});
  Status st = CsvToTable("a\n1\nxyz\n", "t", schema).status();
  EXPECT_TRUE(st.IsTypeError()) << st.ToString();
}

TEST(Csv, InferenceDetectsTypes) {
  auto table = CsvToTableInferred(
                   "id,score,name\n"
                   "1,2.5,alice\n"
                   "2,3.5,bob\n",
                   "t")
                   .ValueOrDie();
  EXPECT_EQ(table->schema().column(0).type, DataType::kInt64);
  EXPECT_EQ(table->schema().column(1).type, DataType::kDouble);
  EXPECT_EQ(table->schema().column(2).type, DataType::kString);
  EXPECT_EQ(table->GetValue(1, 0), Value(int64_t{2}));
}

TEST(Csv, InferenceWidensIntToDouble) {
  auto table = CsvToTableInferred("x\n1\n2.5\n", "t").ValueOrDie();
  EXPECT_EQ(table->schema().column(0).type, DataType::kDouble);
}

TEST(Csv, RoundTripThroughText) {
  auto original = testing::Figure1TableR();
  std::string text = TableToCsv(*original);
  auto reloaded = CsvToTable(text, "R", original->schema()).ValueOrDie();
  testing::ExpectSameContent(*original, *reloaded);
}

TEST(Csv, FileRoundTrip) {
  auto original = testing::Figure1TableR();
  std::string path = ::testing::TempDir() + "/cods_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(*original, path).ok());
  auto reloaded = LoadCsvFile(path, "R", original->schema()).ValueOrDie();
  testing::ExpectSameContent(*original, *reloaded);
  std::remove(path.c_str());
}

TEST(Csv, MissingFileIsIOError) {
  EXPECT_TRUE(LoadCsvFile("/nonexistent/x.csv", "t", EmployeeSchema())
                  .status()
                  .IsIOError());
}

TEST(Printer, RendersHeaderRowsAndFooter) {
  auto r = testing::Figure1TableR();
  std::string text = FormatTable(*r);
  EXPECT_NE(text.find("Employee"), std::string::npos);
  EXPECT_NE(text.find("Jones"), std::string::npos);
  EXPECT_NE(text.find("(7 rows)"), std::string::npos);
}

TEST(Printer, ElidesRowsPastLimit) {
  auto r = testing::Figure1TableR();
  PrintOptions options;
  options.max_rows = 2;
  std::string text = FormatTable(*r, options);
  EXPECT_NE(text.find("... 5 more rows"), std::string::npos);
}

TEST(Printer, StatsShowEncodingAndDistincts) {
  auto r = testing::Figure1TableR();
  std::string text = FormatTableStats(*r);
  EXPECT_NE(text.find("Employee: distinct=4"), std::string::npos);
  // Codec detail: per-column representation mix and the global stats.
  // Over 7 rows the two 1-row employees are WAH and the 2- and 3-row
  // ones bitsets.
  EXPECT_NE(text.find("reps: array=0 wah=2 bitset=2"), std::string::npos);
  EXPECT_NE(text.find("bitset-equivalent bytes="), std::string::npos);
  EXPECT_NE(text.find("popcount cache hits="), std::string::npos);
  EXPECT_NE(text.find("row->vid maps: built="), std::string::npos);
  EXPECT_NE(text.find("retained bytes="), std::string::npos);
}

}  // namespace
}  // namespace cods
