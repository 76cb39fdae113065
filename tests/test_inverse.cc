// Tests for inverse SMOs and the evolution log: every invertible
// operator, applied and then undone, must restore the catalog's data.

#include "evolution/inverse.h"

#include "evolution/engine.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace cods {
namespace {

using ::cods::testing::ExpectSameContent;
using ::cods::testing::Figure1TableR;
using ::cods::testing::SortedRows;

TEST(Invertible, Classification) {
  EXPECT_TRUE(IsInvertible(SmoKind::kCreateTable));
  EXPECT_TRUE(IsInvertible(SmoKind::kRenameTable));
  EXPECT_TRUE(IsInvertible(SmoKind::kCopyTable));
  EXPECT_TRUE(IsInvertible(SmoKind::kPartitionTable));
  EXPECT_TRUE(IsInvertible(SmoKind::kDecomposeTable));
  EXPECT_TRUE(IsInvertible(SmoKind::kMergeTables));
  EXPECT_TRUE(IsInvertible(SmoKind::kAddColumn));
  EXPECT_TRUE(IsInvertible(SmoKind::kRenameColumn));
  EXPECT_FALSE(IsInvertible(SmoKind::kDropTable));
  EXPECT_FALSE(IsInvertible(SmoKind::kDropColumn));
  EXPECT_FALSE(IsInvertible(SmoKind::kUnionTables));
}

TEST(Inverse, LossyOperatorsRejected) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(Figure1TableR()).ok());
  EXPECT_TRUE(InvertSmo(Smo::DropTable("R"), catalog)
                  .status()
                  .IsConstraintViolation());
  EXPECT_TRUE(InvertSmo(Smo::DropColumn("R", "Skill"), catalog)
                  .status()
                  .IsConstraintViolation());
  EXPECT_TRUE(InvertSmo(Smo::UnionTables("A", "B", "C"), catalog)
                  .status()
                  .IsConstraintViolation());
}

TEST(Inverse, SimpleInverses) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(Figure1TableR()).ok());
  Schema schema({{"a", DataType::kInt64}});

  Smo inv = InvertSmo(Smo::CreateTable("X", schema), catalog).ValueOrDie();
  EXPECT_EQ(inv.kind, SmoKind::kDropTable);
  EXPECT_EQ(inv.table, "X");

  inv = InvertSmo(Smo::RenameTable("R", "R2"), catalog).ValueOrDie();
  EXPECT_EQ(inv.ToString(), "RENAME TABLE R2 TO R");

  inv = InvertSmo(Smo::CopyTable("R", "Backup"), catalog).ValueOrDie();
  EXPECT_EQ(inv.ToString(), "DROP TABLE Backup");

  inv = InvertSmo(Smo::AddColumn("R", {"g", DataType::kInt64},
                                 Value(int64_t{0})),
                  catalog)
            .ValueOrDie();
  EXPECT_EQ(inv.ToString(), "DROP COLUMN g FROM R");

  inv = InvertSmo(Smo::RenameColumn("R", "Skill", "Ability"), catalog)
            .ValueOrDie();
  EXPECT_EQ(inv.ToString(), "RENAME COLUMN Ability TO Skill IN R");
}

TEST(Inverse, MergeInverseReadsPreStateSchemas) {
  // Build S and T, then invert a MERGE before applying it.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(Figure1TableR()).ok());
  EvolutionEngine engine(&catalog);
  ASSERT_TRUE(engine
                  .Apply(Smo::DecomposeTable(
                      "R", "S", {"Employee", "Skill"}, {}, "T",
                      {"Employee", "Address"}, {"Employee"}))
                  .ok());
  Smo merge = Smo::MergeTables("S", "T", "R", {"Employee"}, {});
  Smo inv = InvertSmo(merge, catalog).ValueOrDie();
  EXPECT_EQ(inv.kind, SmoKind::kDecomposeTable);
  EXPECT_EQ(inv.table, "R");
  EXPECT_EQ(inv.out1, "S");
  EXPECT_EQ(inv.columns1, (std::vector<std::string>{"Employee", "Skill"}));
  EXPECT_EQ(inv.key2, (std::vector<std::string>{"Employee"}));
}

// Round-trip each invertible operator through apply + undo and compare
// data before/after.
class UndoRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddTable(Figure1TableR()).ok());
    engine_ = std::make_unique<EvolutionEngine>(&catalog_);
  }

  void ApplyAndUndo(const Smo& smo) {
    Smo inverse = InvertSmo(smo, catalog_).ValueOrDie();
    ASSERT_TRUE(engine_->Apply(smo).ok()) << smo.ToString();
    ASSERT_TRUE(engine_->Apply(inverse).ok()) << inverse.ToString();
  }

  Catalog catalog_;
  std::unique_ptr<EvolutionEngine> engine_;
};

TEST_F(UndoRoundTrip, RenameTable) {
  ApplyAndUndo(Smo::RenameTable("R", "R2"));
  ExpectSameContent(*Figure1TableR(), *catalog_.GetTable("R").ValueOrDie());
}

TEST_F(UndoRoundTrip, CopyTable) {
  ApplyAndUndo(Smo::CopyTable("R", "Backup"));
  EXPECT_FALSE(catalog_.HasTable("Backup"));
}

TEST_F(UndoRoundTrip, Partition) {
  ApplyAndUndo(Smo::PartitionTable("R", "A", "B", "Address",
                                   CompareOp::kEq,
                                   Value("425 Grant Ave")));
  EXPECT_EQ(SortedRows(*catalog_.GetTable("R").ValueOrDie()),
            SortedRows(*Figure1TableR()));
}

TEST_F(UndoRoundTrip, DecomposeThenUndoMerges) {
  ApplyAndUndo(Smo::DecomposeTable("R", "S", {"Employee", "Skill"}, {},
                                   "T", {"Employee", "Address"},
                                   {"Employee"}));
  ExpectSameContent(*Figure1TableR(),
                    *catalog_.GetTable("R").ValueOrDie());
  EXPECT_FALSE(catalog_.HasTable("S"));
  EXPECT_FALSE(catalog_.HasTable("T"));
}

TEST_F(UndoRoundTrip, AddColumn) {
  ApplyAndUndo(Smo::AddColumn("R", {"g", DataType::kInt64},
                              Value(int64_t{9})));
  EXPECT_EQ(catalog_.GetTable("R").ValueOrDie()->num_columns(), 3u);
}

TEST_F(UndoRoundTrip, RenameColumn) {
  ApplyAndUndo(Smo::RenameColumn("R", "Skill", "Ability"));
  EXPECT_TRUE(
      catalog_.GetTable("R").ValueOrDie()->schema().HasColumn("Skill"));
}

TEST(EvolutionLog, RecordsAndUndoesAScript) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(Figure1TableR()).ok());
  EvolutionEngine engine(&catalog);
  EvolutionLog log;

  std::vector<Smo> script = {
      Smo::CopyTable("R", "Backup"),
      Smo::RenameTable("R", "Employees"),
      Smo::DecomposeTable("Employees", "S", {"Employee", "Skill"}, {}, "T",
                          {"Employee", "Address"}, {"Employee"}),
      Smo::AddColumn("T", {"Zip", DataType::kInt64},
                     Value(int64_t{0})),
  };
  for (const Smo& smo : script) {
    ASSERT_TRUE(log.Record(smo, catalog).ok()) << smo.ToString();
    ASSERT_TRUE(engine.Apply(smo).ok()) << smo.ToString();
  }
  EXPECT_EQ(log.size(), 4u);

  // Undo everything: the catalog returns to exactly {R}.
  for (const Smo& smo : log.UndoScript()) {
    ASSERT_TRUE(engine.Apply(smo).ok()) << smo.ToString();
  }
  EXPECT_EQ(catalog.TableNames(), (std::vector<std::string>{"R"}));
  ExpectSameContent(*Figure1TableR(), *catalog.GetTable("R").ValueOrDie());
}

TEST(EvolutionLog, RefusesLossyOps) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(Figure1TableR()).ok());
  EvolutionLog log;
  EXPECT_FALSE(log.Record(Smo::DropTable("R"), catalog).ok());
  EXPECT_EQ(log.size(), 0u);
  log.Clear();
  EXPECT_TRUE(log.UndoScript().empty());
}

}  // namespace
}  // namespace cods
