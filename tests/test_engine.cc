// Tests for the EvolutionEngine: SMO dispatch, catalog effects, failure
// handling, and parity between the Catalog and SnapshotCatalog bindings.

#include "evolution/engine.h"

#include <map>

#include "concurrency/snapshot_catalog.h"
#include "gtest/gtest.h"
#include "smo/parser.h"
#include "test_util.h"

namespace cods {
namespace {

using ::cods::testing::ExpectSameContent;
using ::cods::testing::Figure1TableR;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddTable(Figure1TableR()).ok());
    EngineOptions options;
    options.validate_outputs = true;
    engine_ = std::make_unique<EvolutionEngine>(&catalog_, nullptr, options);
  }

  Catalog catalog_;
  std::unique_ptr<EvolutionEngine> engine_;
};

TEST_F(EngineTest, CreateAndDropTable) {
  Schema schema({{"a", DataType::kInt64}});
  ASSERT_TRUE(engine_->Apply(Smo::CreateTable("New", schema)).ok());
  EXPECT_TRUE(catalog_.HasTable("New"));
  EXPECT_TRUE(engine_->Apply(Smo::CreateTable("New", schema))
                  .IsAlreadyExists());
  ASSERT_TRUE(engine_->Apply(Smo::DropTable("New")).ok());
  EXPECT_FALSE(catalog_.HasTable("New"));
  EXPECT_TRUE(engine_->Apply(Smo::DropTable("New")).IsKeyError());
}

TEST_F(EngineTest, RenameAndCopy) {
  ASSERT_TRUE(engine_->Apply(Smo::CopyTable("R", "R2")).ok());
  EXPECT_TRUE(catalog_.HasTable("R"));
  EXPECT_TRUE(catalog_.HasTable("R2"));
  ASSERT_TRUE(engine_->Apply(Smo::RenameTable("R2", "R3")).ok());
  EXPECT_FALSE(catalog_.HasTable("R2"));
  ExpectSameContent(*catalog_.GetTable("R").ValueOrDie(),
                    *catalog_.GetTable("R3").ValueOrDie());
}

TEST_F(EngineTest, DecomposeReplacesInputWithOutputs) {
  Smo smo = Smo::DecomposeTable("R", "S", {"Employee", "Skill"}, {}, "T",
                                {"Employee", "Address"}, {"Employee"});
  ASSERT_TRUE(engine_->Apply(smo).ok());
  EXPECT_FALSE(catalog_.HasTable("R"));
  EXPECT_EQ(catalog_.GetTable("S").ValueOrDie()->rows(), 7u);
  EXPECT_EQ(catalog_.GetTable("T").ValueOrDie()->rows(), 4u);
}

TEST_F(EngineTest, MergeReplacesInputsWithOutput) {
  Smo decompose = Smo::DecomposeTable("R", "S", {"Employee", "Skill"}, {},
                                      "T", {"Employee", "Address"},
                                      {"Employee"});
  ASSERT_TRUE(engine_->Apply(decompose).ok());
  Smo merge = Smo::MergeTables("S", "T", "R", {"Employee"}, {});
  ASSERT_TRUE(engine_->Apply(merge).ok());
  EXPECT_FALSE(catalog_.HasTable("S"));
  EXPECT_FALSE(catalog_.HasTable("T"));
  ExpectSameContent(*Figure1TableR(),
                    *catalog_.GetTable("R").ValueOrDie());
}

TEST_F(EngineTest, UnionAndPartitionRoundTrip) {
  Smo part = Smo::PartitionTable("R", "Grant", "Rest", "Address",
                                 CompareOp::kEq, Value("425 Grant Ave"));
  ASSERT_TRUE(engine_->Apply(part).ok());
  EXPECT_FALSE(catalog_.HasTable("R"));
  EXPECT_EQ(catalog_.GetTable("Grant").ValueOrDie()->rows(), 4u);
  EXPECT_EQ(catalog_.GetTable("Rest").ValueOrDie()->rows(), 3u);

  Smo un = Smo::UnionTables("Grant", "Rest", "R");
  ASSERT_TRUE(engine_->Apply(un).ok());
  EXPECT_FALSE(catalog_.HasTable("Grant"));
  EXPECT_FALSE(catalog_.HasTable("Rest"));
  // Union of the partition is R up to row order.
  auto restored = catalog_.GetTable("R").ValueOrDie();
  EXPECT_EQ(testing::SortedRows(*restored),
            testing::SortedRows(*Figure1TableR()));
}

TEST_F(EngineTest, ColumnOperators) {
  ASSERT_TRUE(engine_
                  ->Apply(Smo::AddColumn("R",
                                         {"Grade", DataType::kInt64},
                                         Value(int64_t{0})))
                  .ok());
  EXPECT_EQ(catalog_.GetTable("R").ValueOrDie()->num_columns(), 4u);
  ASSERT_TRUE(
      engine_->Apply(Smo::RenameColumn("R", "Grade", "Level")).ok());
  EXPECT_TRUE(catalog_.GetTable("R")
                  .ValueOrDie()
                  ->schema()
                  .HasColumn("Level"));
  ASSERT_TRUE(engine_->Apply(Smo::DropColumn("R", "Level")).ok());
  EXPECT_EQ(catalog_.GetTable("R").ValueOrDie()->num_columns(), 3u);
}

TEST_F(EngineTest, ApplyAllStopsAtFirstFailure) {
  std::vector<Smo> script = {
      Smo::RenameTable("R", "R1"),
      Smo::DropTable("DoesNotExist"),
      Smo::RenameTable("R1", "R2"),
  };
  Status st = engine_->ApplyAll(script);
  EXPECT_FALSE(st.ok());
  // First op applied, third not reached.
  EXPECT_TRUE(catalog_.HasTable("R1"));
  EXPECT_FALSE(catalog_.HasTable("R2"));
  // The failing SMO is named in the error.
  EXPECT_NE(st.message().find("DROP TABLE DoesNotExist"),
            std::string::npos);
}

TEST_F(EngineTest, DecomposeOutputNameCollisionRejected) {
  Schema schema({{"x", DataType::kInt64}});
  ASSERT_TRUE(engine_->Apply(Smo::CreateTable("S", schema)).ok());
  Smo smo = Smo::DecomposeTable("R", "S", {"Employee", "Skill"}, {}, "T",
                                {"Employee", "Address"}, {"Employee"});
  EXPECT_TRUE(engine_->Apply(smo).IsAlreadyExists());
  // R untouched on failure.
  EXPECT_TRUE(catalog_.HasTable("R"));
}

TEST_F(EngineTest, MergeMissingInputFails) {
  Smo merge = Smo::MergeTables("R", "Nope", "X", {"Employee"}, {});
  EXPECT_TRUE(engine_->Apply(merge).IsKeyError());
}

TEST_F(EngineTest, ValidatePreconditionsCatchesLossyDecompose) {
  EngineOptions options;
  options.validate_preconditions = true;
  EvolutionEngine strict(&catalog_, nullptr, options);
  // Employee -> Skill is false, so declaring T(Employee, Skill) keyed on
  // Employee must fail.
  Smo smo = Smo::DecomposeTable("R", "S", {"Employee", "Address"}, {}, "T",
                                {"Employee", "Skill"}, {"Employee"});
  Status st = strict.Apply(smo);
  EXPECT_TRUE(st.IsConstraintViolation()) << st.ToString();
  EXPECT_TRUE(catalog_.HasTable("R"));
}

TEST_F(EngineTest, ObserverSeesSteps) {
  RecordingObserver observer;
  EvolutionEngine engine(&catalog_, &observer, EngineOptions{});
  Smo smo = Smo::DecomposeTable("R", "S", {"Employee", "Skill"}, {}, "T",
                                {"Employee", "Address"}, {"Employee"});
  ASSERT_TRUE(engine.Apply(smo).ok());
  EXPECT_TRUE(observer.HasStep("distinction"));
  EXPECT_TRUE(observer.HasStep("filtering"));
  EXPECT_GE(observer.TotalSeconds(), 0.0);
}

TEST(SmoToString, CoversEveryKind) {
  Schema schema({{"a", DataType::kInt64}});
  EXPECT_NE(Smo::CreateTable("T", schema).ToString().find("CREATE TABLE T"),
            std::string::npos);
  EXPECT_EQ(Smo::DropTable("T").ToString(), "DROP TABLE T");
  EXPECT_EQ(Smo::RenameTable("A", "B").ToString(), "RENAME TABLE A TO B");
  EXPECT_EQ(Smo::CopyTable("A", "B").ToString(), "COPY TABLE A TO B");
  EXPECT_EQ(Smo::UnionTables("A", "B", "C").ToString(),
            "UNION TABLES A, B INTO C");
  EXPECT_NE(Smo::PartitionTable("R", "A", "B", "x", CompareOp::kGe,
                                Value(int64_t{3}))
                .ToString()
                .find("WHERE x >= 3"),
            std::string::npos);
  EXPECT_NE(Smo::DecomposeTable("R", "S", {"a"}, {"a"}, "T", {"b"}, {})
                .ToString()
                .find("DECOMPOSE TABLE R INTO S(a) KEY(a), T(b)"),
            std::string::npos);
  EXPECT_NE(Smo::MergeTables("S", "T", "R", {"k"}, {}).ToString().find(
                "MERGE TABLES S, T INTO R ON (k)"),
            std::string::npos);
  EXPECT_NE(Smo::AddColumn("R", {"c", DataType::kInt64},
                           Value(int64_t{0}))
                .ToString()
                .find("ADD COLUMN c INT64 TO R DEFAULT 0"),
            std::string::npos);
  EXPECT_EQ(Smo::DropColumn("R", "c").ToString(), "DROP COLUMN c FROM R");
  EXPECT_EQ(Smo::RenameColumn("R", "a", "b").ToString(),
            "RENAME COLUMN a TO b IN R");
}

// ---- Catalog and SnapshotCatalog bindings -------------------------------

using TableMap = std::map<std::string, std::shared_ptr<const Table>>;

std::vector<Smo> Parse(const std::string& text) {
  auto script = ParseSmoScript(text);
  CODS_CHECK(script.ok()) << script.status().ToString();
  return std::move(script).ValueOrDie();
}

// An engine bound to a Catalog or to a SnapshotCatalog, both seeded with
// Figure 1's R.
class BoundEngine {
 public:
  explicit BoundEngine(bool snapshot) : snapshot_(snapshot) {
    CODS_CHECK_OK(catalog_.AddTable(Figure1TableR()));
    if (snapshot_) {
      snapshots_.Reset(catalog_);
      engine_ = std::make_unique<EvolutionEngine>(&snapshots_);
    } else {
      engine_ = std::make_unique<EvolutionEngine>(&catalog_);
    }
  }

  EvolutionEngine& engine() { return *engine_; }
  const char* name() const { return snapshot_ ? "snapshot" : "catalog"; }

  // The tables the binding serves now, by name.
  TableMap Tables() const {
    const Catalog served =
        snapshot_ ? MaterializeCatalog(*snapshots_.current()) : Catalog();
    const Catalog& from = snapshot_ ? served : catalog_;
    TableMap tables;
    for (const std::string& name : from.TableNames()) {
      tables[name] = from.GetTable(name).ValueOrDie();
    }
    return tables;
  }

 private:
  bool snapshot_;
  Catalog catalog_;
  SnapshotCatalog snapshots_;
  std::unique_ptr<EvolutionEngine> engine_;
};

// An SMO that names one table twice — both outputs of PARTITION or
// DECOMPOSE, both inputs of UNION or MERGE — is rejected before any work,
// naming the table, and leaves every binding untouched.
TEST(EngineBindings, AliasedTableNamesAreRejected) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"PARTITION TABLE R INTO X, X WHERE Skill = 'Light Cleaning';", "X"},
      {"DECOMPOSE TABLE R INTO S(Employee, Skill), "
       "S(Employee, Address) KEY(Employee);",
       "S"},
      {"UNION TABLES R, R INTO U;", "R"},
      {"MERGE TABLES R, R INTO M ON (Employee);", "R"},
  };
  for (bool snapshot : {false, true}) {
    for (const auto& [text, name] : cases) {
      BoundEngine bound(snapshot);
      const TableMap before = bound.Tables();
      Status st = bound.engine().Apply(Parse(text)[0]);
      EXPECT_TRUE(st.IsInvalidArgument())
          << bound.name() << ": " << text << " -> " << st.ToString();
      EXPECT_NE(st.message().find("table '" + name + "'"), std::string::npos)
          << st.ToString();
      EXPECT_EQ(bound.Tables(), before) << bound.name() << ": " << text;
    }
  }
}

// The binding only decides where the effects commit: the same script run
// serially or planned on a Catalog- or a SnapshotCatalog-bound engine
// gives the same Status text and the same tables — a failing statement
// commits none of its own effects on either.
TEST(EngineBindings, CatalogAndSnapshotBindingsAgree) {
  struct Case {
    std::string text;
    std::string survivor;  // a table every run must end up holding
  };
  const std::vector<Case> cases = {
      // All succeed.
      {"COPY TABLE R TO R2;"
       "PARTITION TABLE R INTO A, B WHERE Skill = 'Light Cleaning';"
       "UNION TABLES A, B INTO U;"
       "DECOMPOSE TABLE U INTO S(Employee, Skill), "
       "T(Employee, Address) KEY(Employee);"
       "MERGE TABLES S, T INTO M ON (Employee);"
       "ADD COLUMN Level INT64 TO M DEFAULT 1;"
       "RENAME TABLE R2 TO Backup;",
       "M"},
      // Fails mid-script: the prefix commits, the rest never runs.
      {"COPY TABLE R TO R2; DROP TABLE Missing; RENAME TABLE R2 TO R3;",
       "R2"},
      // Self-UNION: fails without touching R.
      {"UNION TABLES R, R INTO U;", "R"},
  };
  for (const auto& [text, survivor] : cases) {
    const std::vector<Smo> script = Parse(text);
    std::string want_status;
    std::map<std::string, std::vector<Row>> want_rows;
    bool first = true;
    for (bool snapshot : {false, true}) {
      for (bool planned : {false, true}) {
        BoundEngine bound(snapshot);
        Status st = planned ? bound.engine().ApplyAllPlanned(script)
                            : bound.engine().ApplyAll(script);
        std::map<std::string, std::vector<Row>> rows;
        for (const auto& [name, table] : bound.Tables()) {
          rows[name] = table->Materialize();
        }
        if (first) {
          want_status = st.ToString();
          want_rows = rows;
          first = false;
          continue;
        }
        const std::string label = std::string(bound.name()) +
                                  (planned ? " planned: " : " serial: ") +
                                  text;
        EXPECT_EQ(st.ToString(), want_status) << label;
        EXPECT_EQ(rows, want_rows) << label;
      }
    }
    EXPECT_EQ(want_rows.count(survivor), 1u) << text;
  }
}

}  // namespace
}  // namespace cods
