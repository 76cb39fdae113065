// Tests for the SMO script planner: read/write-set extraction, DAG
// shape (independence, chains, diamonds, transitive reduction), the
// plan printer, and planned execution's bit-identical-to-serial
// contract in both the success and the mid-script-failure case.

#include "plan/script_planner.h"

#include <memory>
#include <string>
#include <vector>

#include "evolution/engine.h"
#include "gtest/gtest.h"
#include "plan/staged_catalog.h"
#include "smo/parser.h"
#include "workload/generator.h"

namespace cods {
namespace {

using Names = std::vector<std::string>;

std::shared_ptr<const Table> SmallTable(const std::string& name) {
  WorkloadSpec spec;
  spec.num_rows = 5'000;
  spec.num_distinct = 200;
  spec.payload_distinct = 50;
  spec.dependent_distinct = 20;
  auto r = GenerateEvolutionTable(spec);
  CODS_CHECK(r.ok()) << r.status().ToString();
  return r.ValueOrDie()->WithName(name);
}

// Exact (code-word-level) table equality.
void ExpectTablesIdentical(const Table& a, const Table& b,
                           const std::string& label) {
  ASSERT_EQ(a.rows(), b.rows()) << label;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << label;
  for (size_t i = 0; i < a.num_columns(); ++i) {
    const Column& ca = *a.column(i);
    const Column& cb = *b.column(i);
    ASSERT_EQ(ca.distinct_count(), cb.distinct_count())
        << label << " col " << i;
    for (Vid v = 0; v < ca.distinct_count(); ++v) {
      ASSERT_EQ(ca.dict().value(v), cb.dict().value(v))
          << label << " col " << i << " vid " << v;
      EXPECT_TRUE(ca.bitmap(v) == cb.bitmap(v))
          << label << ": column " << i << " vid " << v << " bitmaps differ";
    }
  }
}

// Exact catalog equality: same names, code-word-identical tables.
void ExpectCatalogsIdentical(const Catalog& a, const Catalog& b,
                             const std::string& label) {
  ASSERT_EQ(a.TableNames(), b.TableNames()) << label;
  for (const std::string& name : a.TableNames()) {
    ExpectTablesIdentical(*a.GetTable(name).ValueOrDie(),
                          *b.GetTable(name).ValueOrDie(),
                          label + " table " + name);
  }
}

std::vector<Smo> Parse(const std::string& text) {
  auto script = ParseSmoScript(text);
  CODS_CHECK(script.ok()) << script.status().ToString();
  return std::move(script).ValueOrDie();
}

TEST(SmoTableSets, PerKindReadAndWriteSets) {
  Schema schema({{"a", DataType::kInt64}});
  EXPECT_EQ(Smo::CreateTable("T", schema).ReadTables(), Names{});
  EXPECT_EQ(Smo::CreateTable("T", schema).WriteTables(), Names{"T"});
  EXPECT_EQ(Smo::DropTable("T").ReadTables(), Names{});
  EXPECT_EQ(Smo::DropTable("T").WriteTables(), Names{"T"});
  EXPECT_EQ(Smo::RenameTable("A", "B").WriteTables(), (Names{"A", "B"}));
  EXPECT_EQ(Smo::CopyTable("A", "B").ReadTables(), Names{"A"});
  EXPECT_EQ(Smo::CopyTable("A", "B").WriteTables(), Names{"B"});
  EXPECT_EQ(Smo::UnionTables("A", "B", "C").ReadTables(), (Names{"A", "B"}));
  EXPECT_EQ(Smo::UnionTables("A", "B", "C").WriteTables(),
            (Names{"A", "B", "C"}));
  Smo part = Smo::PartitionTable("R", "X", "Y", "c", CompareOp::kLt,
                                 Value(int64_t{1}));
  EXPECT_EQ(part.ReadTables(), Names{"R"});
  EXPECT_EQ(part.WriteTables(), (Names{"R", "X", "Y"}));
  Smo dec = Smo::DecomposeTable("R", "S", {"a"}, {}, "T", {"b"}, {});
  EXPECT_EQ(dec.ReadTables(), Names{"R"});
  EXPECT_EQ(dec.WriteTables(), (Names{"R", "S", "T"}));
  Smo merge = Smo::MergeTables("S", "T", "R", {"k"}, {});
  EXPECT_EQ(merge.ReadTables(), (Names{"S", "T"}));
  EXPECT_EQ(merge.WriteTables(), (Names{"R", "S", "T"}));
  Smo add = Smo::AddColumn("R", {"c", DataType::kInt64},
                           Value(int64_t{0}));
  EXPECT_EQ(add.ReadTables(), Names{"R"});
  EXPECT_EQ(add.WriteTables(), Names{"R"});
  EXPECT_EQ(Smo::DropColumn("R", "c").WriteTables(), Names{"R"});
  EXPECT_EQ(Smo::RenameColumn("R", "a", "b").WriteTables(), Names{"R"});
  // In-place decompose (an output reuses the input name) dedupes.
  Smo inplace = Smo::DecomposeTable("R", "R", {"a"}, {}, "T", {"b"}, {});
  EXPECT_EQ(inplace.WriteTables(), (Names{"R", "T"}));
}

TEST(ScriptPlanner, IndependentScriptHasNoEdges) {
  std::vector<Smo> script = Parse(
      "DROP COLUMN a FROM R0; DROP COLUMN a FROM R1; DROP COLUMN a FROM R2;");
  ScriptPlan plan = PlanScript(script);
  EXPECT_EQ(plan.num_edges, 0u);
  ASSERT_EQ(plan.stages.size(), 1u);
  EXPECT_EQ(plan.stages[0], (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(plan.critical_path, 1u);
}

TEST(ScriptPlanner, ConflictingScriptIsAChainWithTransitiveReduction) {
  std::vector<Smo> script = Parse(
      "ADD COLUMN x INT64 TO R; DROP COLUMN x FROM R; "
      "RENAME COLUMN K TO K2 IN R;");
  ScriptPlan plan = PlanScript(script);
  EXPECT_EQ(plan.num_edges, 2u);  // 1<-0 and 2<-1; 2<-0 is implied
  EXPECT_EQ(plan.tasks[1].deps, (std::vector<size_t>{0}));
  EXPECT_EQ(plan.tasks[2].deps, (std::vector<size_t>{1}));
  EXPECT_EQ(plan.critical_path, 3u);
}

TEST(ScriptPlanner, ReadersOfOneTableAreIndependent) {
  // Two COPYs read R concurrently; the DROP of R must wait for both.
  std::vector<Smo> script = Parse(
      "COPY TABLE R TO A; COPY TABLE R TO B; DROP TABLE R;");
  ScriptPlan plan = PlanScript(script);
  EXPECT_TRUE(plan.tasks[0].deps.empty());
  EXPECT_TRUE(plan.tasks[1].deps.empty());
  EXPECT_EQ(plan.tasks[2].deps, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(plan.critical_path, 2u);
}

TEST(ScriptPlanner, DiamondShape) {
  std::vector<Smo> script = Parse(
      "PARTITION TABLE R INTO L, H WHERE K < 100;"
      "PARTITION TABLE L INTO L1, L2 WHERE K < 50;"
      "PARTITION TABLE H INTO H1, H2 WHERE K < 150;"
      "UNION TABLES L1, H1 INTO M;"
      "UNION TABLES L2, H2 INTO O;");
  ScriptPlan plan = PlanScript(script);
  EXPECT_EQ(plan.tasks[1].deps, (std::vector<size_t>{0}));
  EXPECT_EQ(plan.tasks[2].deps, (std::vector<size_t>{0}));
  EXPECT_EQ(plan.tasks[3].deps, (std::vector<size_t>{1, 2}));
  EXPECT_EQ(plan.tasks[4].deps, (std::vector<size_t>{1, 2}));
  EXPECT_EQ(plan.num_edges, 6u);
  ASSERT_EQ(plan.stages.size(), 3u);
  EXPECT_EQ(plan.stages[1], (std::vector<size_t>{1, 2}));
  EXPECT_EQ(plan.stages[2], (std::vector<size_t>{3, 4}));
}

TEST(ScriptPlanner, FormatShowsStagesSetsAndDeps) {
  std::vector<Smo> script =
      Parse("COPY TABLE R TO A; DROP COLUMN K FROM A;");
  std::string text = FormatScriptPlan(script, PlanScript(script));
  EXPECT_NE(text.find("2 tasks"), std::string::npos) << text;
  EXPECT_NE(text.find("stage 0:"), std::string::npos) << text;
  EXPECT_NE(text.find("stage 1:"), std::string::npos) << text;
  EXPECT_NE(text.find("reads: R"), std::string::npos) << text;
  EXPECT_NE(text.find("writes: A"), std::string::npos) << text;
  EXPECT_NE(text.find("after: 0"), std::string::npos) << text;
}

// ---- Planned execution vs serial ApplyAll ---------------------------------

std::unique_ptr<Catalog> TwoTableCatalog() {
  auto catalog = std::make_unique<Catalog>();
  CODS_CHECK_OK(catalog->AddTable(SmallTable("R0")));
  CODS_CHECK_OK(catalog->AddTable(SmallTable("R1")));
  return catalog;
}

std::vector<Smo> MixedScript() {
  // Wide + diamond + schema-only ops in one script: two independent
  // DECOMPOSEs, merges back, a rename chain, and a partition/union
  // diamond over R1's halves.
  return Parse(
      "DECOMPOSE TABLE R0 INTO S0(K, V), T0(K, P) KEY(K);"
      "MERGE TABLES S0, T0 INTO R0 ON (K);"
      "PARTITION TABLE R1 INTO A, B WHERE K < 100;"
      "ADD COLUMN tag INT64 TO A DEFAULT 7;"
      "ADD COLUMN tag INT64 TO B DEFAULT 7;"
      "UNION TABLES A, B INTO R1;"
      "RENAME TABLE R0 TO Rz;"
      "COPY TABLE Rz TO R0copy;");
}

TEST(PlannedExecution, BitIdenticalToSerialApplyAll) {
  std::vector<Smo> script = MixedScript();
  auto serial_catalog = TwoTableCatalog();
  EngineOptions serial_opts;
  serial_opts.num_threads = 1;
  EvolutionEngine serial(serial_catalog.get(), nullptr, serial_opts);
  ASSERT_TRUE(serial.ApplyAll(script).ok());

  for (int threads : {1, 2, 8}) {
    auto catalog = TwoTableCatalog();
    EngineOptions options;
    options.num_threads = threads;
    EvolutionEngine engine(catalog.get(), nullptr, options);
    TaskGraphStats stats;
    Status st = engine.ApplyAllPlanned(script, &stats);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(stats.ran, script.size());
    ExpectCatalogsIdentical(*serial_catalog, *catalog,
                            "planned @" + std::to_string(threads));
  }
}

TEST(PlannedExecution, FailureCommitsExactlyTheSerialPrefix) {
  // Operator 1 fails (missing table). Serial ApplyAll stops there; the
  // planner must commit the same prefix — and discard the effects of
  // operator 2, which is independent of the failure and may have run.
  std::vector<Smo> script = Parse(
      "COPY TABLE R0 TO B;"
      "DROP COLUMN K FROM Missing;"
      "COPY TABLE R1 TO C;");

  auto serial_catalog = TwoTableCatalog();
  EngineOptions serial_opts;
  serial_opts.num_threads = 1;
  EvolutionEngine serial(serial_catalog.get(), nullptr, serial_opts);
  Status serial_st = serial.ApplyAll(script);
  ASSERT_FALSE(serial_st.ok());

  for (int threads : {1, 2, 8}) {
    auto catalog = TwoTableCatalog();
    EngineOptions options;
    options.num_threads = threads;
    EvolutionEngine engine(catalog.get(), nullptr, options);
    TaskGraphStats stats;
    Status st = engine.ApplyAllPlanned(script, &stats);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.ToString(), serial_st.ToString()) << threads;
    EXPECT_FALSE(catalog->HasTable("C")) << "discarded effect committed";
    ExpectCatalogsIdentical(*serial_catalog, *catalog,
                            "failure prefix @" + std::to_string(threads));
  }
}

TEST(PlannedExecution, DownstreamOfFailureIsSkippedNotRun) {
  std::vector<Smo> script = Parse(
      "DROP COLUMN K FROM Missing;"
      "COPY TABLE Missing2 TO D;"
      "ADD COLUMN x INT64 TO D;");  // depends on the COPY, must be skipped
  auto catalog = TwoTableCatalog();
  EvolutionEngine engine(catalog.get());
  TaskGraphStats stats;
  Status st = engine.ApplyAllPlanned(script, &stats);
  ASSERT_FALSE(st.ok());
  // First failure in script order is reported.
  EXPECT_NE(st.message().find("Missing"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(stats.skipped, 1u);  // the ADD COLUMN behind the failed COPY
}

TEST(PlannedExecution, CreateDropCreateSameNameStaysOrdered) {
  std::vector<Smo> script = Parse(
      "CREATE TABLE Tmp (x INT64); DROP TABLE Tmp;"
      "CREATE TABLE Tmp (y STRING, KEY(y));");
  for (int threads : {1, 8}) {
    Catalog catalog;
    EngineOptions options;
    options.num_threads = threads;
    EvolutionEngine engine(&catalog, nullptr, options);
    Status st = engine.ApplyAllPlanned(script);
    ASSERT_TRUE(st.ok()) << st.ToString();
    auto t = catalog.GetTable("Tmp");
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.ValueOrDie()->schema().column(0).name, "y");
  }
}

TEST(StagedCatalogTest, OverlayMirrorsCatalogSemantics) {
  Catalog base;
  CODS_CHECK_OK(base.AddTable(SmallTable("R")));
  StagedCatalog staged(&base);
  std::vector<CatalogEffect> log;
  StagedCatalog::View view = staged.MakeView(&log);

  // Reads fall through to the base.
  EXPECT_TRUE(view.HasTable("R"));
  EXPECT_FALSE(view.HasTable("X"));
  EXPECT_EQ(view.GetTable("X").status().ToString(),
            base.GetTable("X").status().ToString());

  // Mutations shadow the base without touching it.
  EXPECT_TRUE(view.DropTable("R").ok());
  EXPECT_FALSE(view.HasTable("R"));
  EXPECT_TRUE(base.HasTable("R"));
  EXPECT_TRUE(view.DropTable("R").IsKeyError());
  EXPECT_TRUE(view.AddTable(SmallTable("R")).ok());
  EXPECT_TRUE(view.AddTable(SmallTable("R")).IsAlreadyExists());
  EXPECT_TRUE(view.RenameTable("R", "R2").ok());
  EXPECT_FALSE(view.HasTable("R"));
  EXPECT_TRUE(view.HasTable("R2"));
  EXPECT_TRUE(view.RenameTable("nope", "x").IsKeyError());

  // Replaying the log onto a copy of the base reproduces the overlay.
  Catalog target;
  CODS_CHECK_OK(target.AddTable(base.GetTable("R").ValueOrDie()));
  for (const CatalogEffect& effect : log) {
    ASSERT_TRUE(ApplyEffect(effect, &target).ok());
  }
  EXPECT_FALSE(target.HasTable("R"));
  EXPECT_TRUE(target.HasTable("R2"));
}

}  // namespace
}  // namespace cods
