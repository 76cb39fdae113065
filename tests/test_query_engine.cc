// Tests for the QueryEngine: typed requests (select / count /
// group-by-sum) executed against the TableStore interface — both the
// live Catalog and a StagedCatalog::View mid-script — plus projection,
// WHERE narrowing, bind-time errors, and request rendering.

#include "query/query_engine.h"

#include <cmath>
#include <functional>
#include <limits>
#include <set>

#include "common/random.h"
#include "concurrency/snapshot_catalog.h"
#include "evolution/engine.h"
#include "exec/parallel_build.h"
#include "gtest/gtest.h"
#include "plan/staged_catalog.h"
#include "query/join.h"
#include "query/row_executor.h"
#include "smo/parser.h"
#include "test_util.h"

namespace cods {
namespace {

using ::cods::testing::Figure1TableR;
using ::cods::testing::MakeTable;

Catalog MakeCatalogWithR() {
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(Figure1TableR()));
  return catalog;
}

ExprPtr JonesExpr() {
  return Expr::Compare("Employee", CompareOp::kEq, Value("Jones"));
}

TEST(QueryEngine, CountAgainstCatalog) {
  Catalog catalog = MakeCatalogWithR();
  QueryEngine engine(&catalog);
  auto result = engine.Execute(QueryRequest::Count("R", JonesExpr()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->verb, QueryRequest::Verb::kCount);
  EXPECT_EQ(result->count, 3u);
  // Null WHERE counts everything without touching bitmaps.
  EXPECT_EQ(engine.Execute(QueryRequest::Count("R")).ValueOrDie().count, 7u);
}

TEST(QueryEngine, SelectMaterializesMatchingRows) {
  Catalog catalog = MakeCatalogWithR();
  QueryEngine engine(&catalog);
  auto result = engine.Execute(
      QueryRequest::Select("R", {}, JonesExpr(), "jones"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->table, nullptr);
  EXPECT_EQ(result->table->name(), "jones");
  EXPECT_EQ(result->table->rows(), 3u);
  EXPECT_TRUE(result->table->ValidateInvariants().ok());
  for (const Row& row : result->table->Materialize()) {
    EXPECT_EQ(row[0], Value("Jones"));
  }
}

TEST(QueryEngine, SelectProjectsColumnsInRequestOrder) {
  Catalog catalog = MakeCatalogWithR();
  QueryEngine engine(&catalog);
  auto result = engine.Execute(QueryRequest::Select(
      "R", {"Skill", "Employee"}, JonesExpr(), "skills"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Table& t = *result->table;
  ASSERT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.schema().column(0).name, "Skill");
  EXPECT_EQ(t.schema().column(1).name, "Employee");
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.GetValue(0, 0), Value("Typing"));
  EXPECT_EQ(t.GetValue(0, 1), Value("Jones"));
}

TEST(QueryEngine, SelectWithoutWhereSharesColumns) {
  Catalog catalog = MakeCatalogWithR();
  QueryEngine engine(&catalog);
  auto result =
      engine.Execute(QueryRequest::Select("R", {"Address"}, nullptr, "a"));
  ASSERT_TRUE(result.ok());
  // Projection without selection is pointer sharing, not a rebuild.
  EXPECT_EQ(result->table->column(0).get(),
            catalog.GetTable("R").ValueOrDie()->column(2).get());
  EXPECT_EQ(result->table->rows(), 7u);
}

TEST(QueryEngine, ProjectionKeepsKeyOnlyWhenRetained) {
  Schema schema({{"k", DataType::kInt64},
                 {"v", DataType::kInt64}},
                {"k"});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back({Value(i), Value(i % 3)});
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(MakeTable("T", schema, rows)));
  QueryEngine engine(&catalog);
  auto keyed =
      engine.Execute(QueryRequest::Select("T", {"k", "v"}, nullptr, "p1"));
  ASSERT_TRUE(keyed.ok());
  EXPECT_EQ(keyed->table->schema().key(), std::vector<std::string>{"k"});
  auto unkeyed =
      engine.Execute(QueryRequest::Select("T", {"v"}, nullptr, "p2"));
  ASSERT_TRUE(unkeyed.ok());
  EXPECT_TRUE(unkeyed->table->schema().key().empty());
}

TEST(QueryEngine, GroupBySumWithAndWithoutWhere) {
  Schema schema({{"g", DataType::kString},
                 {"m", DataType::kInt64}},
                {});
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "T", schema,
      {{Value("a"), Value(int64_t{1})},
       {Value("a"), Value(int64_t{2})},
       {Value("b"), Value(int64_t{10})},
       {Value("b"), Value(int64_t{20})},
       {Value("c"), Value(int64_t{5})}})));
  QueryEngine engine(&catalog);
  auto all = engine.Execute(QueryRequest::GroupBySum("T", "g", "m"));
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->groups.size(), 3u);
  EXPECT_EQ(all->groups[0], (GroupRow{Value("a"), {Value(3.0)}}));
  EXPECT_EQ(all->groups[1], (GroupRow{Value("b"), {Value(30.0)}}));
  EXPECT_EQ(all->groups[2], (GroupRow{Value("c"), {Value(5.0)}}));
  // WHERE narrows each group: only m >= 2 rows contribute.
  auto narrowed = engine.Execute(QueryRequest::GroupBySum(
      "T", "g", "m",
      Expr::Compare("m", CompareOp::kGe, Value(int64_t{2}))));
  ASSERT_TRUE(narrowed.ok());
  EXPECT_EQ(narrowed->groups[0].aggregates[0], Value(2.0));
  EXPECT_EQ(narrowed->groups[1].aggregates[0], Value(30.0));
  EXPECT_EQ(narrowed->groups[2].aggregates[0], Value(5.0));
  // A WHERE that leaves a group no qualifying rows drops the group
  // entirely (SQL GROUP BY semantics), rather than reporting a
  // phantom 0.
  auto only_b = engine.Execute(QueryRequest::GroupBySum(
      "T", "g", "m",
      Expr::Compare("m", CompareOp::kGe, Value(int64_t{10}))));
  ASSERT_TRUE(only_b.ok());
  ASSERT_EQ(only_b->groups.size(), 1u);
  EXPECT_EQ(only_b->groups[0], (GroupRow{Value("b"), {Value(30.0)}}));
  // String measures are a type error.
  EXPECT_TRUE(engine.Execute(QueryRequest::GroupBySum("T", "g", "g"))
                  .status()
                  .IsTypeError());
}

TEST(QueryEngine, GroupByMultiAggregate) {
  Schema schema({{"g", DataType::kString},
                 {"m", DataType::kInt64}},
                {});
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "T", schema,
      {{Value("a"), Value(int64_t{1})},
       {Value("a"), Value(int64_t{2})},
       {Value("b"), Value(int64_t{10})},
       {Value("b"), Value(int64_t{20})},
       {Value("b"), Value(int64_t{30})},
       {Value("c"), Value(int64_t{5})}})));
  QueryEngine engine(&catalog);
  auto result = engine.Execute(QueryRequest::GroupBy(
      "T", "g",
      {AggregateSpec::Sum("m"), AggregateSpec::Count(), AggregateSpec::Min("m"),
       AggregateSpec::Max("m"), AggregateSpec::Avg("m")}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->groups.size(), 3u);
  EXPECT_EQ(result->groups[0],
            (GroupRow{Value("a"),
                      {Value(3.0), Value(int64_t{2}), Value(int64_t{1}),
                       Value(int64_t{2}), Value(1.5)}}));
  EXPECT_EQ(result->groups[1],
            (GroupRow{Value("b"),
                      {Value(60.0), Value(int64_t{3}), Value(int64_t{10}),
                       Value(int64_t{30}), Value(20.0)}}));
  EXPECT_EQ(result->groups[2],
            (GroupRow{Value("c"),
                      {Value(5.0), Value(int64_t{1}), Value(int64_t{5}),
                       Value(int64_t{5}), Value(5.0)}}));
  // MIN/MAX run on strings too (total Value order); SUM on a string is
  // still a type error; COUNT(col) equals COUNT(*) (no NULLs).
  auto strings = engine.Execute(QueryRequest::GroupBy(
      "T", "m", {AggregateSpec::Min("g"), AggregateSpec::Count("g")},
      Expr::Compare("m", CompareOp::kLe, Value(int64_t{2}))));
  ASSERT_TRUE(strings.ok()) << strings.status().ToString();
  ASSERT_EQ(strings->groups.size(), 2u);
  EXPECT_EQ(strings->groups[0],
            (GroupRow{Value(int64_t{1}), {Value("a"), Value(int64_t{1})}}));
  EXPECT_TRUE(engine
                  .Execute(QueryRequest::GroupBy("T", "m",
                                                 {AggregateSpec::Avg("g")}))
                  .status()
                  .IsTypeError());
  // An aggregate-free request is rejected.
  EXPECT_FALSE(engine.Execute(QueryRequest::GroupBy("T", "g", {})).ok());
}

TEST(QueryEngine, GroupByDictionaryCompleteGroupsAggregateToNull) {
  // Without a WHERE, output is dictionary-complete: a value with no
  // rows (PARTITION TABLE keeps the parent's full dictionary) keeps
  // SUM=0 / COUNT=0 — and MIN/MAX/AVG are NULL, not a fabricated value.
  Schema schema({{"g", DataType::kString},
                 {"m", DataType::kInt64}},
                {});
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "T", schema,
      {{Value("a"), Value(int64_t{4})}, {Value("b"), Value(int64_t{7})}})));
  EvolutionEngine evolution(&catalog, nullptr);
  ASSERT_TRUE(evolution
                  .Apply(Smo::PartitionTable("T", "T2", "T3", "g",
                                             CompareOp::kNe, Value("b")))
                  .ok());
  auto filtered = catalog.GetTable("T2");
  ASSERT_TRUE(filtered.ok());
  ASSERT_EQ((*filtered)->column(0)->distinct_count(), 2u);
  auto groups = QueryEngine::GroupByRows(
      **filtered, "g",
      {AggregateSpec::Sum("m"), AggregateSpec::Count(), AggregateSpec::Min("m"),
       AggregateSpec::Avg("m")},
      nullptr);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups->size(), 2u);
  EXPECT_EQ((*groups)[0],
            (GroupRow{Value("a"),
                      {Value(4.0), Value(int64_t{1}), Value(int64_t{4}),
                       Value(4.0)}}));
  EXPECT_EQ((*groups)[1],
            (GroupRow{Value("b"),
                      {Value(0.0), Value(int64_t{0}), Value::Null(),
                       Value::Null()}}));
}

// T(K, V, P): 3000 rows, K with 500 values (array containers), V with
// 7 and P with 4 (dense), in seeded random order.
std::shared_ptr<const Table> CompactionTable() {
  Rng rng(7);
  Schema schema({{"K", DataType::kInt64},
                 {"V", DataType::kInt64},
                 {"P", DataType::kString}},
                {});
  std::vector<Row> rows;
  for (int64_t r = 0; r < 3000; ++r) {
    int64_t k = r < 500 ? r : rng.Uniform(0, 499);
    rows.push_back({Value(k), Value(rng.Uniform(0, 6)),
                    Value(std::string(1, static_cast<char>('w' + k % 4)))});
  }
  return MakeTable("T", schema, rows);
}

// SELECT `columns` FROM table WHERE `where` must return exactly the
// row-store oracle's rows (filtered by `pred`, projected, in order), and
// each result column's dictionary must hold exactly the values present
// in its rows, in source-vid order.
void ExpectCompactSelect(const Table& table,
                         const std::vector<std::string>& columns,
                         const ExprPtr& where,
                         const std::function<bool(const Row&)>& pred) {
  const std::string label = where->ToString();
  auto result = QueryEngine::SelectRows(table, columns, where, "out");
  ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
  const Table& out = **result;
  EXPECT_TRUE(out.ValidateInvariants().ok()) << label;

  auto store = MaterializeToRowStore(table).ValueOrDie();
  auto filtered = FilterRows(*store, pred, "f").ValueOrDie();
  auto projected = ProjectRows(*filtered, columns, {}, "p").ValueOrDie();
  std::vector<Row> oracle;
  projected->Scan([&](RowId, const Row& row) { oracle.push_back(row); });
  const std::vector<Row> got = out.Materialize();
  EXPECT_EQ(got, oracle) << label;

  for (size_t c = 0; c < out.num_columns(); ++c) {
    const Column& col = *out.column(c);
    const Column& src = *table.ColumnByRef(columns[c]).ValueOrDie();
    std::set<Value> present;
    for (const Row& row : got) present.insert(row[c]);
    ASSERT_EQ(col.distinct_count(), present.size()) << label << " " << c;
    Vid prev_src = 0;
    for (Vid v = 0; v < col.distinct_count(); ++v) {
      EXPECT_GT(col.ValueCount(v), 0u) << label << " " << c;
      EXPECT_EQ(present.count(col.dict().value(v)), 1u) << label << " " << c;
      Vid src_vid = src.dict().Lookup(col.dict().value(v)).value();
      if (v > 0) EXPECT_LT(prev_src, src_vid) << label << " " << c;
      prev_src = src_vid;
    }
  }
}

TEST(QueryEngine, SelectResultDictionaryHoldsExactlyPresentValues) {
  auto t = CompactionTable();
  auto k_of = [](const Row& row) { return row[0].int64(); };
  // The constrained column of an IN (its candidates are the IN's vids)
  // next to an unconstrained one.
  ExpectCompactSelect(
      *t, {"K", "V"},
      Expr::In("K", {Value(int64_t{17}), Value(int64_t{3}),
                     Value(int64_t{400}), Value(3.0)}),
      [&](const Row& row) {
        return k_of(row) == 17 || k_of(row) == 3 || k_of(row) == 400;
      });
  ExpectCompactSelect(
      *t, {"V", "P", "K"},
      Expr::Compare("K", CompareOp::kEq, Value(int64_t{250})),
      [&](const Row& row) { return k_of(row) == 250; });
  // Conjunction of a range leaf and a BETWEEN: both constrain.
  ExpectCompactSelect(
      *t, {"K", "V", "P"},
      Expr::And({Expr::Compare("K", CompareOp::kLt, Value(int64_t{40})),
                 Expr::Between("V", Value(int64_t{2}), Value(int64_t{3}))}),
      [&](const Row& row) {
        return k_of(row) < 40 && row[1].int64() >= 2 && row[1].int64() <= 3;
      });
  // OR and NOT IN constrain nothing directly: every value is hit-tested.
  ExpectCompactSelect(
      *t, {"K", "P"},
      Expr::Or({Expr::Compare("K", CompareOp::kGt, Value(int64_t{480})),
                Expr::Compare("P", CompareOp::kEq, Value("x"))}),
      [&](const Row& row) { return k_of(row) > 480 || row[2].str() == "x"; });
  ExpectCompactSelect(
      *t, {"P", "K"},
      Expr::Not(Expr::In("P", {Value("w"), Value("x"), Value("y")})),
      [&](const Row& row) { return row[2].str() == "z"; });
  // Dense selection: most values of every column are present.
  ExpectCompactSelect(
      *t, {"V", "K"}, Expr::Compare("V", CompareOp::kNe, Value(int64_t{0})),
      [&](const Row& row) { return row[1].int64() != 0; });
}

TEST(QueryEngine, EmptySelectionYieldsZeroRowTableWithSchema) {
  auto t = CompactionTable();
  auto empty = QueryEngine::SelectRows(
      *t, {"P", "K"}, Expr::In("K", {Value(int64_t{-1}), Value(9000.0)}),
      "none");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  const Table& out = **empty;
  EXPECT_EQ(out.rows(), 0u);
  ASSERT_EQ(out.num_columns(), 2u);
  EXPECT_EQ(out.schema().column(0).name, "P");
  EXPECT_EQ(out.schema().column(1).name, "K");
  EXPECT_EQ(out.column(0)->distinct_count(), 0u);
  EXPECT_EQ(out.column(1)->distinct_count(), 0u);
  EXPECT_TRUE(out.ValidateInvariants().ok());
  EXPECT_TRUE(out.Materialize().empty());
}

TEST(QueryEngine, DuplicateProjectionColumnsAreAnErrorWithPositions) {
  // Defined behavior: a column named twice in the projection — under
  // any pair of references resolving to the same column — errors with
  // both positions, instead of surfacing a schema-construction failure.
  Catalog catalog = MakeCatalogWithR();
  QueryEngine engine(&catalog);
  auto dup = engine.Execute(
      QueryRequest::Select("R", {"Skill", "Employee", "Skill"}, nullptr, "d"));
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("duplicate column 'Skill'"),
            std::string::npos)
      << dup.status().ToString();
  EXPECT_NE(dup.status().message().find("positions 1 and 3"),
            std::string::npos)
      << dup.status().ToString();
  // A qualified and a plain reference to the same column also collide.
  auto mixed = engine.Execute(
      QueryRequest::Select("R", {"R.Skill", "Skill"}, nullptr, "d2"));
  ASSERT_FALSE(mixed.ok());
  EXPECT_NE(mixed.status().message().find("duplicate column 'Skill'"),
            std::string::npos);
}

TEST(QueryEngine, ExplicitlyListedKeyIsProjectedExactlyOnce) {
  Schema schema({{"k", DataType::kInt64},
                 {"v", DataType::kInt64}},
                {"k"});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 6; ++i) rows.push_back({Value(i), Value(i % 2)});
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(MakeTable("T", schema, rows)));
  QueryEngine engine(&catalog);
  // Naming the key explicitly (even via a qualified reference) yields
  // exactly one key column and keeps the key declaration.
  auto keyed = engine.Execute(
      QueryRequest::Select("T", {"T.k", "v"}, nullptr, "p"));
  ASSERT_TRUE(keyed.ok()) << keyed.status().ToString();
  ASSERT_EQ(keyed->table->num_columns(), 2u);
  EXPECT_EQ(keyed->table->schema().column(0).name, "k");
  EXPECT_EQ(keyed->table->schema().key(), std::vector<std::string>{"k"});
}

TEST(QueryEngine, EmptySelectResultIsARealTableWithSchema) {
  // A filtered-to-empty SELECT returns a real 0-row table whose
  // rendering includes the schema header — distinguishable from a
  // failed query (which returns a Status, never a table).
  Catalog catalog = MakeCatalogWithR();
  QueryEngine engine(&catalog);
  auto empty = engine.Execute(QueryRequest::Select(
      "R", {"Employee"},
      Expr::Compare("Employee", CompareOp::kEq, Value("Nobody")), "none"));
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  ASSERT_NE(empty->table, nullptr);
  EXPECT_EQ(empty->table->rows(), 0u);
  EXPECT_EQ(empty->table->num_columns(), 1u);
  std::string rendered = empty->ToString();
  EXPECT_NE(rendered.find("none"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("Employee"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("0 rows"), std::string::npos) << rendered;
}

TEST(QueryEngine, ErrorsNameTheMissingPiece) {
  Catalog catalog = MakeCatalogWithR();
  QueryEngine engine(&catalog);
  auto no_table = engine.Execute(QueryRequest::Count("Nope"));
  ASSERT_FALSE(no_table.ok());
  EXPECT_NE(no_table.status().message().find("Nope"), std::string::npos);
  // Unknown column binds (and fails) at execution time.
  auto no_column = engine.Execute(QueryRequest::Count(
      "R", Expr::Compare("Ghost", CompareOp::kEq, Value("x"))));
  ASSERT_FALSE(no_column.ok());
  EXPECT_NE(no_column.status().message().find("Ghost"), std::string::npos);
}

TEST(QueryEngine, RunsAgainstStagedCatalogView) {
  // The acceptance shape: the same request answers differently through
  // a StagedCatalog::View that has staged (uncommitted) evolution.
  Catalog catalog = MakeCatalogWithR();
  StagedCatalog staged(&catalog);
  std::vector<CatalogEffect> log;
  StagedCatalog::View view = staged.MakeView(&log);

  // Stage an overlay change: drop R, publish a filtered replacement.
  QueryEngine base_engine(&catalog);
  auto jones = QueryEngine::SelectRows(
      *catalog.GetTable("R").ValueOrDie(), {}, JonesExpr(), "R");
  ASSERT_TRUE(jones.ok());
  view.PutTable(jones.ValueOrDie());

  QueryRequest count_all = QueryRequest::Count("R");
  QueryEngine staged_engine(&view);
  EXPECT_EQ(staged_engine.Execute(count_all).ValueOrDie().count, 3u);
  // The base catalog is untouched until the effects replay.
  EXPECT_EQ(base_engine.Execute(count_all).ValueOrDie().count, 7u);
  ASSERT_EQ(log.size(), 1u);

  // A nested expression executes identically through the view.
  QueryRequest nested = QueryRequest::Count(
      "R", Expr::And({Expr::Compare("Address", CompareOp::kEq,
                                    Value("425 Grant Ave")),
                      Expr::Not(Expr::In("Skill", {Value("Typing")}))}));
  EXPECT_EQ(staged_engine.Execute(nested).ValueOrDie().count, 2u);
}

TEST(QueryEngine, QueryAfterEvolutionSeesNewSchema) {
  // Queries interleave with SMOs against the same catalog: evolve, then
  // query the produced tables through the same store interface.
  Catalog catalog = MakeCatalogWithR();
  EvolutionEngine engine(&catalog, nullptr);
  Status st = engine.ApplyAll({Smo::DecomposeTable(
      "R", "S", {"Employee", "Skill"}, {}, "T", {"Employee", "Address"},
      {"Employee"})});
  ASSERT_TRUE(st.ok()) << st.ToString();
  QueryEngine queries(&catalog);
  auto addresses = queries.Execute(QueryRequest::Select(
      "T", {"Address"},
      Expr::Compare("Employee", CompareOp::kEq, Value("Jones")), "addr"));
  ASSERT_TRUE(addresses.ok()) << addresses.status().ToString();
  EXPECT_EQ(addresses->table->rows(), 1u);
  EXPECT_EQ(addresses->table->GetValue(0, 0), Value("425 Grant Ave"));
}

Catalog MakeJoinCatalog() {
  Catalog catalog;
  Schema emp({{"Employee", DataType::kString},
              {"Skill", DataType::kString}},
             {});
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "S", emp,
      {{Value("Jones"), Value("Typing")},
       {Value("Jones"), Value("Shorthand")},
       {Value("Ellis"), Value("Alchemy")},
       {Value("Nobody"), Value("Idling")}})));
  Schema addr({{"Employee", DataType::kString},
               {"Address", DataType::kString}},
              {"Employee"});
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "T", addr,
      {{Value("Jones"), Value("425 Grant Ave")},
       {Value("Ellis"), Value("747 Industrial Way")},
       {Value("Harrison"), Value("425 Grant Ave")}})));
  return catalog;
}

TEST(QueryEngine, JoinSelectQualifiesColumnsAndDropsUnmatchedRows) {
  Catalog catalog = MakeJoinCatalog();
  QueryEngine engine(&catalog);
  QueryRequest req = QueryRequest::Select("S", {}, nullptr, "joined");
  req.JoinOn("T", "S.Employee", "T.Employee");
  auto result = engine.Execute(req);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Table& j = *result->table;
  // S's 'Nobody' has no address: inner-join semantics drop the row
  // (MERGE TABLES would raise a foreign-key violation instead).
  EXPECT_EQ(j.rows(), 3u);
  ASSERT_EQ(j.num_columns(), 3u);
  EXPECT_EQ(j.schema().column(0).name, "S.Employee");
  EXPECT_EQ(j.schema().column(1).name, "S.Skill");
  EXPECT_EQ(j.schema().column(2).name, "T.Address");
  EXPECT_TRUE(j.ValidateInvariants().ok());
  EXPECT_EQ(j.GetValue(0, 0), Value("Jones"));
  EXPECT_EQ(j.GetValue(0, 2), Value("425 Grant Ave"));
  EXPECT_EQ(j.GetValue(2, 0), Value("Ellis"));
  EXPECT_EQ(j.GetValue(2, 2), Value("747 Industrial Way"));
}

TEST(QueryEngine, JoinWhereMixesBothSidesAndAliasesTheJoinColumn) {
  Catalog catalog = MakeJoinCatalog();
  QueryEngine engine(&catalog);
  // WHERE references columns of both sides; projection references the
  // ELIDED right join column (T.Employee), which aliases onto
  // S.Employee.
  QueryRequest req = QueryRequest::Select(
      "S", {"T.Employee", "Skill"},
      Expr::And({Expr::Compare("T.Address", CompareOp::kEq,
                               Value("425 Grant Ave")),
                 Expr::Compare("S.Skill", CompareOp::kNe, Value("Typing"))}),
      "mixed");
  req.JoinOn("T", "Employee", "Employee");
  auto result = engine.Execute(req);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table->rows(), 1u);
  EXPECT_EQ(result->table->GetValue(0, 0), Value("Jones"));
  EXPECT_EQ(result->table->GetValue(0, 1), Value("Shorthand"));
  // COUNT and GROUP BY run over the join too.
  QueryRequest count = QueryRequest::Count(
      "S", Expr::Compare("T.Address", CompareOp::kEq,
                         Value("425 Grant Ave")));
  count.JoinOn("T", "Employee", "Employee");
  EXPECT_EQ(engine.Execute(count).ValueOrDie().count, 2u);
  QueryRequest grouped = QueryRequest::GroupBy(
      "S", "T.Address", {AggregateSpec::Count()});
  grouped.JoinOn("T", "Employee", "Employee");
  auto groups = engine.Execute(grouped);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups->groups.size(), 2u);
  EXPECT_EQ(groups->groups[0],
            (GroupRow{Value("425 Grant Ave"), {Value(int64_t{2})}}));
  EXPECT_EQ(groups->groups[1],
            (GroupRow{Value("747 Industrial Way"), {Value(int64_t{1})}}));
}

TEST(QueryEngine, JoinRejectsAmbiguityAndSelfJoin) {
  Catalog catalog = MakeJoinCatalog();
  QueryEngine engine(&catalog);
  // Plain 'Employee' is ambiguous across the two sides of the join
  // result — the elided right column aliases, but a plain reference to
  // a column BOTH sides kept must error.
  Schema extra({{"Employee", DataType::kString},
                {"Skill", DataType::kString}},
               {});
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "U", extra, {{Value("Jones"), Value("Typing")}})));
  QueryRequest req = QueryRequest::Select("S", {"Skill"}, nullptr, "x");
  req.JoinOn("U", "S.Employee", "U.Employee");
  auto ambiguous = engine.Execute(req);
  ASSERT_FALSE(ambiguous.ok());
  EXPECT_NE(ambiguous.status().message().find("ambiguous column 'Skill'"),
            std::string::npos)
      << ambiguous.status().ToString();
  QueryRequest self = QueryRequest::Count("S");
  self.JoinOn("S", "Employee", "Employee");
  EXPECT_FALSE(engine.Execute(self).ok());
}

TEST(QueryEngine, BareReferenceToElidedJoinColumnIsAmbiguousWhenShadowed) {
  // O(id, customer_id) JOIN C(id, city) ON O.customer_id = C.id: C.id
  // is elided from the join result, so a bare 'id' would silently
  // suffix-bind to O.id — a DIFFERENT column. SQL semantics: error as
  // ambiguous; qualified references stay exact.
  Schema orders({{"id", DataType::kInt64},
                 {"customer_id", DataType::kInt64}},
                {"id"});
  Schema customers({{"id", DataType::kInt64},
                    {"city", DataType::kString}},
                   {"id"});
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "O", orders,
      {{Value(int64_t{100}), Value(int64_t{10})},
       {Value(int64_t{101}), Value(int64_t{20})},
       {Value(int64_t{102}), Value(int64_t{10})}})));
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "C", customers,
      {{Value(int64_t{10}), Value("NY")}, {Value(int64_t{20}), Value("SF")}})));
  QueryEngine engine(&catalog);
  QueryRequest bare = QueryRequest::Count(
      "O", Expr::Compare("id", CompareOp::kEq, Value(int64_t{10})));
  bare.JoinOn("C", "O.customer_id", "C.id");
  auto ambiguous = engine.Execute(bare);
  ASSERT_FALSE(ambiguous.ok());
  EXPECT_NE(ambiguous.status().message().find("ambiguous column 'id'"),
            std::string::npos)
      << ambiguous.status().ToString();
  // Qualified: C.id aliases onto the kept join column (= customer_id).
  QueryRequest qualified = QueryRequest::Count(
      "C", Expr::Compare("C.id", CompareOp::kEq, Value(int64_t{10})));
  qualified.JoinOn("O", "C.id", "O.customer_id");
  EXPECT_EQ(engine.Execute(qualified).ValueOrDie().count, 2u);
  // COUNT(*) with no WHERE takes the count-only path: no columns are
  // built, and the answer matches the materializing plan.
  QueryRequest count_all = QueryRequest::Count("O");
  count_all.JoinOn("C", "O.customer_id", "C.id");
  EXPECT_EQ(engine.Execute(count_all).ValueOrDie().count, 3u);
  JoinStats stats;
  EXPECT_EQ(CompressedEquiJoinCount(*catalog.GetTable("O").ValueOrDie(),
                                    *catalog.GetTable("C").ValueOrDie(), 1, 0,
                                    &stats)
                .ValueOrDie(),
            3u);
  EXPECT_EQ(stats.path, "count-only");
}

TEST(QueryEngine, OrderByAndLimit) {
  Schema schema({{"k", DataType::kInt64},
                 {"v", DataType::kInt64}},
                {});
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "T", schema,
      {{Value(int64_t{0}), Value(int64_t{3})},
       {Value(int64_t{1}), Value(int64_t{1})},
       {Value(int64_t{2}), Value(int64_t{3})},
       {Value(int64_t{3}), Value(int64_t{2})},
       {Value(int64_t{4}), Value(int64_t{1})}})));
  QueryEngine engine(&catalog);
  // Ascending, stable on row position within equal keys.
  QueryRequest asc = QueryRequest::Select("T");
  asc.OrderBy("v");
  auto up = engine.Execute(asc);
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  std::vector<int64_t> ks;
  for (const Row& row : up->table->Materialize()) {
    ks.push_back(row[0].int64());
  }
  EXPECT_EQ(ks, (std::vector<int64_t>{1, 4, 3, 0, 2}));
  // Descending reverses value buckets, not the tiebreak inside them.
  QueryRequest desc = QueryRequest::Select("T");
  desc.OrderBy("v", /*desc=*/true);
  auto down = engine.Execute(desc);
  ASSERT_TRUE(down.ok());
  ks.clear();
  for (const Row& row : down->table->Materialize()) {
    ks.push_back(row[0].int64());
  }
  EXPECT_EQ(ks, (std::vector<int64_t>{0, 2, 3, 1, 4}));
  // LIMIT truncates after the sort; a sort column outside the
  // projection orders the rows but is not part of the result.
  QueryRequest top = QueryRequest::Select("T", {"k"});
  top.OrderBy("v", true).Limit(2);
  auto limited = engine.Execute(top);
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  ASSERT_EQ(limited->table->num_columns(), 1u);
  ASSERT_EQ(limited->table->rows(), 2u);
  EXPECT_EQ(limited->table->GetValue(0, 0), Value(int64_t{0}));
  EXPECT_EQ(limited->table->GetValue(1, 0), Value(int64_t{2}));
  // Pure LIMIT keeps input order; LIMIT past the row count is benign;
  // ORDER BY on a count is rejected.
  QueryRequest head = QueryRequest::Select("T");
  head.Limit(3);
  EXPECT_EQ(engine.Execute(head).ValueOrDie().table->rows(), 3u);
  QueryRequest all = QueryRequest::Select("T");
  all.Limit(99);
  EXPECT_EQ(engine.Execute(all).ValueOrDie().table->rows(), 5u);
  QueryRequest bad = QueryRequest::Count("T");
  bad.OrderBy("v");
  EXPECT_FALSE(engine.Execute(bad).ok());
  // A QUALIFIED sort reference binds against the queried table, even
  // though the filtered intermediate is renamed to the output name —
  // with the sort column inside and outside the projection.
  QueryRequest qualified = QueryRequest::Select("T", {"k", "v"});
  qualified.OrderBy("T.v", true).Limit(1);
  auto q = engine.Execute(qualified);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->table->GetValue(0, 0), Value(int64_t{0}));
  QueryRequest qualified_out = QueryRequest::Select("T", {"k"});
  qualified_out.OrderBy("T.v", true).Limit(1);
  auto q2 = engine.Execute(qualified_out);
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  ASSERT_EQ(q2->table->num_columns(), 1u);
  EXPECT_EQ(q2->table->GetValue(0, 0), Value(int64_t{0}));
}

TEST(QueryEngine, OrderByNaNSortsLastAndMixedNumericsInterleave) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema schema({{"x", DataType::kDouble},
                 {"tag", DataType::kInt64}},
                {});
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "T", schema,
      {{Value(2.5), Value(int64_t{0})},
       {Value(nan), Value(int64_t{1})},
       {Value(-1.0), Value(int64_t{2})},
       {Value(nan), Value(int64_t{3})},
       {Value(0.5), Value(int64_t{4})}})));
  QueryEngine engine(&catalog);
  QueryRequest asc = QueryRequest::Select("T");
  asc.OrderBy("x");
  auto up = engine.Execute(asc);
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  std::vector<int64_t> tags;
  for (const Row& row : up->table->Materialize()) {
    tags.push_back(row[1].int64());
  }
  // NaNs order after every real number, stable among themselves.
  EXPECT_EQ(tags, (std::vector<int64_t>{2, 4, 0, 1, 3}));
  // DESC: NaNs first (bucket order reversed), tiebreak still by
  // position.
  QueryRequest desc = QueryRequest::Select("T");
  desc.OrderBy("x", true);
  tags.clear();
  for (const Row& row :
       engine.Execute(desc).ValueOrDie().table->Materialize()) {
    tags.push_back(row[1].int64());
  }
  EXPECT_EQ(tags, (std::vector<int64_t>{1, 3, 0, 4, 2}));
}

// ---- Late materialization: seeded sweeps against naive row oracles -------

// Row-level WHERE evaluation over a decoded row (the oracle side).
bool RowMatches(const Expr& e, const Schema& schema, const Row& row) {
  switch (e.kind) {
    case ExprKind::kCompare:
    case ExprKind::kIn:
    case ExprKind::kBetween:
      return e.LeafMatches(
          row[schema.ResolveColumnRef(e.column).ValueOrDie()]);
    case ExprKind::kNot:
      return !RowMatches(*e.children[0], schema, row);
    case ExprKind::kAnd:
      for (const ExprPtr& c : e.children) {
        if (!RowMatches(*c, schema, row)) return false;
      }
      return true;
    case ExprKind::kOr:
      for (const ExprPtr& c : e.children) {
        if (RowMatches(*c, schema, row)) return true;
      }
      return false;
  }
  return false;
}

// SELECT cols FROM t WHERE w ORDER BY c [DESC] LIMIT n, naively:
// decode, filter (OracleFilter), stable-sort on the total Value order
// (OracleSort), cut and project (OracleCut). Rows render as strings so
// NaNs compare equal.
std::vector<Row> OracleFilter(const Table& t, const std::vector<Row>& decoded,
                              const ExprPtr& where) {
  std::vector<Row> rows;
  for (const Row& row : decoded) {
    if (where == nullptr || RowMatches(*where, t.schema(), row)) {
      rows.push_back(row);
    }
  }
  return rows;
}

// The oracle's ORDER BY: a stable sort on the total Value order.
std::vector<Row> OracleSort(const Table& t, std::vector<Row> rows,
                            const std::string& order_by, bool desc) {
  if (!order_by.empty()) {
    const size_t k = t.schema().ResolveColumnRef(order_by).ValueOrDie();
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const Row& a, const Row& b) {
                       return desc ? b[k] < a[k] : a[k] < b[k];
                     });
  }
  return rows;
}

// The oracle's LIMIT + projection over sorted rows.
std::vector<std::string> OracleCut(const Table& t, const std::vector<Row>& rows,
                                   const std::vector<std::string>& cols,
                                   int64_t limit) {
  size_t n = rows.size();
  if (limit >= 0 && n > static_cast<size_t>(limit)) {
    n = static_cast<size_t>(limit);
  }
  std::vector<size_t> idx;
  for (const std::string& c : cols) {
    idx.push_back(t.schema().ResolveColumnRef(c).ValueOrDie());
  }
  if (cols.empty()) {
    for (size_t i = 0; i < t.num_columns(); ++i) idx.push_back(i);
  }
  std::vector<std::string> out;
  for (size_t r = 0; r < n; ++r) {
    Row projected;
    for (size_t i : idx) projected.push_back(rows[r][i]);
    out.push_back(testing::RowToString(projected));
  }
  return out;
}

std::vector<std::string> RenderRows(const Table& t) {
  std::vector<std::string> out;
  for (const Row& row : t.Materialize()) {
    out.push_back(testing::RowToString(row));
  }
  return out;
}

// x: doubles with NaN ties (each NaN its own dictionary entry, in the
// reverse of row order, so tie order cannot come from dictionary
// order); y: a skewed int64 column spanning bitset, WAH and array
// containers; s: 20 strings.
std::shared_ptr<const Table> SortSweepTable(uint64_t rows, uint64_t seed) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double xs[] = {-2.5, -1.0, 0.0, 0.5, 1.0, 2.0, 7.25};
  Rng rng(seed);
  std::vector<Row> data;
  for (uint64_t r = 0; r < rows; ++r) {
    const double u = rng.NextDouble();
    const int64_t y = u < 0.4    ? 0
                      : u < 0.55 ? rng.Uniform(1, 3)
                                 : rng.Uniform(4, 200);
    data.push_back({Value(rng.NextBool(0.1) ? nan : xs[rng.Uniform(0, 6)]),
                    Value(y),
                    Value("s" + std::to_string(rng.Uniform(0, 19)))});
  }
  Schema schema({{"x", DataType::kDouble},
                 {"y", DataType::kInt64},
                 {"s", DataType::kString}},
                {});
  auto built = MakeTable("T", schema, data);
  const Column& x = *built->column(0);
  const Vid last = static_cast<Vid>(x.distinct_count() - 1);
  Dictionary reversed;
  for (Vid v = 0; v <= last; ++v) {
    reversed.GetOrInsert(x.dict().value(last - v));
  }
  std::vector<Vid> vids = x.DecodeVids();
  for (Vid& v : vids) v = last - v;
  std::vector<std::shared_ptr<const Column>> cols = {
      Column::FromVids(DataType::kDouble, std::move(reversed), vids),
      built->column(1), built->column(2)};
  return Table::Make("T", schema, std::move(cols), rows).ValueOrDie();
}

TEST(QueryEngine, OrderByLimitMatchesRowOracleSweep) {
  auto table = SortSweepTable(2'000, 1313);
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(table));
  QueryEngine engine(&catalog);
  const std::vector<Row> decoded = table->Materialize();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto i64 = [](int64_t v) { return Value(v); };
  const std::vector<ExprPtr> wheres = {
      nullptr,
      Expr::Between("x", Value(-1.0), Value(1.0)),
      Expr::In("x", {Value(0.5), Value(2.0), Value(nan)}),
      Expr::Not(Expr::In("x", {Value(0.5), Value(2.0)})),
      Expr::Compare("x", CompareOp::kGe, Value(1.0)),
      Expr::Compare("y", CompareOp::kLt, i64(3)),
      Expr::Compare("y", CompareOp::kGe, i64(150)),
      Expr::Not(Expr::Between("y", i64(1), i64(190))),
      Expr::And({Expr::Between("y", i64(1), i64(100)),
                 Expr::In("s", {Value("s1"), Value("s3"), Value("s5")})}),
      Expr::Or({Expr::Compare("x", CompareOp::kGt, Value(1.0)),
                Expr::Compare("s", CompareOp::kEq, Value("s7"))}),
      Expr::And({Expr::Not(Expr::Between("x", Value(0.0), Value(1.0))),
                 Expr::Compare("y", CompareOp::kNe, i64(0))}),
      Expr::Compare("y", CompareOp::kEq, i64(999)),  // empty selection
  };
  const std::vector<std::string> orders = {"x", "y", "s", ""};
  // 2000 rows: up to 31 picked rows project through the sparse path.
  const std::vector<int64_t> limits = {-1, 0, 1, 7, 31, 100, 1'999, 5'000};
  const std::vector<std::vector<std::string>> projections = {
      {}, {"s"}, {"y", "x"}};
  int checked = 0;
  for (const ExprPtr& where : wheres) {
    const std::vector<Row> filtered = OracleFilter(*table, decoded, where);
    for (const std::string& order : orders) {
      for (bool desc : {false, true}) {
        if (order.empty() && desc) continue;
        const std::vector<Row> sorted =
            OracleSort(*table, filtered, order, desc);
        for (int64_t limit : limits) {
          for (const auto& cols : projections) {
            QueryRequest req = QueryRequest::Select("T", cols, where);
            if (!order.empty()) req.OrderBy(order, desc);
            req.Limit(limit);
            const std::string label = req.ToString();
            auto got = engine.Execute(req);
            ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
            const Table& out = *got->table;
            ASSERT_TRUE(out.ValidateInvariants().ok()) << label;
            EXPECT_EQ(RenderRows(out), OracleCut(*table, sorted, cols, limit))
                << label;
            // Result dictionaries hold exactly the values present.
            for (size_t c = 0; c < out.num_columns(); ++c) {
              for (Vid v = 0; v < out.column(c)->distinct_count(); ++v) {
                EXPECT_FALSE(out.column(c)->bitmap(v).IsAllZeros())
                    << label << " column " << c << " vid " << v;
              }
            }
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 1'000);
  // The public SortRows is the whole-table, all-columns case.
  for (bool desc : {false, true}) {
    auto sorted = QueryEngine::SortRows(*table, "x", desc, -1, "sorted");
    ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
    EXPECT_EQ((*sorted)->schema().ToString(), table->schema().ToString());
    EXPECT_EQ(RenderRows(**sorted),
              OracleCut(*table, OracleSort(*table, decoded, "x", desc), {},
                        -1));
  }
}

// Everything a result shows: join plan, count, group rows, and a SELECT
// table's schema and rows in order.
std::string RenderResult(const QueryResult& result) {
  std::string out = result.join_path + " | count " +
                    std::to_string(result.count) + "\n";
  for (const GroupRow& group : result.groups) {
    out += group.group.ToString();
    for (const Value& v : group.aggregates) out += ", " + v.ToString();
    out += "\n";
  }
  if (result.table != nullptr) {
    out += result.table->schema().ToString() + "\n";
    for (const std::string& row : RenderRows(*result.table)) {
      out += row + "\n";
    }
  }
  return out;
}

TEST(QueryEngine, SortedDeclaredTablesAnswerLikePlainOnes) {
  // T(K, V, X, S) clustered by K and D(K, G) KEY(K), once stored plainly
  // and once with K (and T's S) declared SORTED, i.e. loaded from the
  // run-length image older builds wrote. Every statement shape reads
  // value bitmaps of a SORTED-declared column — WHERE, projection,
  // GROUP BY and aggregates, ORDER BY with and without LIMIT, JOIN — and
  // must answer exactly as on the plain tables.
  Rng rng(808);
  std::vector<Row> t_rows;
  for (int64_t r = 0; r < 600; ++r) {
    t_rows.push_back({Value(r / 20), Value(rng.Uniform(0, 4)),
                      Value(static_cast<double>(rng.Uniform(0, 99)) / 10),
                      Value("s" + std::to_string(r % 3))});
  }
  std::vector<Row> d_rows;
  for (int64_t k = 0; k < 40; ++k) {
    d_rows.push_back({Value(k), Value("g" + std::to_string(k % 4))});
  }
  auto t = MakeTable("T",
                     Schema({{"K", DataType::kInt64},
                             {"V", DataType::kInt64},
                             {"X", DataType::kDouble},
                             {"S", DataType::kString}}),
                     t_rows);
  auto d = MakeTable(
      "D", Schema({{"K", DataType::kInt64}, {"G", DataType::kString}}, {"K"}),
      d_rows);
  Catalog plain;
  CODS_CHECK_OK(plain.AddTable(t));
  CODS_CHECK_OK(plain.AddTable(d));
  Catalog sorted;
  CODS_CHECK_OK(
      sorted.AddTable(testing::LoadAsSortedDeclared(*t, {"K", "S"})));
  CODS_CHECK_OK(sorted.AddTable(testing::LoadAsSortedDeclared(*d, {"K"})));

  int checked = 0;
  for (const char* text : {
           "SELECT COUNT(*) FROM T WHERE K = 3",
           "SELECT COUNT(*) FROM T WHERE K BETWEEN 4 AND 11 AND "
           "NOT V IN (1, 2)",
           "SELECT K, V, X FROM T WHERE K = 7 OR (S = 's1' AND K > 25)",
           "SELECT * FROM T WHERE K IN (0, 13, 29)",
           "SELECT K, COUNT(*), SUM(V), MIN(X), MAX(X) FROM T GROUP BY K",
           "SELECT V, SUM(K), MIN(K), MAX(K) FROM T WHERE K < 20 GROUP BY V",
           "SELECT S, MIN(K), MAX(K), AVG(X) FROM T WHERE X > 5 GROUP BY S",
           "SELECT K, X FROM T ORDER BY K DESC LIMIT 5",
           "SELECT * FROM T ORDER BY K DESC",
           "SELECT K, V FROM T WHERE V = 1 ORDER BY X LIMIT 7",
           "SELECT COUNT(*) FROM T JOIN D ON T.K = D.K WHERE D.G = 'g1'",
           "SELECT T.K, D.G, T.V FROM T JOIN D ON T.K = D.K WHERE T.V = 0",
           "SELECT D.G, SUM(T.X), MAX(T.K) FROM T JOIN D ON T.K = D.K "
           "GROUP BY D.G",
       }) {
    SCOPED_TRACE(text);
    auto stmt = ParseStatement(text);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto want = QueryEngine(&plain).Execute(stmt->query);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto got = QueryEngine(&sorted).Execute(stmt->query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(RenderResult(*got), RenderResult(*want));
    ++checked;
  }
  EXPECT_EQ(checked, 13);
  EXPECT_EQ(QueryEngine(&sorted)
                .Execute(QueryRequest::Count(
                    "T", Expr::Compare("K", CompareOp::kEq, Value(int64_t{3}))))
                .ValueOrDie()
                .count,
            20u);
}

// F(K, V, P) JOIN D(K, G, V, H) ON F.K = D.K: key–FK shape, some fact
// keys unmatched; D2(K, W) duplicates its keys for the general shape.
Catalog MakeJoinCountCatalog() {
  Rng rng(4242);
  std::vector<Row> fact;
  for (int r = 0; r < 3'000; ++r) {
    const int64_t k =
        rng.NextBool(0.5) ? rng.Uniform(0, 9) : rng.Uniform(0, 119);
    fact.push_back({Value(k), Value(rng.Uniform(0, 9)),
                    Value("p" + std::to_string(k % 7))});
  }
  std::vector<Row> dim, dim2;
  for (int64_t k = 0; k < 100; ++k) {
    dim.push_back({Value(k), Value(k * 7 % 10), Value(k % 3),
                   Value("h" + std::to_string(k % 4))});
  }
  for (int64_t k = 0; k < 60; ++k) {
    dim2.push_back({Value(k), Value(k % 5)});
    dim2.push_back({Value(k), Value(k % 5 + 10)});
  }
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "F",
      Schema({{"K", DataType::kInt64},
              {"V", DataType::kInt64},
              {"P", DataType::kString}},
             {}),
      fact)));
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "D",
      Schema({{"K", DataType::kInt64},
              {"G", DataType::kInt64},
              {"V", DataType::kInt64},
              {"H", DataType::kString}},
             {"K"}),
      dim)));
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "D2",
      Schema({{"K", DataType::kInt64}, {"W", DataType::kInt64}},
             {}),
      dim2)));
  return catalog;
}

TEST(QueryEngine, JoinCountWithWhereStaysCountOnly) {
  Catalog catalog = MakeJoinCountCatalog();
  QueryEngine engine(&catalog);
  auto i64 = [](int64_t v) { return Value(v); };
  struct Case {
    std::string dim;
    ExprPtr where;
    bool pushed;  // every root conjunct touches one side
  };
  const std::vector<Case> cases = {
      // Left only.
      {"D", Expr::Compare("F.V", CompareOp::kEq, i64(2)), true},
      {"D",
       Expr::And({Expr::Compare("F.V", CompareOp::kLt, i64(5)),
                  Expr::In("P", {Value("p1"), Value("p3")})}),
       true},
      {"D", Expr::Not(Expr::Between("F.K", i64(10), i64(30))), true},
      // The elided right join column aliases onto the kept left one.
      {"D", Expr::Compare("D.K", CompareOp::kLt, i64(20)), true},
      // Right only.
      {"D", Expr::Compare("D.G", CompareOp::kLt, i64(4)), true},
      {"D",
       Expr::And({Expr::Compare("G", CompareOp::kEq, i64(3)),
                  Expr::Compare("H", CompareOp::kEq, Value("h1"))}),
       true},
      // Both sides, each conjunct one-sided.
      {"D",
       Expr::And({Expr::Compare("D.G", CompareOp::kLt, i64(4)),
                  Expr::Compare("F.V", CompareOp::kEq, i64(2))}),
       true},
      {"D",
       Expr::And({Expr::Compare("K", CompareOp::kLt, i64(50)),
                  Expr::Not(Expr::In("D.V", {i64(1)})),
                  Expr::Compare("G", CompareOp::kGe, i64(2))}),
       true},
      {"D", Expr::Compare("D.G", CompareOp::kEq, i64(99)), true},  // empty
      // Mixed residuals fall back to the materializing plan.
      {"D",
       Expr::Or({Expr::Compare("F.V", CompareOp::kEq, i64(2)),
                 Expr::Compare("D.G", CompareOp::kLt, i64(4))}),
       false},
      {"D",
       Expr::And({Expr::Or({Expr::Compare("F.V", CompareOp::kEq, i64(1)),
                            Expr::Compare("D.G", CompareOp::kEq, i64(3))}),
                  Expr::Compare("P", CompareOp::kEq, Value("p2"))}),
       false},
      // General shape (both sides duplicated).
      {"D2", Expr::Compare("W", CompareOp::kGe, i64(10)), true},
      {"D2",
       Expr::And({Expr::Compare("W", CompareOp::kLt, i64(3)),
                  Expr::Compare("F.V", CompareOp::kNe, i64(0))}),
       true},
      {"D2",
       Expr::Or({Expr::Compare("W", CompareOp::kLt, i64(3)),
                 Expr::Compare("F.V", CompareOp::kNe, i64(0))}),
       false},
  };
  for (const Case& c : cases) {
    QueryRequest count = QueryRequest::Count("F", c.where);
    count.JoinOn(c.dim, "F.K", c.dim + ".K");
    QueryRequest select = QueryRequest::Select("F", {}, c.where);
    select.JoinOn(c.dim, "F.K", c.dim + ".K");
    const std::string label = count.ToString();
    auto counted = engine.Execute(count);
    ASSERT_TRUE(counted.ok()) << label << ": " << counted.status().ToString();
    auto materialized = engine.Execute(select);
    ASSERT_TRUE(materialized.ok()) << label;
    EXPECT_EQ(counted->count, materialized->table->rows()) << label;
    if (c.pushed) {
      EXPECT_EQ(counted->join_path, "count-only") << label;
    } else {
      EXPECT_NE(counted->join_path, "count-only") << label;
      EXPECT_FALSE(counted->join_path.empty()) << label;
    }
  }
  // An ambiguous bare reference (F.V and D.V) errors exactly as the
  // materializing plan does.
  QueryRequest ambiguous =
      QueryRequest::Count("F", Expr::Compare("V", CompareOp::kEq, i64(2)));
  ambiguous.JoinOn("D", "F.K", "D.K");
  QueryRequest ambiguous_select =
      QueryRequest::Select("F", {}, Expr::Compare("V", CompareOp::kEq, i64(2)));
  ambiguous_select.JoinOn("D", "F.K", "D.K");
  auto a = engine.Execute(ambiguous);
  auto b = engine.Execute(ambiguous_select);
  ASSERT_FALSE(a.ok());
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(a.status().ToString(), b.status().ToString());
  EXPECT_NE(a.status().message().find("ambiguous column 'V'"),
            std::string::npos)
      << a.status().ToString();
  // Unknown columns, too.
  QueryRequest unknown =
      QueryRequest::Count("F", Expr::Compare("D.Q", CompareOp::kEq, i64(2)));
  unknown.JoinOn("D", "F.K", "D.K");
  auto u = engine.Execute(unknown);
  ASSERT_FALSE(u.ok());
  EXPECT_TRUE(u.status().IsKeyError()) << u.status().ToString();
  // The count-only entry point takes the side selections directly.
  auto f = catalog.GetTable("F").ValueOrDie();
  auto d = catalog.GetTable("D").ValueOrDie();
  ValueBitmap v2 =
      EvalExpr(*f, Expr::Compare("V", CompareOp::kEq, i64(2))).ValueOrDie();
  ValueBitmap g4 =
      EvalExpr(*d, Expr::Compare("G", CompareOp::kLt, i64(4))).ValueOrDie();
  JoinStats stats;
  auto direct = CompressedEquiJoinCount(*f, *d, 0, 0, &stats, &v2, &g4);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(stats.path, "count-only");
  QueryRequest same = QueryRequest::Count(
      "F", Expr::And({Expr::Compare("F.V", CompareOp::kEq, i64(2)),
                      Expr::Compare("D.G", CompareOp::kLt, i64(4))}));
  same.JoinOn("D", "F.K", "D.K");
  EXPECT_EQ(*direct, engine.Execute(same).ValueOrDie().count);
}

TEST(QueryEngine, RequestToStringRoundTripsShape) {
  QueryRequest select = QueryRequest::Select(
      "R", {"a", "b"},
      Expr::And({Expr::Compare("a", CompareOp::kEq, Value("x")),
                 Expr::Or({Expr::Compare("b", CompareOp::kGt,
                                         Value(int64_t{3})),
                           Expr::Not(Expr::In("c", {Value(int64_t{1}),
                                                    Value(int64_t{2})}))})}));
  EXPECT_EQ(select.ToString(),
            "SELECT a, b FROM R WHERE a = 'x' AND (b > 3 OR NOT c IN (1, 2))");
  EXPECT_EQ(QueryRequest::Count("R").ToString(), "SELECT COUNT(*) FROM R");
  EXPECT_EQ(QueryRequest::GroupBySum("T", "g", "m").ToString(),
            "SELECT g, SUM(m) FROM T GROUP BY g");
}

// ---- snapshot pinning (src/concurrency/) ----------------------------------
//
// The QueryEngine runs against the TableStore interface, so a pinned
// CatalogRoot is just another store: these cases prove a reader's view
// is the root it pinned, not the root the writer is publishing.

TEST(QueryEngine, PinnedSnapshotKeepsPreEvolutionSchema) {
  SnapshotCatalog serving;
  serving.Reset(MakeCatalogWithR());
  Snapshot pinned = serving.GetSnapshot();

  EvolutionEngine evolution(&serving);
  ASSERT_TRUE(evolution.Apply(Smo::DropColumn("R", "Address")).ok());

  // Through the pin: the old schema, Address included.
  auto old_r = QueryEngine(pinned.store())
                   .Execute(QueryRequest::Select("R"))
                   .ValueOrDie();
  EXPECT_TRUE(old_r.table->schema().HasColumn("Address"));
  // A fresh pin sees the committed evolution.
  Snapshot fresh = serving.GetSnapshot();
  auto new_r = QueryEngine(fresh.store())
                   .Execute(QueryRequest::Select("R"))
                   .ValueOrDie();
  EXPECT_FALSE(new_r.table->schema().HasColumn("Address"));
  EXPECT_EQ(old_r.table->rows(), new_r.table->rows());
}

TEST(QueryEngine, PinnedSnapshotAnswersAfterTableDrop) {
  SnapshotCatalog serving;
  serving.Reset(MakeCatalogWithR());
  Snapshot pinned = serving.GetSnapshot();

  EvolutionEngine evolution(&serving);
  ASSERT_TRUE(evolution.Apply(Smo::DropTable("R")).ok());

  // The dropped table is gone from new pins but fully queryable — data
  // and all — through the old one.
  Snapshot fresh = serving.GetSnapshot();
  EXPECT_TRUE(QueryEngine(fresh.store())
                  .Execute(QueryRequest::Count("R"))
                  .status()
                  .IsKeyError());
  EXPECT_EQ(QueryEngine(pinned.store())
                .Execute(QueryRequest::Count("R", JonesExpr()))
                .ValueOrDie()
                .count,
            3u);
}

TEST(QueryEngine, SnapshotQueriesMatchQuiescedCatalog) {
  // The bit-identical contract: a request through a pinned root equals
  // the same request through a mutable Catalog rebuilt from that root.
  SnapshotCatalog serving;
  serving.Reset(MakeCatalogWithR());
  Snapshot snap = serving.GetSnapshot();
  Catalog quiesced = MaterializeCatalog(snap.root());

  QueryRequest select = QueryRequest::Select("R", {"Skill", "Employee"},
                                             JonesExpr(), "out");
  select.OrderBy("Skill");
  auto live = QueryEngine(snap.store()).Execute(select).ValueOrDie();
  auto still = QueryEngine(&quiesced).Execute(select).ValueOrDie();
  ASSERT_NE(live.table, nullptr);
  ASSERT_NE(still.table, nullptr);
  EXPECT_EQ(live.table->Materialize(), still.table->Materialize());
  EXPECT_EQ(live.ToString(), still.ToString());
}

// ---- Projection: gather vs filter vs a decode-and-project oracle ----------

// T(d, s, k) over 6400 rows (rows/64 = 100):
//   d  double: 10% NaN (one dictionary entry per NaN row), -0.0 and 0.0
//      (one entry, whichever comes first) and three other reals;
//   s  string: 31 values, the empty string among them;
//   k  int64: 900 dictionary values, the last 5 without rows.
std::shared_ptr<const Table> ProjectionTable() {
  constexpr uint64_t kRows = 6400;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double xs[] = {-0.0, 0.0, 1.5, -3.25, 7.0};
  Rng rng(4242);
  std::vector<Row> data;
  for (uint64_t r = 0; r < kRows; ++r) {
    const int64_t s = rng.Uniform(0, 30);
    data.push_back({Value(rng.NextBool(0.1) ? nan : xs[rng.Uniform(0, 4)]),
                    Value(s == 30 ? std::string() : "s" + std::to_string(s)),
                    Value(int64_t{0})});
  }
  Schema schema({{"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"k", DataType::kInt64}},
                {});
  auto built = MakeTable("T", schema, data);
  Dictionary keys;
  for (int64_t v = 0; v < 900; ++v) keys.GetOrInsert(Value(v * 7));
  std::vector<Vid> vids(kRows);
  for (uint64_t r = 0; r < kRows; ++r) {
    vids[r] = static_cast<Vid>(r < 895 ? r : rng.Uniform(0, 894));
  }
  std::vector<std::shared_ptr<const Column>> cols = {
      built->column(0), built->column(1),
      Column::FromVids(DataType::kInt64, std::move(keys), vids)};
  return Table::Make("T", schema, std::move(cols), kRows).ValueOrDie();
}

// The oracle: decode the whole column, take the rows at `positions` (in
// that order), and rebuild with a dictionary of the present values in
// source-vid order.
std::shared_ptr<const Column> DecodeProjectOracle(
    const Column& src, const std::vector<uint64_t>& positions) {
  const std::vector<Vid> all = src.DecodeVids();
  std::vector<Vid> vids;
  for (uint64_t p : positions) vids.push_back(all[p]);
  std::set<Vid> present(vids.begin(), vids.end());
  std::vector<Vid> remap(src.distinct_count(), kNoVid);
  Dictionary dict;
  for (Vid v : present) {
    remap[v] = static_cast<Vid>(dict.size());
    dict.GetOrInsert(src.dict().value(v));
  }
  for (Vid& v : vids) v = remap[v];
  return Column::FromVids(src.type(), std::move(dict), vids);
}

// Code-word equality, with dictionary values compared by rendering so
// NaN entries match and -0.0 differs from 0.0.
void ExpectColumnsIdentical(const Column& got, const Column& want,
                            const std::string& label) {
  ASSERT_EQ(got.rows(), want.rows()) << label;
  ASSERT_EQ(got.distinct_count(), want.distinct_count()) << label;
  for (Vid v = 0; v < want.distinct_count(); ++v) {
    EXPECT_EQ(got.dict().value(v).ToString(), want.dict().value(v).ToString())
        << label << " vid " << v;
    EXPECT_TRUE(got.bitmap(v) == want.bitmap(v)) << label << " vid " << v;
  }
}

TEST(QueryEngine, ProjectionGatherAndFilterMatchDecodeOracle) {
  auto t = ProjectionTable();
  const uint64_t rows = t->rows();
  Rng rng(77);
  const std::vector<uint64_t> order = rng.Permutation(rows);
  for (uint64_t n : {uint64_t{0}, uint64_t{1}, rows / 64, rows / 64 + 1,
                     uint64_t{3000}}) {
    std::vector<uint64_t> positions(order.begin(),
                                    order.begin() + static_cast<long>(n));
    std::sort(positions.begin(), positions.end());
    const ValueBitmap selection =
        ValueBitmap::FromWah(WahBitmap::FromPositions(positions, rows));
    const WahPositionFilter filter(positions, rows);
    for (int threads : {1, 4}) {
      ExecContext ctx(threads);
      for (size_t c = 0; c < t->num_columns(); ++c) {
        const Column& src = *t->column(c);
        const std::string label = t->schema().column(c).name + " over " +
                                  std::to_string(n) + " rows @" +
                                  std::to_string(threads);
        auto want = DecodeProjectOracle(src, positions);
        auto gathered =
            ProjectPresentValues(ctx, src, selection, nullptr, nullptr);
        auto filtered =
            ProjectPresentValues(ctx, src, selection, &filter, nullptr);
        ASSERT_TRUE(gathered.ok() && filtered.ok()) << label;
        ExpectColumnsIdentical(**gathered, *want, "gather " + label);
        ExpectColumnsIdentical(**filtered, *want, "filter " + label);
      }
      // The engine picks gather up to rows/64 selected rows, the filter
      // above; either way the result equals the oracle.
      auto out = QueryEngine::ProjectSelection(*t, {"k", "d", "s"}, selection,
                                               nullptr, "out", &ctx);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      for (size_t c = 0; c < 3; ++c) {
        ExpectColumnsIdentical(
            *(*out)->column(c),
            *DecodeProjectOracle(*t->column((c + 2) % 3), positions),
            "engine column " + std::to_string(c) + " over " +
                std::to_string(n));
      }
    }
  }
}

TEST(QueryEngine, ProjectionUnderInConstrainedCandidates) {
  // K IN (...) bounds the filter's candidates to the IN's values; the
  // gather ignores them. Few values stay under rows/64 (gather in the
  // engine), many go over it (filter); absent and rowless values ride
  // along in the IN list.
  auto t = ProjectionTable();
  const Column& k = *t->column(2);
  const std::vector<Vid> all = k.DecodeVids();
  for (int64_t count : {3, 40, 400}) {
    std::vector<Value> in_list = {Value(int64_t{-1}), Value(int64_t{899 * 7})};
    for (int64_t i = 0; i < count; ++i) in_list.push_back(Value(i * 14));
    ExprPtr in = Expr::In("k", in_list);
    const std::vector<Vid> candidates = MatchingVids(k, *in);
    std::vector<uint64_t> positions;
    for (uint64_t r = 0; r < all.size(); ++r) {
      if (std::binary_search(candidates.begin(), candidates.end(), all[r])) {
        positions.push_back(r);
      }
    }
    const ValueBitmap selection = ValueBitmap::FromWah(
        WahBitmap::FromPositions(positions, t->rows()));
    const WahPositionFilter filter(positions, t->rows());
    ExecContext ctx(2);
    const std::string label = "IN of " + std::to_string(count);
    auto want = DecodeProjectOracle(k, positions);
    auto gathered = ProjectPresentValues(ctx, k, selection, nullptr, nullptr);
    auto filtered =
        ProjectPresentValues(ctx, k, selection, &filter, &candidates);
    ASSERT_TRUE(gathered.ok() && filtered.ok()) << label;
    ExpectColumnsIdentical(**gathered, *want, "gather " + label);
    ExpectColumnsIdentical(**filtered, *want, "filter " + label);
    auto out = QueryEngine::SelectRows(
        *t, {"s", "k"},
        Expr::And({in, Expr::Compare("s", CompareOp::kNe, Value("s3"))}),
        "out", &ctx);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    std::vector<uint64_t> kept;
    const Column& s = *t->column(1);
    const std::vector<Vid> svids = s.DecodeVids();
    for (uint64_t r : positions) {
      if (!(s.dict().value(svids[r]) == Value("s3"))) kept.push_back(r);
    }
    ExpectColumnsIdentical(*(*out)->column(0), *DecodeProjectOracle(s, kept),
                           "engine s " + label);
    ExpectColumnsIdentical(*(*out)->column(1), *DecodeProjectOracle(k, kept),
                           "engine k " + label);
  }
}

TEST(QueryEngine, OrderByLimitGathersOracleColumnsWithTies) {
  // ORDER BY ... LIMIT gathers every column from the picked rows in
  // output order: d ties on its shared ±0 entry and across NaN entries,
  // s ties within each string. Each result column must equal the
  // oracle's rebuild over the oracle's picked rows, code word for code
  // word.
  auto t = ProjectionTable();
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(t));
  QueryEngine engine(&catalog);
  const std::vector<Row> decoded = t->Materialize();
  struct Case {
    std::string order;
    bool desc;
    int64_t limit;
    ExprPtr where;
  };
  const std::vector<Case> cases = {
      {"d", false, 50, nullptr},
      {"d", true, 700, nullptr},
      {"s", true, 101, Expr::Compare("k", CompareOp::kLt, Value(int64_t{70}))},
      {"s", false, 7, Expr::In("s", {Value(""), Value("s4")})},
      {"k", true, 1, Expr::Compare("d", CompareOp::kEq, Value(0.0))},
      {"d", false, -1, Expr::Between("k", Value(int64_t{0}),
                                     Value(int64_t{700}))},
  };
  for (const Case& c : cases) {
    const size_t key = t->schema().ResolveColumnRef(c.order).ValueOrDie();
    std::vector<uint64_t> picked;
    for (uint64_t r = 0; r < decoded.size(); ++r) {
      if (c.where == nullptr || RowMatches(*c.where, t->schema(), decoded[r])) {
        picked.push_back(r);
      }
    }
    std::stable_sort(picked.begin(), picked.end(), [&](uint64_t a, uint64_t b) {
      return c.desc ? decoded[b][key] < decoded[a][key]
                    : decoded[a][key] < decoded[b][key];
    });
    if (c.limit >= 0 && picked.size() > static_cast<size_t>(c.limit)) {
      picked.resize(static_cast<size_t>(c.limit));
    }
    QueryRequest req = QueryRequest::Select("T", {"k", "d", "s"}, c.where,
                                            "top");
    req.OrderBy(c.order, c.desc).Limit(c.limit);
    for (int threads : {1, 4}) {
      ExecContext ctx(threads);
      auto out = engine.Execute(req, &ctx);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      const std::string label = req.ToString() + " @" + std::to_string(threads);
      ASSERT_EQ(out->table->rows(), picked.size()) << label;
      for (size_t col = 0; col < 3; ++col) {
        ExpectColumnsIdentical(
            *out->table->column(col),
            *DecodeProjectOracle(*t->column((col + 2) % 3), picked),
            label + " column " + std::to_string(col));
      }
    }
  }
}

// ---- GROUP BY contingency pass: seeded sweep against a row oracle ---------

// Builds a dictionary column from per-row vids over `values` (values
// without rows stay in the dictionary: empty dictionary values).
std::shared_ptr<const Column> ColumnOf(DataType type,
                                       const std::vector<Value>& values,
                                       std::vector<Vid> vids) {
  Dictionary dict;
  for (const Value& v : values) dict.GetOrInsert(v);
  return Column::FromVids(type, std::move(dict), vids);
}

// Per-row vids where vid i covers exactly counts[i] rows, scattered by a
// seeded permutation, except vid `clustered` whose rows are one
// contiguous block starting at `block_start` (one-fill WAH runs).
std::vector<Vid> VidsWithCounts(const std::vector<uint64_t>& counts,
                                uint64_t rows, Rng* rng, Vid clustered,
                                uint64_t block_start) {
  std::vector<Vid> vids(rows, 0);
  std::vector<bool> taken(rows, false);
  for (uint64_t r = 0; r < counts[clustered]; ++r) {
    vids[block_start + r] = clustered;
    taken[block_start + r] = true;
  }
  std::vector<uint64_t> free_rows;
  for (uint64_t r : rng->Permutation(rows)) {
    if (!taken[r]) free_rows.push_back(r);
  }
  size_t next = 0;
  for (Vid v = 0; v < counts.size(); ++v) {
    if (v == clustered) continue;
    for (uint64_t i = 0; i < counts[v]; ++i) vids[free_rows[next++]] = v;
  }
  EXPECT_EQ(next, free_rows.size());
  return vids;
}

// T(g, m, k, s, x) over 6400 rows (size/64 = 100, (size+3)/4 = 1600):
//   g  int64,  counts 100 | 101 | 1599 | 1600 | 1000 clustered | 2000 |
//              0 — array, WAH, WAH, bitset, one-fill WAH, bitset, empty;
//   m  double, the same counts over fractional values (summation order
//              shows in the low bits), clustered elsewhere;
//   k  int64,  1000 values, every one an array (some empty);
//   s  string, 20 values;
//   x  double, 7 values including NaN.
std::shared_ptr<const Table> ContingencyTable() {
  constexpr uint64_t kRows = 6400;
  const std::vector<uint64_t> counts = {100, 101, 1599, 1600, 1000, 2000, 0};
  Rng rng(2024);
  std::vector<Value> g_values, m_values, k_values, s_values;
  const double ms[] = {0.1, -1.25, 3.3, 2.5e6, 0.7, 11.0, 42.0};
  for (int64_t i = 0; i < 7; ++i) {
    g_values.emplace_back(i * 10);
    m_values.emplace_back(ms[i]);
  }
  for (int64_t i = 0; i < 1000; ++i) k_values.emplace_back(i);
  for (int i = 0; i < 20; ++i) s_values.emplace_back("s" + std::to_string(i));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> x_values = {Value(-2.5), Value(0.0), Value(nan),
                                       Value(1.5),  Value(9.0), Value(-0.5),
                                       Value(4.0)};
  std::vector<Vid> k_vids(kRows), s_vids(kRows), x_vids(kRows);
  for (uint64_t r = 0; r < kRows; ++r) {
    k_vids[r] = static_cast<Vid>(rng.Uniform(0, 999));
    s_vids[r] = static_cast<Vid>(rng.Uniform(0, 19));
    x_vids[r] = static_cast<Vid>(rng.Uniform(0, 6));
  }
  Schema schema({{"g", DataType::kInt64},
                 {"m", DataType::kDouble},
                 {"k", DataType::kInt64},
                 {"s", DataType::kString},
                 {"x", DataType::kDouble}},
                {});
  std::vector<std::shared_ptr<const Column>> cols = {
      ColumnOf(DataType::kInt64, g_values,
               VidsWithCounts(counts, kRows, &rng, 4, 2000)),
      ColumnOf(DataType::kDouble, m_values,
               VidsWithCounts(counts, kRows, &rng, 4, 5000)),
      ColumnOf(DataType::kInt64, k_values, k_vids),
      ColumnOf(DataType::kString, s_values, s_vids),
      ColumnOf(DataType::kDouble, x_values, x_vids)};
  return Table::Make("T", schema, std::move(cols), kRows).ValueOrDie();
}

// Exact Value equality, with NaN equal to NaN.
bool SameValue(const Value& a, const Value& b) {
  if (a.is_double() && b.is_double() && std::isnan(a.dbl()) &&
      std::isnan(b.dbl())) {
    return true;
  }
  return a == b;
}

// The naive GROUP BY: decode every row, filter, bucket by group vid.
// SUM adds value × count over the measure's dictionary in vid order,
// skipping values without rows — the engine's documented summation
// order, so doubles must match to the bit.
// `decoded` and `vids` are t's rows and per-column vids, decoded once.
std::vector<GroupRow> OracleGroupBy(const Table& t,
                                    const std::vector<Row>& decoded,
                                    const std::vector<std::vector<Vid>>& vids,
                                    const std::string& group,
                                    const std::vector<AggregateSpec>& aggs,
                                    const ExprPtr& where) {
  const size_t gi = t.schema().ResolveColumnRef(group).ValueOrDie();
  const Column& gcol = *t.column(gi);
  std::vector<std::vector<uint64_t>> members(gcol.distinct_count());
  for (uint64_t r = 0; r < decoded.size(); ++r) {
    if (where == nullptr || RowMatches(*where, t.schema(), decoded[r])) {
      members[vids[gi][r]].push_back(r);
    }
  }
  std::vector<GroupRow> out;
  for (Vid g = 0; g < gcol.distinct_count(); ++g) {
    if (where != nullptr && members[g].empty()) continue;
    GroupRow row{gcol.dict().value(g), {}};
    for (const AggregateSpec& agg : aggs) {
      if (agg.kind == AggregateSpec::Kind::kCount) {
        row.aggregates.emplace_back(
            static_cast<int64_t>(members[g].size()));
        continue;
      }
      const size_t mi = t.schema().ResolveColumnRef(agg.column).ValueOrDie();
      const Column& mcol = *t.column(mi);
      std::vector<uint64_t> per_value(mcol.distinct_count(), 0);
      for (uint64_t r : members[g]) ++per_value[vids[mi][r]];
      double sum = 0;
      const Value* min = nullptr;
      const Value* max = nullptr;
      for (Vid v = 0; v < mcol.distinct_count(); ++v) {
        if (per_value[v] == 0) continue;
        const Value& value = mcol.dict().value(v);
        const double numeric = value.is_int64()
                                   ? static_cast<double>(value.int64())
                                   : value.is_double() ? value.dbl() : 0.0;
        sum += numeric * static_cast<double>(per_value[v]);
        if (min == nullptr || value < *min) min = &value;
        if (max == nullptr || *max < value) max = &value;
      }
      switch (agg.kind) {
        case AggregateSpec::Kind::kSum:
          row.aggregates.emplace_back(sum);
          break;
        case AggregateSpec::Kind::kAvg:
          row.aggregates.push_back(
              members[g].empty()
                  ? Value::Null()
                  : Value(sum / static_cast<double>(members[g].size())));
          break;
        case AggregateSpec::Kind::kMin:
          row.aggregates.push_back(min == nullptr ? Value::Null() : *min);
          break;
        case AggregateSpec::Kind::kMax:
          row.aggregates.push_back(max == nullptr ? Value::Null() : *max);
          break;
        case AggregateSpec::Kind::kCount:
          break;
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

TEST(QueryEngine, GroupByContingencyMatchesRowOracleSweep) {
  auto table = ContingencyTable();
  // The containers sit exactly where the sweep means them to.
  const Column& g = *table->column(0);
  const BitmapRep want[] = {BitmapRep::kArray, BitmapRep::kWah,
                            BitmapRep::kWah,   BitmapRep::kBitset,
                            BitmapRep::kWah,   BitmapRep::kBitset,
                            BitmapRep::kWah};
  for (Vid v = 0; v < g.distinct_count(); ++v) {
    EXPECT_EQ(g.bitmap(v).rep(), want[v]) << "g vid " << v;
    EXPECT_EQ(table->column(1)->bitmap(v).rep(), want[v]) << "m vid " << v;
  }
  EXPECT_TRUE(g.bitmap(6).IsAllZeros());
  EXPECT_LT(g.bitmap(4).wah().NumWords(), 100u);  // one-fill clustered
  for (Vid v = 0; v < table->column(2)->distinct_count(); ++v) {
    const ValueBitmap& vb = table->column(2)->bitmap(v);
    EXPECT_TRUE(vb.rep() == BitmapRep::kArray || vb.IsAllZeros()) << v;
  }

  auto i64 = [](int64_t v) { return Value(v); };
  const std::vector<std::pair<std::string, ExprPtr>> wheres = {
      {"none", nullptr},
      {"0%", Expr::Compare("m", CompareOp::kEq, Value(999.0))},
      {"sparse", Expr::Compare("k", CompareOp::kLt, i64(10))},
      {"wah", Expr::Compare("g", CompareOp::kEq, i64(10))},
      {"dense", Expr::Compare("m", CompareOp::kNe, Value(0.1))},
      {"100%", Expr::Compare("k", CompareOp::kGe, i64(0))},
      {"mixed", Expr::Or({Expr::In("g", {i64(20), i64(40)}),
                          Expr::Compare("s", CompareOp::kEq, Value("s3"))})},
  };
  // The WHERE selections cover every container. GROUP BY borrows a
  // bitset selection's words in place, so the "dense" and "mixed" cases
  // read freed memory (under ASan) unless the selection outlives the
  // pass.
  const BitmapRep where_reps[] = {BitmapRep::kWah,    BitmapRep::kWah,
                                  BitmapRep::kArray,  BitmapRep::kWah,
                                  BitmapRep::kBitset, BitmapRep::kWah,
                                  BitmapRep::kBitset};
  for (size_t w = 1; w < wheres.size(); ++w) {
    EXPECT_EQ(EvalExpr(*table, wheres[w].second).ValueOrDie().rep(),
              where_reps[w])
        << wheres[w].first;
  }
  const std::vector<AggregateSpec> aggs = {
      AggregateSpec::Count(),     AggregateSpec::Sum("m"),
      AggregateSpec::Avg("m"),    AggregateSpec::Min("m"),
      AggregateSpec::Max("m"),    AggregateSpec::Sum("g"),
      AggregateSpec::Min("s"),    AggregateSpec::Max("s"),
      AggregateSpec::Min("x"),    AggregateSpec::Max("x"),
      AggregateSpec::Avg("k"),    AggregateSpec::Max("k")};
  const std::vector<Row> decoded = table->Materialize();
  std::vector<std::vector<Vid>> vids;
  for (size_t c = 0; c < table->num_columns(); ++c) {
    vids.push_back(table->column(c)->DecodeVids());
  }
  int checked = 0;
  for (const std::string group : {"g", "m", "k", "s", "x"}) {
    for (const auto& [label, where] : wheres) {
      const std::vector<GroupRow> want_rows =
          OracleGroupBy(*table, decoded, vids, group, aggs, where);
      for (int threads : {1, 4}) {
        ExecContext ctx(threads);
        auto got = QueryEngine::GroupByRows(*table, group, aggs, where, &ctx);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got->size(), want_rows.size())
            << "GROUP BY " << group << " WHERE " << label;
        for (size_t i = 0; i < want_rows.size(); ++i) {
          const GroupRow& a = (*got)[i];
          const GroupRow& b = want_rows[i];
          ASSERT_TRUE(SameValue(a.group, b.group)) << group << " " << i;
          ASSERT_EQ(a.aggregates.size(), b.aggregates.size());
          for (size_t j = 0; j < b.aggregates.size(); ++j) {
            EXPECT_TRUE(SameValue(a.aggregates[j], b.aggregates[j]))
                << "GROUP BY " << group << " WHERE " << label << " group "
                << b.group.ToString() << " " << aggs[j].ToString() << ": "
                << a.aggregates[j].ToString() << " vs "
                << b.aggregates[j].ToString();
          }
        }
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 70);
}

}  // namespace
}  // namespace cods
