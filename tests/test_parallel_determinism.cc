// Determinism suite for the parallel execution subsystem: every rewired
// hot path must produce BIT-IDENTICAL output at threads ∈ {1, 2, 8}.
// WahBitmap's canonical form makes this checkable as plain representation
// equality (operator== compares code words), so the comparisons below
// are exact, not just logical.

#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "evolution/decompose.h"
#include "evolution/engine.h"
#include "evolution/merge.h"
#include "evolution/simple_ops.h"
#include "exec/exec.h"
#include "gtest/gtest.h"
#include "query/column_executor.h"
#include "query/join.h"
#include "query/query_engine.h"
#include "storage/catalog.h"
#include "workload/generator.h"

namespace cods {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

std::shared_ptr<const Table> TestTable(uint64_t rows = 30'000,
                                       uint64_t distinct = 500) {
  WorkloadSpec spec;
  spec.num_rows = rows;
  spec.num_distinct = distinct;
  spec.payload_distinct = 100;
  spec.dependent_distinct = 50;
  auto r = GenerateEvolutionTable(spec);
  CODS_CHECK(r.ok()) << r.status().ToString();
  return r.ValueOrDie();
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
          << label << ": column " << i << " vid " << v
          << " bitmaps differ";
    }
  }
}

TEST(ParallelDeterminismTest, Decompose) {
  auto r = TestTable();
  DecomposeOptions serial_opts;
  ExecContext serial(1);
  serial_opts.exec = &serial;
  auto reference =
      CodsDecompose(*r, "S", {kKeyColumn, kPayloadColumn}, {}, "T",
                    {kKeyColumn, kDependentColumn}, {kKeyColumn}, nullptr,
                    serial_opts);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (int threads : kThreadCounts) {
    ExecContext ctx(threads);
    DecomposeOptions opts;
    opts.exec = &ctx;
    auto result =
        CodsDecompose(*r, "S", {kKeyColumn, kPayloadColumn}, {}, "T",
                      {kKeyColumn, kDependentColumn}, {kKeyColumn}, nullptr,
                      opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectTablesIdentical(*reference->s, *result->s,
                          "decompose S @" + std::to_string(threads));
    ExpectTablesIdentical(*reference->t, *result->t,
                          "decompose T @" + std::to_string(threads));
  }
}

TEST(ParallelDeterminismTest, MergeKeyFk) {
  WorkloadSpec spec;
  spec.num_rows = 30'000;
  spec.num_distinct = 500;
  auto pair = GenerateMergePair(spec);
  ASSERT_TRUE(pair.ok());
  ExecContext serial(1);
  auto reference = CodsMergeKeyFk(*pair->s, *pair->t, {kKeyColumn}, {},
                                  "R", nullptr, &serial);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (int threads : kThreadCounts) {
    ExecContext ctx(threads);
    auto result = CodsMergeKeyFk(*pair->s, *pair->t, {kKeyColumn}, {},
                                 "R", nullptr, &ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectTablesIdentical(**reference, **result,
                          "merge key-fk @" + std::to_string(threads));
  }
}

TEST(ParallelDeterminismTest, MergeGeneral) {
  auto pair = GenerateGeneralMergePair(200, 6, 4);
  ASSERT_TRUE(pair.ok());
  ExecContext serial(1);
  auto reference = CodsMergeGeneral(*pair->s, *pair->t, {"J"}, {}, "R",
                                    nullptr, &serial);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (int threads : kThreadCounts) {
    ExecContext ctx(threads);
    auto result = CodsMergeGeneral(*pair->s, *pair->t, {"J"}, {}, "R",
                                   nullptr, &ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectTablesIdentical(**reference, **result,
                          "merge general @" + std::to_string(threads));
  }
}

TEST(ParallelDeterminismTest, UnionAndPartition) {
  auto r = TestTable();
  ExecContext serial(1);
  auto ref_union = UnionTablesOp(*r, *r->WithName("R2"), "U", nullptr,
                                 &serial);
  ASSERT_TRUE(ref_union.ok());
  Value pivot(static_cast<int64_t>(250));
  auto ref_part = PartitionTableOp(*r, "A", "B", kKeyColumn, CompareOp::kLt,
                                   pivot, nullptr, &serial);
  ASSERT_TRUE(ref_part.ok());
  for (int threads : kThreadCounts) {
    ExecContext ctx(threads);
    auto u = UnionTablesOp(*r, *r->WithName("R2"), "U", nullptr, &ctx);
    ASSERT_TRUE(u.ok()) << u.status().ToString();
    ExpectTablesIdentical(**ref_union, **u,
                          "union @" + std::to_string(threads));
    auto p = PartitionTableOp(*r, "A", "B", kKeyColumn, CompareOp::kLt,
                              pivot, nullptr, &ctx);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    ExpectTablesIdentical(*ref_part->matching, *p->matching,
                          "partition matching @" + std::to_string(threads));
    ExpectTablesIdentical(*ref_part->rest, *p->rest,
                          "partition rest @" + std::to_string(threads));
  }
}

TEST(ParallelDeterminismTest, QueryPaths) {
  auto r = TestTable();
  std::vector<ExprPtr> leaves{
      Expr::Compare(kKeyColumn, CompareOp::kLt,
                    Value(static_cast<int64_t>(300))),
      Expr::Compare(kPayloadColumn, CompareOp::kGe,
                    Value(static_cast<int64_t>(20))),
  };
  const ExprPtr conj_expr = Expr::And(leaves);
  const ExprPtr disj_expr = Expr::Or(leaves);
  const std::vector<AggregateSpec> sum = {AggregateSpec::Sum(kPayloadColumn)};
  ExecContext serial(1);
  auto ref_conj = EvalExpr(*r, conj_expr, &serial);
  auto ref_disj = EvalExpr(*r, disj_expr, &serial);
  auto ref_count = QueryEngine::CountRows(*r, conj_expr, &serial);
  auto ref_select =
      QueryEngine::SelectRows(*r, {}, conj_expr, "sel", &serial);
  auto ref_group =
      QueryEngine::GroupByRows(*r, kDependentColumn, sum, nullptr, &serial);
  ASSERT_TRUE(ref_conj.ok() && ref_disj.ok() && ref_count.ok() &&
              ref_select.ok() && ref_group.ok());
  for (int threads : kThreadCounts) {
    ExecContext ctx(threads);
    auto conj = EvalExpr(*r, conj_expr, &ctx);
    ASSERT_TRUE(conj.ok());
    // Representation and payload: the selection's container is a pure
    // function of its content.
    EXPECT_EQ(ref_conj->rep(), conj->rep()) << "conjunction @" << threads;
    EXPECT_TRUE(*ref_conj == *conj) << "conjunction @" << threads;
    auto disj = EvalExpr(*r, disj_expr, &ctx);
    ASSERT_TRUE(disj.ok());
    EXPECT_EQ(ref_disj->rep(), disj->rep()) << "disjunction @" << threads;
    EXPECT_TRUE(*ref_disj == *disj) << "disjunction @" << threads;
    auto count = QueryEngine::CountRows(*r, conj_expr, &ctx);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*ref_count, *count) << "count @" << threads;
    auto sel = QueryEngine::SelectRows(*r, {}, conj_expr, "sel", &ctx);
    ASSERT_TRUE(sel.ok());
    ExpectTablesIdentical(**ref_select, **sel,
                          "select @" + std::to_string(threads));
    auto group =
        QueryEngine::GroupByRows(*r, kDependentColumn, sum, nullptr, &ctx);
    ASSERT_TRUE(group.ok());
    ASSERT_EQ(ref_group->size(), group->size());
    for (size_t i = 0; i < group->size(); ++i) {
      EXPECT_EQ((*ref_group)[i].group, (*group)[i].group);
      // Bit-identical doubles: same AND-count sequence, same summation
      // order per group.
      EXPECT_EQ((*ref_group)[i].aggregates[0].dbl(),
                (*group)[i].aggregates[0].dbl())
          << "group " << i << " @" << threads;
    }
  }
}

TEST(ParallelDeterminismTest, NestedExpressionEvaluation) {
  // The expression AST path: leaves evaluate in parallel (one task per
  // leaf) and combine through the k-way kernels; nested NOT/AND/OR
  // results must be code-word identical at every thread count, for both
  // the materializing and the count-only plans, and through the full
  // QueryEngine request path.
  auto r = TestTable();
  ExprPtr expr = Expr::Or(
      {Expr::And(
           {Expr::Compare(kKeyColumn, CompareOp::kLt,
                          Value(static_cast<int64_t>(300))),
            Expr::Not(Expr::In(kPayloadColumn,
                               {Value(static_cast<int64_t>(1)),
                                Value(static_cast<int64_t>(2)),
                                Value(static_cast<int64_t>(3))}))}),
       Expr::And({Expr::Between(kDependentColumn,
                                Value(static_cast<int64_t>(10)),
                                Value(static_cast<int64_t>(20))),
                  Expr::Not(Expr::And(
                      {Expr::Compare(kKeyColumn, CompareOp::kGe,
                                     Value(static_cast<int64_t>(100))),
                       Expr::Compare(kPayloadColumn, CompareOp::kNe,
                                     Value(static_cast<int64_t>(7)))}))})});
  ExecContext serial(1);
  auto ref_bm = EvalExpr(*r, expr, &serial);
  auto ref_count = EvalExprCount(*r, expr, &serial);
  auto ref_select = QueryEngine::SelectRows(*r, {kKeyColumn, kPayloadColumn},
                                            expr, "sel", &serial);
  const std::vector<AggregateSpec> sum = {AggregateSpec::Sum(kPayloadColumn)};
  auto ref_group =
      QueryEngine::GroupByRows(*r, kDependentColumn, sum, expr, &serial);
  ASSERT_TRUE(ref_bm.ok() && ref_count.ok() && ref_select.ok() &&
              ref_group.ok());
  EXPECT_EQ(*ref_count, ref_bm->CountOnes());
  for (int threads : kThreadCounts) {
    ExecContext ctx(threads);
    auto bm = EvalExpr(*r, expr, &ctx);
    ASSERT_TRUE(bm.ok());
    EXPECT_EQ(ref_bm->rep(), bm->rep()) << "expr bitmap @" << threads;
    EXPECT_TRUE(*ref_bm == *bm) << "expr bitmap @" << threads;
    auto count = EvalExprCount(*r, expr, &ctx);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*ref_count, *count) << "expr count @" << threads;
    auto sel = QueryEngine::SelectRows(*r, {kKeyColumn, kPayloadColumn},
                                       expr, "sel", &ctx);
    ASSERT_TRUE(sel.ok());
    ExpectTablesIdentical(**ref_select, **sel,
                          "expr select @" + std::to_string(threads));
    auto group =
        QueryEngine::GroupByRows(*r, kDependentColumn, sum, expr, &ctx);
    ASSERT_TRUE(group.ok());
    ASSERT_EQ(ref_group->size(), group->size());
    for (size_t i = 0; i < group->size(); ++i) {
      EXPECT_EQ((*ref_group)[i].group, (*group)[i].group);
      // Bit-identical doubles: same AND-count sequence, same summation
      // order per group.
      EXPECT_EQ((*ref_group)[i].aggregates[0].dbl(),
                (*group)[i].aggregates[0].dbl())
          << "expr group " << i << " @" << threads;
    }
  }
}

TEST(ParallelDeterminismTest, InConstrainedProjection) {
  // The predicate column is projected too, so its result column is
  // built from the IN's candidate vids only, the others from hit tests
  // over their whole dictionaries; both keep only the values present.
  // The compact result must be code-word identical at every thread
  // count.
  auto r = TestTable();
  ExprPtr expr = Expr::And(
      {Expr::In(kKeyColumn,
                {Value(static_cast<int64_t>(7)),
                 Value(static_cast<int64_t>(123)), Value(499.0),
                 Value(static_cast<int64_t>(9999))}),
       Expr::Compare(kPayloadColumn, CompareOp::kLt,
                     Value(static_cast<int64_t>(80)))});
  const std::vector<std::string> columns{kKeyColumn, kPayloadColumn,
                                         kDependentColumn};
  ExecContext serial(1);
  auto ref = QueryEngine::SelectRows(*r, columns, expr, "sel", &serial);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  ASSERT_GT((*ref)->rows(), 0u);
  EXPECT_LE((*ref)->column(0)->distinct_count(), 3u);
  for (int threads : kThreadCounts) {
    ExecContext ctx(threads);
    auto sel = QueryEngine::SelectRows(*r, columns, expr, "sel", &ctx);
    ASSERT_TRUE(sel.ok()) << sel.status().ToString();
    ExpectTablesIdentical(**ref, **sel,
                          "in-constrained select @" + std::to_string(threads));
  }
}

TEST(ParallelDeterminismTest, SparseSelectionDrivenProjection) {
  // A selection sparse enough to be an array gathers the selected rows
  // through each column's row → vid map (no position filter); the
  // compact result — and the ORDER BY ... LIMIT gathered the same way
  // from its picked rows — must be code-word identical at every thread
  // count.
  auto r = TestTable();
  ExprPtr sparse = Expr::And(
      {Expr::Between(kKeyColumn, Value(static_cast<int64_t>(40)),
                     Value(static_cast<int64_t>(44))),
       Expr::Compare(kPayloadColumn, CompareOp::kGe,
                     Value(static_cast<int64_t>(30)))});
  ExprPtr dense = Expr::Compare(kPayloadColumn, CompareOp::kLt,
                                Value(static_cast<int64_t>(60)));
  const std::vector<std::string> columns{kDependentColumn, kPayloadColumn,
                                         kKeyColumn};
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(r));
  QueryEngine engine(&catalog);
  auto top = [&](const ExprPtr& where, const std::string& order, bool desc,
                 int64_t limit) {
    QueryRequest req = QueryRequest::Select(r->name(), columns, where, "top");
    req.OrderBy(order, desc).Limit(limit);
    return req;
  };
  const std::vector<QueryRequest> ordered = {
      top(sparse, kPayloadColumn, true, 20),
      top(dense, kKeyColumn, false, 100),
      top(dense, kDependentColumn, true, 400),
      top(nullptr, kPayloadColumn, false, 50)};
  ExecContext serial(1);
  auto ref = QueryEngine::SelectRows(*r, columns, sparse, "sel", &serial);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  ASSERT_GT((*ref)->rows(), 0u);
  ASSERT_LE((*ref)->rows() * 64, r->rows());  // an array selection
  std::vector<std::shared_ptr<const Table>> ref_ordered;
  for (const QueryRequest& req : ordered) {
    auto out = engine.Execute(req, &serial);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ref_ordered.push_back(out->table);
  }
  for (int threads : kThreadCounts) {
    ExecContext ctx(threads);
    auto sel = QueryEngine::SelectRows(*r, columns, sparse, "sel", &ctx);
    ASSERT_TRUE(sel.ok()) << sel.status().ToString();
    ExpectTablesIdentical(**ref, **sel,
                          "sparse select @" + std::to_string(threads));
    for (size_t q = 0; q < ordered.size(); ++q) {
      auto out = engine.Execute(ordered[q], &ctx);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      ExpectTablesIdentical(*ref_ordered[q], *out->table,
                            ordered[q].ToString() + " @" +
                                std::to_string(threads));
    }
  }
}

TEST(ParallelDeterminismTest, RowVidMapFirstUseRace) {
  // Eight threads project the same fresh table at once, so they race
  // to build each column's row → vid map: exactly one build per column
  // may happen, and every result — a sparse gather and a top-k — must
  // be code-word identical to a serial run on an independent copy.
  ExprPtr sparse = Expr::Between(kKeyColumn, Value(static_cast<int64_t>(10)),
                                 Value(static_cast<int64_t>(14)));
  const std::vector<std::string> columns{kDependentColumn, kPayloadColumn,
                                         kKeyColumn};
  ExecContext serial(1);
  auto ref_table = TestTable();
  auto ref = QueryEngine::SelectRows(*ref_table, columns, sparse, "sel",
                                     &serial);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  ASSERT_LE((*ref)->rows() * 64, ref_table->rows());  // an array selection
  auto ref_top = QueryEngine::SortRows(*ref_table, kPayloadColumn, true, 25,
                                       "top", &serial);
  ASSERT_TRUE(ref_top.ok()) << ref_top.status().ToString();

  auto fresh = TestTable();
  const uint64_t built = GlobalCodecStats().row_vid_maps_built.load();
  constexpr int kRacers = 8;
  std::vector<std::shared_ptr<const Table>> sels(kRacers), tops(kRacers);
  std::vector<std::thread> racers;
  for (int i = 0; i < kRacers; ++i) {
    racers.emplace_back([&, i] {
      ExecContext ctx(i % 2 == 0 ? 1 : 2);
      auto sel = QueryEngine::SelectRows(*fresh, columns, sparse, "sel", &ctx);
      auto top = QueryEngine::SortRows(*fresh, kPayloadColumn, true, 25,
                                       "top", &ctx);
      if (sel.ok()) sels[i] = sel.ValueOrDie();
      if (top.ok()) tops[i] = top.ValueOrDie();
    });
  }
  for (std::thread& t : racers) t.join();
  // SELECT maps every column (it projects them all) once; the top-k
  // reuses those maps.
  EXPECT_EQ(GlobalCodecStats().row_vid_maps_built.load() - built,
            fresh->num_columns());
  for (int i = 0; i < kRacers; ++i) {
    ASSERT_NE(sels[i], nullptr) << i;
    ASSERT_NE(tops[i], nullptr) << i;
    ExpectTablesIdentical(**ref, *sels[i], "raced select " + std::to_string(i));
    ExpectTablesIdentical(**ref_top, *tops[i],
                          "raced top-k " + std::to_string(i));
  }
}

TEST(ParallelDeterminismTest, CompressedJoinPaths) {
  // Both join shapes must be code-word identical at every thread
  // count: the key-FK shape (position filters + gathered payload) and
  // the general value-clustered shape.
  WorkloadSpec spec;
  spec.num_rows = 30'000;
  spec.num_distinct = 500;
  auto fk_pair = GenerateMergePair(spec);
  ASSERT_TRUE(fk_pair.ok());
  auto general_pair = GenerateGeneralMergePair(200, 6, 4);
  ASSERT_TRUE(general_pair.ok());
  ExecContext serial(1);
  JoinStats ref_fk_stats, ref_gen_stats;
  auto ref_fk = CompressedEquiJoin(*fk_pair->s, *fk_pair->t, 0, 0, "J",
                                   &serial, &ref_fk_stats);
  auto ref_gen = CompressedEquiJoin(*general_pair->s, *general_pair->t, 0, 0,
                                    "J", &serial, &ref_gen_stats);
  ASSERT_TRUE(ref_fk.ok()) << ref_fk.status().ToString();
  ASSERT_TRUE(ref_gen.ok()) << ref_gen.status().ToString();
  EXPECT_EQ(ref_fk_stats.path, "fk-right");
  EXPECT_EQ(ref_gen_stats.path, "general");
  for (int threads : kThreadCounts) {
    ExecContext ctx(threads);
    JoinStats stats;
    auto fk = CompressedEquiJoin(*fk_pair->s, *fk_pair->t, 0, 0, "J", &ctx,
                                 &stats);
    ASSERT_TRUE(fk.ok()) << fk.status().ToString();
    EXPECT_EQ(stats.path, ref_fk_stats.path) << threads;
    ExpectTablesIdentical(**ref_fk, **fk,
                          "join fk @" + std::to_string(threads));
    auto gen = CompressedEquiJoin(*general_pair->s, *general_pair->t, 0, 0,
                                  "J", &ctx);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    ExpectTablesIdentical(**ref_gen, **gen,
                          "join general @" + std::to_string(threads));
  }
}

TEST(ParallelDeterminismTest, JoinCountWithPushedDownWhere) {
  // COUNT over a join with one-sided WHERE conjuncts runs count-only:
  // per-side selections, densified probes, per-value product slots.
  WorkloadSpec spec;
  spec.num_rows = 30'000;
  spec.num_distinct = 500;
  auto pair = GenerateMergePair(spec);
  ASSERT_TRUE(pair.ok());
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(pair->s));
  CODS_CHECK_OK(catalog.AddTable(pair->t));
  QueryEngine engine(&catalog);
  const std::string s = pair->s->name(), t = pair->t->name();
  const Schema& ts = pair->t->schema();
  const std::string right_payload = t + "." + ts.column(1).name;
  const std::string left_payload = s + "." + pair->s->schema().column(1).name;
  QueryRequest req = QueryRequest::Count(
      s, Expr::And({Expr::Compare(right_payload, CompareOp::kLt,
                                  Value(static_cast<int64_t>(40))),
                    Expr::Compare(left_payload, CompareOp::kGe,
                                  Value(static_cast<int64_t>(10)))}));
  const std::string key = pair->s->schema().column(0).name;
  req.JoinOn(t, s + "." + key, t + "." + ts.column(0).name);
  ExecContext serial(1);
  auto ref = engine.Execute(req, &serial);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(ref->join_path, "count-only");
  QueryRequest select = req;
  select.verb = QueryRequest::Verb::kSelect;
  auto materialized = engine.Execute(select, &serial);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  EXPECT_EQ(ref->count, materialized->table->rows());
  for (int threads : kThreadCounts) {
    ExecContext ctx(threads);
    auto out = engine.Execute(req, &ctx);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->count, ref->count) << "join count @" << threads;
  }
}

TEST(ParallelDeterminismTest, OrderByLimitAndMultiAggregate) {
  auto r = TestTable();
  ExprPtr where = Expr::Compare(kKeyColumn, CompareOp::kLt,
                                Value(static_cast<int64_t>(300)));
  std::vector<AggregateSpec> aggs{
      AggregateSpec::Sum(kPayloadColumn), AggregateSpec::Count(),
      AggregateSpec::Min(kPayloadColumn), AggregateSpec::Max(kPayloadColumn),
      AggregateSpec::Avg(kPayloadColumn)};
  ExecContext serial(1);
  auto ref_sorted = QueryEngine::SortRows(*r, kPayloadColumn, true, 5'000,
                                          "sorted", &serial);
  auto ref_group = QueryEngine::GroupByRows(*r, kDependentColumn, aggs,
                                            where, &serial);
  ASSERT_TRUE(ref_sorted.ok()) << ref_sorted.status().ToString();
  ASSERT_TRUE(ref_group.ok()) << ref_group.status().ToString();
  for (int threads : kThreadCounts) {
    ExecContext ctx(threads);
    auto sorted = QueryEngine::SortRows(*r, kPayloadColumn, true, 5'000,
                                        "sorted", &ctx);
    ASSERT_TRUE(sorted.ok());
    ExpectTablesIdentical(**ref_sorted, **sorted,
                          "order-by @" + std::to_string(threads));
    auto group = QueryEngine::GroupByRows(*r, kDependentColumn, aggs, where,
                                          &ctx);
    ASSERT_TRUE(group.ok());
    ASSERT_EQ(ref_group->size(), group->size());
    for (size_t i = 0; i < group->size(); ++i) {
      // Bit-identical Values: same AND-count sequence, same summation
      // order per group, at every thread count.
      EXPECT_TRUE((*ref_group)[i] == (*group)[i])
          << "multi-agg group " << i << " @" << threads;
    }
  }
}

// The analytic GROUP BY shape: P with 4 skewed values (two bitsets, two
// WAH), V with 16 WAH values of fractional doubles, K with 1000 array
// values; 40 000 rows in seeded random order.
std::shared_ptr<const Table> ContingencyTable() {
  constexpr uint64_t kRows = 40'000;
  Rng rng(77);
  Dictionary p_dict, v_dict, k_dict;
  for (int64_t i = 0; i < 4; ++i) p_dict.GetOrInsert(Value(i));
  for (int i = 0; i < 16; ++i) v_dict.GetOrInsert(Value(0.1 * i + 1e-3));
  for (int64_t i = 0; i < 1000; ++i) k_dict.GetOrInsert(Value(i * 7));
  std::vector<Vid> p(kRows), v(kRows), k(kRows);
  for (uint64_t r = 0; r < kRows; ++r) {
    const double u = rng.NextDouble();
    p[r] = u < 0.4 ? 0 : u < 0.7 ? 1 : u < 0.9 ? 2 : 3;
    v[r] = static_cast<Vid>(rng.Uniform(0, 15));
    k[r] = static_cast<Vid>(rng.Uniform(0, 999));
  }
  Schema schema({{"P", DataType::kInt64},
                 {"V", DataType::kDouble},
                 {"K", DataType::kInt64}},
                {});
  std::vector<std::shared_ptr<const Column>> cols = {
      Column::FromVids(DataType::kInt64, std::move(p_dict), p),
      Column::FromVids(DataType::kDouble, std::move(v_dict), v),
      Column::FromVids(DataType::kInt64, std::move(k_dict), k)};
  return Table::Make("C", schema, std::move(cols), kRows).ValueOrDie();
}

TEST(ParallelDeterminismTest, GroupByContingencyPass) {
  auto c = ContingencyTable();
  ASSERT_EQ(c->column(0)->bitmap(0).rep(), BitmapRep::kBitset);
  ASSERT_EQ(c->column(0)->bitmap(3).rep(), BitmapRep::kWah);
  ASSERT_EQ(c->column(1)->bitmap(0).rep(), BitmapRep::kWah);
  ASSERT_EQ(c->column(2)->bitmap(0).rep(), BitmapRep::kArray);
  auto aggs_over = [](const std::string& m) {
    return std::vector<AggregateSpec>{
        AggregateSpec::Count(), AggregateSpec::Sum(m), AggregateSpec::Min(m),
        AggregateSpec::Max(m), AggregateSpec::Avg(m)};
  };
  const std::vector<ExprPtr> wheres = {
      nullptr, Expr::Compare("K", CompareOp::kLt, Value(int64_t{3500})),
      Expr::In("V", {Value(0.201), Value(1.001)})};
  const std::pair<std::string, std::string> shapes[] = {
      {"P", "V"}, {"V", "P"}, {"K", "V"}, {"P", "K"}};
  ExecContext serial(1);
  for (const auto& [group, measure] : shapes) {
    for (size_t w = 0; w < wheres.size(); ++w) {
      const std::string label = group + " x " + measure + " where#" +
                                std::to_string(w);
      auto ref = QueryEngine::GroupByRows(*c, group, aggs_over(measure),
                                          wheres[w], &serial);
      ASSERT_TRUE(ref.ok()) << label << ": " << ref.status().ToString();
      for (int threads : kThreadCounts) {
        ExecContext ctx(threads);
        auto got = QueryEngine::GroupByRows(*c, group, aggs_over(measure),
                                            wheres[w], &ctx);
        ASSERT_TRUE(got.ok()) << label;
        ASSERT_EQ(ref->size(), got->size()) << label;
        for (size_t i = 0; i < got->size(); ++i) {
          EXPECT_TRUE((*ref)[i] == (*got)[i])
              << label << " group " << i << " @" << threads;
        }
      }
    }
  }
}

TEST(ParallelDeterminismTest, RowsToColumnTableAndValidate) {
  auto r = TestTable();
  std::vector<Row> rows = r->Materialize();
  ExecContext serial(1);
  auto reference = RowsToColumnTable("rebuilt", r->schema(), rows, &serial);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (int threads : kThreadCounts) {
    ExecContext ctx(threads);
    auto result = RowsToColumnTable("rebuilt", r->schema(), rows, &ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectTablesIdentical(**reference, **result,
                          "rows-to-column @" + std::to_string(threads));
    Status st = (*result)->ValidateInvariants(&ctx);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
}

TEST(ParallelDeterminismTest, EngineEndToEndScript) {
  // The full engine pipeline at num_threads = 1 vs 8: DECOMPOSE, then
  // MERGE back, with validation on (exercising parallel
  // ValidateInvariants on every produced table).
  auto run_with = [&](int threads) -> std::shared_ptr<const Table> {
    Catalog catalog;
    CODS_CHECK_OK(catalog.AddTable(TestTable()));
    EngineOptions options;
    options.num_threads = threads;
    options.validate_outputs = true;
    EvolutionEngine engine(&catalog, nullptr, options);
    CODS_CHECK_OK(engine.Apply(Smo::DecomposeTable(
        "R", "S", {kKeyColumn, kPayloadColumn}, {}, "T",
        {kKeyColumn, kDependentColumn}, {kKeyColumn})));
    CODS_CHECK_OK(
        engine.Apply(Smo::MergeTables("S", "T", "R", {kKeyColumn}, {})));
    return catalog.GetTable("R").ValueOrDie();
  };
  auto reference = run_with(1);
  for (int threads : {2, 8}) {
    auto result = run_with(threads);
    ExpectTablesIdentical(*reference, *result,
                          "engine script @" + std::to_string(threads));
  }
}

TEST(ParallelDeterminismTest, PlannedScriptExecution) {
  // Script-level determinism: the planner + task-graph executor must
  // produce a catalog code-word-identical to serial ApplyAll at every
  // thread count. The script mixes independent DECOMPOSEs (overlap),
  // a partition/union diamond, and schema-only ops.
  auto fresh_catalog = []() {
    auto catalog = std::make_unique<Catalog>();
    CODS_CHECK_OK(catalog->AddTable(TestTable()->WithName("R0")));
    CODS_CHECK_OK(catalog->AddTable(TestTable()->WithName("R1")));
    return catalog;
  };
  std::vector<Smo> script;
  for (int i = 0; i < 2; ++i) {
    std::string n = std::to_string(i);
    script.push_back(Smo::DecomposeTable(
        "R" + n, "S" + n, {kKeyColumn, kPayloadColumn}, {}, "T" + n,
        {kKeyColumn, kDependentColumn}, {kKeyColumn}));
  }
  script.push_back(Smo::MergeTables("S0", "T0", "R0", {kKeyColumn}, {}));
  script.push_back(Smo::PartitionTable("S1", "S1lo", "S1hi", kKeyColumn,
                                       CompareOp::kLt,
                                       Value(static_cast<int64_t>(250))));
  script.push_back(Smo::UnionTables("S1lo", "S1hi", "S1"));
  script.push_back(Smo::RenameTable("T1", "T1v2"));
  script.push_back(Smo::CopyTable("R0", "R0backup"));

  auto serial_catalog = fresh_catalog();
  {
    EngineOptions options;
    options.num_threads = 1;
    options.validate_outputs = true;
    EvolutionEngine engine(serial_catalog.get(), nullptr, options);
    CODS_CHECK_OK(engine.ApplyAll(script));
  }

  for (int threads : kThreadCounts) {
    auto catalog = fresh_catalog();
    EngineOptions options;
    options.num_threads = threads;
    options.validate_outputs = true;
    EvolutionEngine engine(catalog.get(), nullptr, options);
    Status st = engine.ApplyAllPlanned(script);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(serial_catalog->TableNames(), catalog->TableNames())
        << "planned script @" << threads;
    for (const std::string& name : serial_catalog->TableNames()) {
      ExpectTablesIdentical(*serial_catalog->GetTable(name).ValueOrDie(),
                            *catalog->GetTable(name).ValueOrDie(),
                            "planned script table " + name + " @" +
                                std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace cods
