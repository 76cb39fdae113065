// The query API on the compressed store: nested-expression selection at
// swept selectivities, count-only vs materializing plans, and
// group-by-sum — all through the QueryEngine/Expr path the SELECT
// statement grammar compiles to.
//
//   * BM_Query_NestedSelect / BM_Query_NestedCount: the acceptance-shape
//     expression  K < t AND (V >= 20 OR NOT P IN (...))  with the
//     threshold t swept so the outer selectivity moves ~10% -> ~100%.
//     Leaves evaluate in parallel (one task each), AND/OR combine in the
//     single-pass k-way kernels; the Count series never materializes the
//     root bitmap.
//   * BM_Query_WideOrSelect: a flattened 16-leaf OR (the IN-list /
//     union-of-predicates regime) — exercises k-way fan-in after
//     normalization.
//   * BM_Query_GroupBySum: SUM(V) GROUP BY P with a WHERE, one task
//     per group over the contingency pass's pair counts.
//   * BM_Query_GroupByMulti: COUNT/SUM/MIN/MAX/AVG GROUP BY on the
//     analytic shape (a 4-value bitset/WAH group column against a
//     16-value WAH measure), its reverse, and a 1000-value array group
//     column where nothing densifies; each with and without a WHERE.
//   * BM_Query_JoinSelect: the compressed equi-join (key-FK shape) at
//     swept join selectivities — the fraction of fact rows whose key
//     survives into the filtered dimension table — times threads.
//   * BM_Query_JoinGeneral: the general value-clustered shape (both
//     sides duplicated).
//   * BM_Query_OrderByLimit: ORDER BY + LIMIT over a filtered select,
//     full-sort vs top-100.
//   * BM_Query_OrderByWhereLimit: SELECT ... WHERE ... ORDER BY K [DESC]
//     LIMIT 100 through the engine at ~1% and ~50% selectivity — the
//     rank-ordered walk projects only the rows it picks.
//   * BM_Query_JoinCountWhere: COUNT(*) over the key-FK join with a
//     dimension-side WHERE, and with a fact-side conjunct as well —
//     pushed below the join onto the count-only plan.
//   * BM_Query_PointProject: the point SELECT's result build — a 10-row
//     (K = k) and a 30-row (K IN (a, b, c)) selection projecting two
//     1000-value columns through their row → vid maps. The cold series
//     projects freshly built columns, so each iteration pays the map
//     build; the warm series reuses the cached maps.
//
// The original series sweep --threads 1/2/4/8 via the ExecContext; the
// engine-level ORDER BY / join COUNT series run at one thread. All
// carry the threads / wall_ms counters for the regression gate.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/random.h"
#include "query/join.h"
#include "query/query_engine.h"
#include "storage/catalog.h"

namespace cods {
namespace {

constexpr uint64_t kDistinct = 1000;

Value I64(uint64_t v) { return Value(static_cast<int64_t>(v)); }

// K < threshold AND (V >= 20 OR NOT P IN (1, 2, 3)) — the nested
// acceptance shape; `pct` positions the threshold in the key domain.
ExprPtr NestedExpr(int64_t pct) {
  return Expr::And(
      {Expr::Compare(kKeyColumn, CompareOp::kLt, I64(kDistinct * pct / 100)),
       Expr::Or({Expr::Compare(kPayloadColumn, CompareOp::kGe, I64(20)),
                 Expr::Not(Expr::In(kPayloadColumn,
                                    {I64(1), I64(2), I64(3)}))})});
}

void BM_Query_NestedSelect(benchmark::State& state) {
  const int64_t pct = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  auto r = bench::CachedR(kDistinct);
  ExprPtr expr = NestedExpr(pct);
  ExecContext ctx(threads);
  bench::RunMeta meta(state, ctx.num_threads());
  uint64_t selected = 0;
  for (auto _ : state) {
    auto out = QueryEngine::SelectRows(*r, {}, expr, "sel", &ctx);
    CODS_CHECK(out.ok()) << out.status().ToString();
    selected = out.ValueOrDie()->rows();
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(r->rows());
  state.counters["selected"] = static_cast<double>(selected);
}

void BM_Query_NestedCount(benchmark::State& state) {
  const int64_t pct = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  auto r = bench::CachedR(kDistinct);
  ExprPtr expr = NestedExpr(pct);
  ExecContext ctx(threads);
  bench::RunMeta meta(state, ctx.num_threads());
  uint64_t count = 0;
  for (auto _ : state) {
    auto out = QueryEngine::CountRows(*r, expr, &ctx);
    CODS_CHECK(out.ok()) << out.status().ToString();
    count = out.ValueOrDie();
    benchmark::DoNotOptimize(count);
  }
  state.counters["rows"] = static_cast<double>(r->rows());
  state.counters["selected"] = static_cast<double>(count);
}

// A 16-leaf disjunction over scattered key ranges: after normalization
// this is ONE 16-way CodecOrMany fan-in.
void BM_Query_WideOrCount(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  auto r = bench::CachedR(kDistinct);
  std::vector<ExprPtr> leaves;
  for (uint64_t i = 0; i < 16; ++i) {
    uint64_t lo = i * kDistinct / 16;
    leaves.push_back(
        Expr::Between(kKeyColumn, I64(lo), I64(lo + kDistinct / 64)));
  }
  ExprPtr expr = Expr::Or(std::move(leaves));
  ExecContext ctx(threads);
  bench::RunMeta meta(state, ctx.num_threads());
  for (auto _ : state) {
    auto out = QueryEngine::CountRows(*r, expr, &ctx);
    CODS_CHECK(out.ok()) << out.status().ToString();
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(r->rows());
}

// Group-by table in the dictionary-encoding sweet spot: few distinct
// groups (P) and measures (V), so the per-(group, measure) compressed
// AND-count matrix stays dense work rather than dictionary overhead.
std::shared_ptr<const Table> CachedGroupTable() {
  static std::shared_ptr<const Table>* cache = [] {
    WorkloadSpec spec;
    spec.num_rows = bench::BenchRows();
    spec.num_distinct = kDistinct;
    spec.payload_distinct = 50;
    spec.dependent_distinct = 24;
    auto r = GenerateEvolutionTable(spec);
    CODS_CHECK(r.ok()) << r.status().ToString();
    return new std::shared_ptr<const Table>(r.ValueOrDie());
  }();
  return *cache;
}

void BM_Query_GroupBySum(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  auto r = CachedGroupTable();
  // WHERE K < half: every group bitmap is narrowed by one compressed
  // AND before the per-measure counts.
  ExprPtr where = Expr::Compare(kKeyColumn, CompareOp::kLt,
                                I64(kDistinct / 2));
  const std::vector<AggregateSpec> sum = {AggregateSpec::Sum(kPayloadColumn)};
  ExecContext ctx(threads);
  bench::RunMeta meta(state, ctx.num_threads());
  for (auto _ : state) {
    auto out =
        QueryEngine::GroupByRows(*r, kDependentColumn, sum, where, &ctx);
    CODS_CHECK(out.ok()) << out.status().ToString();
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(r->rows());
}

// The analytic GROUP BY shape: P with 4 skewed values (40/30/20/10% of
// the rows: two bitsets, two WAH), V with 16 uniform values (all WAH),
// K with 1000 (all arrays), in seeded random row order.
std::shared_ptr<const Table> CachedContingencyTable() {
  static std::shared_ptr<const Table>* cache = [] {
    const uint64_t rows = bench::BenchRows();
    Rng rng(11);
    Dictionary p_dict, v_dict, k_dict;
    for (uint64_t i = 0; i < 4; ++i) p_dict.GetOrInsert(I64(i));
    for (uint64_t i = 0; i < 16; ++i) v_dict.GetOrInsert(I64(i * 10));
    for (uint64_t i = 0; i < kDistinct; ++i) k_dict.GetOrInsert(I64(i));
    std::vector<Vid> p(rows), v(rows), k(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      const double u = rng.NextDouble();
      p[r] = u < 0.4 ? 0 : u < 0.7 ? 1 : u < 0.9 ? 2 : 3;
      v[r] = static_cast<Vid>(rng.Uniform(0, 15));
      k[r] = static_cast<Vid>(
          rng.Uniform(0, static_cast<int64_t>(kDistinct) - 1));
    }
    Schema schema({{"P", DataType::kInt64},
                   {"V", DataType::kInt64},
                   {"K", DataType::kInt64}},
                  {});
    std::vector<std::shared_ptr<const Column>> cols = {
        Column::FromVids(DataType::kInt64, std::move(p_dict), p),
        Column::FromVids(DataType::kInt64, std::move(v_dict), v),
        Column::FromVids(DataType::kInt64, std::move(k_dict), k)};
    return new std::shared_ptr<const Table>(
        Table::Make("C", schema, std::move(cols), rows).ValueOrDie());
  }();
  return *cache;
}

// SELECT g, COUNT(*), SUM(m), MIN(m), MAX(m), AVG(m) ... GROUP BY g, one
// contingency pass. shape 0: g = P, m = V (the analytic shape); shape 1:
// the reverse; shape 2: g = K, m = V — high cardinality, where no group
// densifies. `where` adds K < 500 (~50% of the rows).
void BM_Query_GroupByMulti(benchmark::State& state) {
  static const char* const kGroup[] = {"P", "V", "K"};
  static const char* const kMeasure[] = {"V", "P", "V"};
  const int64_t shape = state.range(0);
  const std::string m = kMeasure[shape];
  auto c = CachedContingencyTable();
  ExprPtr where = state.range(1) != 0
                      ? Expr::Compare("K", CompareOp::kLt, I64(kDistinct / 2))
                      : nullptr;
  const std::vector<AggregateSpec> aggs = {
      AggregateSpec::Count(), AggregateSpec::Sum(m), AggregateSpec::Min(m),
      AggregateSpec::Max(m), AggregateSpec::Avg(m)};
  ExecContext ctx(1);
  bench::RunMeta meta(state, ctx.num_threads());
  for (auto _ : state) {
    auto out = QueryEngine::GroupByRows(*c, kGroup[shape], aggs, where, &ctx);
    CODS_CHECK(out.ok()) << out.status().ToString();
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(c->rows());
}

// The filtered dimension side of the join sweep: T keyed on K, shrunk
// to the first `pct`% of the key domain — joining S against it keeps
// ~pct% of S's rows (the join selectivity).
std::shared_ptr<const Table> CachedDimension(int64_t pct) {
  static std::map<int64_t, std::shared_ptr<const Table>>* cache =
      new std::map<int64_t, std::shared_ptr<const Table>>();
  auto it = cache->find(pct);
  if (it != cache->end()) return it->second;
  const GeneratedPair& pair = bench::CachedPair(kDistinct);
  auto t = QueryEngine::SelectRows(
      *pair.t, {},
      pct >= 100 ? nullptr
                 : Expr::Compare(kKeyColumn, CompareOp::kLt,
                                 I64(kDistinct * pct / 100)),
      "Tdim");
  CODS_CHECK(t.ok()) << t.status().ToString();
  return cache->emplace(pct, t.ValueOrDie()).first->second;
}

void BM_Query_JoinSelect(benchmark::State& state) {
  const int64_t pct = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  const GeneratedPair& pair = bench::CachedPair(kDistinct);
  auto dim = CachedDimension(pct);
  ExecContext ctx(threads);
  bench::RunMeta meta(state, ctx.num_threads());
  uint64_t out_rows = 0;
  std::string path;
  for (auto _ : state) {
    JoinStats stats;
    auto out = CompressedEquiJoin(*pair.s, *dim, 0, 0, "J", &ctx, &stats);
    CODS_CHECK(out.ok()) << out.status().ToString();
    out_rows = out.ValueOrDie()->rows();
    path = stats.path;
    benchmark::DoNotOptimize(out);
  }
  CODS_CHECK(path == "fk-right") << path;
  state.counters["rows"] = static_cast<double>(pair.s->rows());
  state.counters["out_rows"] = static_cast<double>(out_rows);
}

void BM_Query_JoinGeneral(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  // Both sides duplicated: every join value fans out 6 x 4.
  static const GeneratedPair* pair = [] {
    auto p = GenerateGeneralMergePair(1'000, 6, 4);
    CODS_CHECK(p.ok()) << p.status().ToString();
    return new GeneratedPair(std::move(p).ValueOrDie());
  }();
  ExecContext ctx(threads);
  bench::RunMeta meta(state, ctx.num_threads());
  uint64_t out_rows = 0;
  for (auto _ : state) {
    auto out = CompressedEquiJoin(*pair->s, *pair->t, 0, 0, "J", &ctx);
    CODS_CHECK(out.ok()) << out.status().ToString();
    out_rows = out.ValueOrDie()->rows();
    benchmark::DoNotOptimize(out);
  }
  state.counters["out_rows"] = static_cast<double>(out_rows);
}

void BM_Query_OrderByLimit(benchmark::State& state) {
  const int64_t limit = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  auto r = bench::CachedR(kDistinct);
  // WHERE keeps ~half the rows, then sort descending on the key and
  // truncate — the SELECT ... ORDER BY K DESC LIMIT n pipeline.
  ExprPtr where = Expr::Compare(kPayloadColumn, CompareOp::kGe, I64(20));
  ExecContext ctx(threads);
  auto filtered = QueryEngine::SelectRows(*r, {}, where, "sel", &ctx);
  CODS_CHECK(filtered.ok()) << filtered.status().ToString();
  bench::RunMeta meta(state, ctx.num_threads());
  for (auto _ : state) {
    auto out = QueryEngine::SortRows(*filtered.ValueOrDie(), kKeyColumn,
                                     /*desc=*/true, limit, "sorted", &ctx);
    CODS_CHECK(out.ok()) << out.status().ToString();
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] =
      static_cast<double>(filtered.ValueOrDie()->rows());
}

// SELECT * FROM R WHERE V < t ORDER BY K [DESC] LIMIT 100 through the
// engine: the rank-ordered walk over K's dictionary picks 100 rows of
// the selection, and only those are projected. `sel_pct` positions t so
// the WHERE keeps ~1% or ~50% of the rows.
void BM_Query_OrderByWhereLimit(benchmark::State& state) {
  const int64_t pct = state.range(0);
  const bool desc = state.range(1) != 0;
  auto r = bench::CachedR(kDistinct);
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(r));
  QueryEngine engine(&catalog);
  QueryRequest req = QueryRequest::Select(
      r->name(), {},
      Expr::Compare(kPayloadColumn, CompareOp::kLt, I64(1000 * pct / 100)));
  req.OrderBy(kKeyColumn, desc).Limit(100);
  ExecContext ctx(1);
  bench::RunMeta meta(state, ctx.num_threads());
  for (auto _ : state) {
    auto out = engine.Execute(req, &ctx);
    CODS_CHECK(out.ok()) << out.status().ToString();
    CODS_CHECK(out.ValueOrDie().table->rows() == 100);
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(r->rows());
}

// SELECT COUNT(*) FROM S JOIN T ON S.K = T.K WHERE T.P < 400 [AND
// S.V = 7]: each conjunct touches one side, so the WHERE evaluates on
// the base tables and the count-only join folds the side selections
// into its per-value popcount products — no join row is built.
void BM_Query_JoinCountWhere(benchmark::State& state) {
  const bool fact_side = state.range(0) != 0;
  const GeneratedPair& pair = bench::CachedPair(kDistinct);
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(pair.s));
  CODS_CHECK_OK(catalog.AddTable(pair.t));
  QueryEngine engine(&catalog);
  const std::string s = pair.s->name(), t = pair.t->name();
  ExprPtr where = Expr::Compare(t + "." + kDependentColumn, CompareOp::kLt,
                                I64(400));
  if (fact_side) {
    where = Expr::And({where, Expr::Compare(s + "." + kPayloadColumn,
                                            CompareOp::kEq, I64(7))});
  }
  QueryRequest req = QueryRequest::Count(s, where);
  req.JoinOn(t, s + "." + kKeyColumn, t + "." + kKeyColumn);
  ExecContext ctx(1);
  bench::RunMeta meta(state, ctx.num_threads());
  for (auto _ : state) {
    auto out = engine.Execute(req, &ctx);
    CODS_CHECK(out.ok()) << out.status().ToString();
    CODS_CHECK(out.ValueOrDie().join_path == "count-only");
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(pair.s->rows());
}

// The result build of SELECT V, P FROM R WHERE K IN (...): `selected`
// scattered rows projected onto two 1000-value columns. Cold: fresh
// copies of the columns per iteration (built untimed), so the timed call
// builds both row → vid maps; warm: the maps exist.
void BM_Query_PointProject(benchmark::State& state) {
  const uint64_t selected = static_cast<uint64_t>(state.range(0));
  const bool warm = state.range(1) != 0;
  auto r = bench::CachedR(kDistinct);
  Rng rng(static_cast<uint64_t>(selected));
  std::vector<uint64_t> positions = rng.Permutation(r->rows());
  positions.resize(selected);
  std::sort(positions.begin(), positions.end());
  const ValueBitmap selection =
      ValueBitmap::FromWah(WahBitmap::FromPositions(positions, r->rows()));
  const std::vector<std::string> columns{kPayloadColumn, kDependentColumn};
  auto fresh = [&] {
    std::vector<std::shared_ptr<const Column>> cols;
    for (size_t i = 0; i < r->num_columns(); ++i) {
      const Column& c = *r->column(i);
      cols.push_back(Column::FromValueBitmaps(c.type(), c.dict(),
                                              c.bitmaps(), c.rows()));
    }
    return Table::Make(r->name(), r->schema(), std::move(cols), r->rows())
        .ValueOrDie();
  };
  std::shared_ptr<const Table> table = fresh();
  ExecContext ctx(1);
  bench::RunMeta meta(state, ctx.num_threads());
  uint64_t out_rows = 0;
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      table = fresh();
      state.ResumeTiming();
    }
    auto out = QueryEngine::ProjectSelection(*table, columns, selection,
                                             nullptr, "point", &ctx);
    CODS_CHECK(out.ok()) << out.status().ToString();
    out_rows = out.ValueOrDie()->rows();
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(r->rows());
  state.counters["selected"] = static_cast<double>(out_rows);
}

#define CODS_QUERY_BENCH(fn) \
  BENCHMARK(fn)->Unit(benchmark::kMillisecond)->MinTime(0.1)

// Selectivity sweep x thread sweep for the nested shapes.
#define CODS_QUERY_BENCH_SWEEP(fn)                                      \
  CODS_QUERY_BENCH(fn)                                                  \
      ->ArgNames({"sel_pct", "threads"})                                \
      ->Args({10, 1})                                                   \
      ->Args({50, 1})                                                   \
      ->Args({100, 1})                                                  \
      ->Args({50, 2})                                                   \
      ->Args({50, 4})                                                   \
      ->Args({50, 8})

CODS_QUERY_BENCH_SWEEP(BM_Query_NestedSelect);
CODS_QUERY_BENCH_SWEEP(BM_Query_NestedCount);
CODS_QUERY_BENCH(BM_Query_WideOrCount)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(8);
CODS_QUERY_BENCH(BM_Query_GroupBySum)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(8);
CODS_QUERY_BENCH(BM_Query_GroupByMulti)
    ->ArgNames({"shape", "where"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1});
// Join selectivity x thread sweep (key-FK shape).
CODS_QUERY_BENCH(BM_Query_JoinSelect)
    ->ArgNames({"match_pct", "threads"})
    ->Args({10, 1})
    ->Args({50, 1})
    ->Args({100, 1})
    ->Args({50, 2})
    ->Args({50, 4})
    ->Args({50, 8});
CODS_QUERY_BENCH(BM_Query_JoinGeneral)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(8);
// Full sort vs top-100, thread sweep at the full-sort point.
CODS_QUERY_BENCH(BM_Query_OrderByLimit)
    ->ArgNames({"limit", "threads"})
    ->Args({-1, 1})
    ->Args({100, 1})
    ->Args({-1, 2})
    ->Args({-1, 4})
    ->Args({-1, 8});

// Top-100 by the rank walk: 1% / 50% WHERE, ASC / DESC.
CODS_QUERY_BENCH(BM_Query_OrderByWhereLimit)
    ->ArgNames({"sel_pct", "desc"})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({50, 0})
    ->Args({50, 1});
// Count-only join: dimension-side WHERE, then both sides.
CODS_QUERY_BENCH(BM_Query_JoinCountWhere)
    ->ArgName("fact_side")->Arg(0)->Arg(1);
// Point projection: 10 / 30 selected rows, cold map build / warm maps.
CODS_QUERY_BENCH(BM_Query_PointProject)
    ->Unit(benchmark::kMicrosecond)
    ->ArgNames({"selected", "warm"})
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({30, 0})
    ->Args({30, 1});

}  // namespace
}  // namespace cods

CODS_BENCH_MAIN("query")
