// Table 1 functional coverage, timed: per-SMO latency of the CODS
// data-level engine on a mid-size table. Shows the cost hierarchy the
// paper describes in §2.3 — schema-only ops are ~free, data-movement ops
// (COPY/UNION/PARTITION) cost bitmap traffic but no value changes, and
// DECOMPOSE/MERGE are the interesting ones.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "evolution/engine.h"

namespace cods {
namespace {

constexpr uint64_t kDistinct = 1000;

// Sets up a fresh catalog holding R for each iteration (outside timing).
std::unique_ptr<Catalog> FreshCatalog() {
  auto catalog = std::make_unique<Catalog>();
  CODS_CHECK_OK(catalog->AddTable(bench::CachedR(kDistinct)));
  return catalog;
}

// Runs one SMO per iteration on an engine configured for `threads`
// workers (0: process default). The heavy data-movement benchmarks
// sweep threads via their benchmark Arg so the speedup curve lands in
// BENCH_smo_ops.json; schema-only ops run at the default.
void RunSmo(benchmark::State& state, const Smo& smo, int threads = 0) {
  bench::RunMeta meta(state, ExecContext(threads).num_threads());
  EngineOptions options;
  options.num_threads = threads;
  for (auto _ : state) {
    state.PauseTiming();
    auto catalog = FreshCatalog();
    EvolutionEngine engine(catalog.get(), nullptr, options);
    state.ResumeTiming();
    Status st = engine.Apply(smo);
    CODS_CHECK(st.ok()) << st.ToString();
    benchmark::DoNotOptimize(catalog);
  }
  state.counters["rows"] = static_cast<double>(bench::BenchRows());
}

void BM_Smo_CreateTable(benchmark::State& state) {
  Schema schema({{"a", DataType::kInt64}});
  RunSmo(state, Smo::CreateTable("New", schema));
}

void BM_Smo_DropTable(benchmark::State& state) {
  RunSmo(state, Smo::DropTable("R"));
}

void BM_Smo_RenameTable(benchmark::State& state) {
  RunSmo(state, Smo::RenameTable("R", "R2"));
}

void BM_Smo_CopyTable(benchmark::State& state) {
  RunSmo(state, Smo::CopyTable("R", "R2"));
}

void BM_Smo_UnionTables(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  bench::RunMeta meta(state, ExecContext(threads).num_threads());
  EngineOptions options;
  options.num_threads = threads;
  for (auto _ : state) {
    state.PauseTiming();
    auto catalog = FreshCatalog();
    CODS_CHECK_OK(catalog->AddTable(
        bench::CachedR(kDistinct)->WithName("R2")));
    EvolutionEngine engine(catalog.get(), nullptr, options);
    state.ResumeTiming();
    Status st = engine.Apply(Smo::UnionTables("R", "R2", "U"));
    CODS_CHECK(st.ok()) << st.ToString();
  }
}

void BM_Smo_PartitionTable(benchmark::State& state) {
  RunSmo(state,
         Smo::PartitionTable("R", "A", "B", kKeyColumn, CompareOp::kLt,
                             Value(static_cast<int64_t>(kDistinct / 2))),
         static_cast<int>(state.range(0)));
}

void BM_Smo_DecomposeTable(benchmark::State& state) {
  RunSmo(state,
         Smo::DecomposeTable("R", "S", {kKeyColumn, kPayloadColumn}, {},
                             "T", {kKeyColumn, kDependentColumn},
                             {kKeyColumn}),
         static_cast<int>(state.range(0)));
}

void BM_Smo_MergeTables(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  bench::RunMeta meta(state, ExecContext(threads).num_threads());
  EngineOptions options;
  options.num_threads = threads;
  const GeneratedPair& pair = bench::CachedPair(kDistinct);
  for (auto _ : state) {
    state.PauseTiming();
    Catalog catalog;
    CODS_CHECK_OK(catalog.AddTable(pair.s));
    CODS_CHECK_OK(catalog.AddTable(pair.t));
    EvolutionEngine engine(&catalog, nullptr, options);
    state.ResumeTiming();
    Status st =
        engine.Apply(Smo::MergeTables("S", "T", "R", {kKeyColumn}, {}));
    CODS_CHECK(st.ok()) << st.ToString();
  }
}

void BM_Smo_AddColumn(benchmark::State& state) {
  RunSmo(state, Smo::AddColumn("R", {"New", DataType::kInt64},
                               Value(int64_t{0})));
}

void BM_Smo_DropColumn(benchmark::State& state) {
  RunSmo(state, Smo::DropColumn("R", kPayloadColumn));
}

void BM_Smo_RenameColumn(benchmark::State& state) {
  RunSmo(state, Smo::RenameColumn("R", kPayloadColumn, "V2"));
}

#define CODS_SMO_BENCH(fn) \
  BENCHMARK(fn)->Unit(benchmark::kMicrosecond)->MinTime(0.1)

// Data-movement ops sweep the worker count so the speedup curve lands
// in BENCH_smo_ops.json (threads counter on every series).
#define CODS_SMO_BENCH_THREADS(fn)                          \
  BENCHMARK(fn)                                             \
      ->Unit(benchmark::kMicrosecond)                       \
      ->MinTime(0.1)                                        \
      ->ArgName("threads")                                  \
      ->Arg(1)                                              \
      ->Arg(2)                                              \
      ->Arg(4)                                              \
      ->Arg(8)

CODS_SMO_BENCH(BM_Smo_CreateTable);
CODS_SMO_BENCH(BM_Smo_DropTable);
CODS_SMO_BENCH(BM_Smo_RenameTable);
CODS_SMO_BENCH(BM_Smo_CopyTable);
CODS_SMO_BENCH_THREADS(BM_Smo_UnionTables);
CODS_SMO_BENCH_THREADS(BM_Smo_PartitionTable);
CODS_SMO_BENCH_THREADS(BM_Smo_DecomposeTable);
CODS_SMO_BENCH_THREADS(BM_Smo_MergeTables);
CODS_SMO_BENCH(BM_Smo_AddColumn);
CODS_SMO_BENCH(BM_Smo_DropColumn);
CODS_SMO_BENCH(BM_Smo_RenameColumn);

}  // namespace
}  // namespace cods

CODS_BENCH_MAIN("smo_ops")
