// Snapshot-isolated serving under a live writer: the query storm that
// proves readers scale while SMO scripts commit (the PR 7 acceptance
// run).
//
//   * BM_Concurrent_QueryStorm/readers:N — N reader threads each pin a
//     snapshot per query (GetSnapshot -> QueryEngine COUNT on R) while
//     --writer-scripts background streams (default 1) commit ADD/DROP
//     COLUMN toggle scripts against their own victim tables through the
//     snapshot-mode EvolutionEngine. Readers never take the commit
//     lock, so throughput should scale with N and the p99 query latency
//     should stay flat as commits land. Counters:
//       queries_per_sec  total reader throughput (larger is better —
//                        the regression gate inverts the ratio)
//       p99_stall_us     99th-percentile per-query latency, pin
//                        included: the reader-visible commit stall
//       scripts_committed  writer progress during the measured run
//   * BM_Concurrent_SnapshotPin — the raw cost of pinning (a pointer
//     copy under the shared root lock + pin accounting) while a writer
//     churns roots.
//
// The reader sweep is 1/2/4/8; `--readers=N` pins it to one value, so
// the series are registered from BenchMain's hook rather than at static
// init (CODS_BENCH_MAIN_REGISTERED).

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "concurrency/snapshot_catalog.h"
#include "evolution/engine.h"
#include "query/query_engine.h"

namespace cods {
namespace {

constexpr uint64_t kDistinct = 1000;
constexpr int kQueriesPerBatch = 32;

Value I64(uint64_t v) { return Value(static_cast<int64_t>(v)); }

// The serving core under test: R for the readers plus one small victim
// table per writer stream (disjoint write sets, so every commit rebases
// and none aborts — the storm measures serving, not conflict policy).
void SeedServing(SnapshotCatalog* serving, int writer_streams) {
  Catalog seed;
  CODS_CHECK_OK(seed.AddTable(bench::CachedR(kDistinct)));
  for (int w = 0; w < writer_streams; ++w) {
    WorkloadSpec spec;
    spec.num_rows = 1'000;
    spec.num_distinct = 10;
    spec.seed = 7 + static_cast<uint64_t>(w);
    auto victim =
        GenerateEvolutionTable(spec, "W" + std::to_string(w));
    CODS_CHECK(victim.ok()) << victim.status().ToString();
    CODS_CHECK_OK(seed.AddTable(victim.ValueOrDie()));
  }
  serving->Reset(seed);
}

// One background writer stream: alternately adds and drops two columns
// on its victim, each direction one committed script, paced at a few
// hundred scripts per second. The pacing matters: an unpaced loop can
// commit ~100K roots/s, which measures allocator churn, not serving —
// online evolution commits occasionally while queries run constantly.
void WriterLoop(SnapshotCatalog* serving, const std::string& victim,
                std::atomic<bool>* stop,
                std::atomic<uint64_t>* scripts_committed) {
  EvolutionEngine engine(serving);
  for (uint64_t i = 0; !stop->load(std::memory_order_relaxed); ++i) {
    Status st;
    if (i % 2 == 0) {
      st = engine.ApplyAll(
          {Smo::AddColumn(victim, {"P1", DataType::kInt64}, I64(1)),
           Smo::AddColumn(victim, {"P2", DataType::kInt64}, I64(2))});
    } else {
      st = engine.ApplyAll(
          {Smo::DropColumn(victim, "P1"), Smo::DropColumn(victim, "P2")});
    }
    CODS_CHECK(st.ok()) << st.ToString();
    scripts_committed->fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void BM_Concurrent_QueryStorm(benchmark::State& state) {
  const int readers = static_cast<int>(state.range(0));
  const int writer_streams = bench::BenchWriterScripts();

  SnapshotCatalog serving;
  SeedServing(&serving, writer_streams);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scripts_committed{0};
  std::vector<std::thread> writers;
  writers.reserve(static_cast<size_t>(writer_streams));
  for (int w = 0; w < writer_streams; ++w) {
    writers.emplace_back(WriterLoop, &serving, "W" + std::to_string(w),
                         &stop, &scripts_committed);
  }

  // ~5% key selectivity: heavy enough to be a real compressed-count
  // query, light enough that per-query latency resolves commit stalls.
  const QueryRequest count = QueryRequest::Count(
      "R", Expr::Compare(kKeyColumn, CompareOp::kLt, I64(kDistinct / 20)));

  bench::RunMeta meta(state, readers);
  std::vector<double> stalls_us;
  uint64_t total_queries = 0;
  double total_seconds = 0.0;
  for (auto _ : state) {
    std::vector<std::vector<double>> latencies(
        static_cast<size_t>(readers));
    auto batch_start = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(readers));
    for (int r = 0; r < readers; ++r) {
      pool.emplace_back([&serving, &count, &latencies, r] {
        // Each reader is one single-threaded query stream: parallelism
        // comes from the reader count, not nested kernel threads.
        ExecContext ctx(1);
        std::vector<double>& mine = latencies[static_cast<size_t>(r)];
        mine.reserve(kQueriesPerBatch);
        for (int q = 0; q < kQueriesPerBatch; ++q) {
          auto t0 = std::chrono::steady_clock::now();
          Snapshot snap = serving.GetSnapshot();
          auto result = QueryEngine(snap.store()).Execute(count, &ctx);
          CODS_CHECK(result.ok()) << result.status().ToString();
          benchmark::DoNotOptimize(result.ValueOrDie().count);
          mine.push_back(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
        }
      });
    }
    for (std::thread& t : pool) t.join();
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - batch_start)
                         .count();
    state.SetIterationTime(elapsed);
    total_seconds += elapsed;
    total_queries +=
        static_cast<uint64_t>(readers) * kQueriesPerBatch;
    for (std::vector<double>& mine : latencies) {
      stalls_us.insert(stalls_us.end(), mine.begin(), mine.end());
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();

  state.counters["queries_per_sec"] =
      total_seconds > 0 ? static_cast<double>(total_queries) / total_seconds
                        : 0.0;
  state.counters["p99_stall_us"] = bench::Percentile(stalls_us, 0.99);
  state.counters["scripts_committed"] =
      static_cast<double>(scripts_committed.load());
}

void BM_Concurrent_SnapshotPin(benchmark::State& state) {
  SnapshotCatalog serving;
  SeedServing(&serving, 1);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scripts_committed{0};
  std::thread writer(WriterLoop, &serving, "W0", &stop,
                     &scripts_committed);
  bench::RunMeta meta(state, 1);
  for (auto _ : state) {
    Snapshot snap = serving.GetSnapshot();
    benchmark::DoNotOptimize(snap.id());
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

}  // namespace

// Registered from BenchMain's hook: the sweep depends on --readers,
// which does not exist yet at static-init time.
void RegisterConcurrentBenches() {
  auto* storm = ::benchmark::RegisterBenchmark("BM_Concurrent_QueryStorm",
                                               BM_Concurrent_QueryStorm);
  storm->ArgName("readers")->UseManualTime()->Unit(benchmark::kMillisecond);
  if (bench::BenchReaders() > 0) {
    storm->Arg(bench::BenchReaders());
  } else {
    for (int readers : {1, 2, 4, 8}) storm->Arg(readers);
  }
  ::benchmark::RegisterBenchmark("BM_Concurrent_SnapshotPin",
                                 BM_Concurrent_SnapshotPin);
}

}  // namespace cods

CODS_BENCH_MAIN_REGISTERED("concurrent", &cods::RegisterConcurrentBenches)
