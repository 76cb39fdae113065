// Ablation A2: the decomposition's "bitmap filtering" executed
// compressed-to-compressed (CODS, §2.4 step 2) vs the naive route of
// decompressing each bitmap, gathering positions, and re-compressing —
// i.e. exactly the decompress/re-compress round trip of Figure 2 that
// the data-level design removes.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "bitmap/plain_bitmap.h"
#include "bitmap/wah_filter.h"
#include "evolution/decompose.h"

namespace cods {
namespace {

// Shared setup: the dependent column's bitmaps (re-encoded as WAH, the
// form this ablation compares filter strategies over) and the
// distinction position list for a given distinct-key count.
struct FilterSetup {
  std::shared_ptr<const Column> column;
  std::vector<WahBitmap> wahs;  // column's value bitmaps, WAH-encoded
  std::vector<uint64_t> positions;
};

const FilterSetup& Setup(uint64_t distinct) {
  static std::map<uint64_t, FilterSetup>* cache =
      new std::map<uint64_t, FilterSetup>();
  auto it = cache->find(distinct);
  if (it != cache->end()) return it->second;
  auto r = bench::CachedR(distinct);
  FilterSetup s;
  s.column = r->ColumnByName(kDependentColumn).ValueOrDie();
  s.wahs.reserve(s.column->distinct_count());
  for (Vid v = 0; v < s.column->distinct_count(); ++v) {
    s.wahs.push_back(s.column->bitmap(v).ToWah());
  }
  s.positions = DistinctionPositions(*r, {kKeyColumn}).ValueOrDie();
  return cache->emplace(distinct, std::move(s)).first->second;
}

// CODS: compressed-domain filter with a shared rank index (what the
// decomposition operator uses).
void BM_Filter_CompressedRank(benchmark::State& state) {
  const FilterSetup& s = Setup(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    WahPositionFilter filter(s.positions, s.column->rows());
    for (Vid v = 0; v < s.column->distinct_count(); ++v) {
      WahBitmap out = filter.Filter(s.wahs[v]);
      benchmark::DoNotOptimize(out);
    }
  }
  state.counters["distinct"] = static_cast<double>(state.range(0));
}

// Streaming per-bitmap filter: re-walks the position list per bitmap
// (O(v·|positions|) aggregate — fine for one bitmap, bad for many).
void BM_Filter_CompressedStreaming(benchmark::State& state) {
  const FilterSetup& s = Setup(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    for (Vid v = 0; v < s.column->distinct_count(); ++v) {
      WahBitmap out = WahFilterPositions(s.wahs[v], s.positions);
      benchmark::DoNotOptimize(out);
    }
  }
  state.counters["distinct"] = static_cast<double>(state.range(0));
}

// Baseline: decompress -> gather -> re-compress per bitmap.
void BM_Filter_DecodeRecompress(benchmark::State& state) {
  const FilterSetup& s = Setup(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    for (Vid v = 0; v < s.column->distinct_count(); ++v) {
      PlainBitmap plain = PlainBitmap::FromWah(s.wahs[v]);
      PlainBitmap filtered(s.positions.size());
      for (size_t i = 0; i < s.positions.size(); ++i) {
        if (plain.Get(s.positions[i])) filtered.Set(i);
      }
      WahBitmap out = filtered.ToWah();
      benchmark::DoNotOptimize(out);
    }
  }
  state.counters["distinct"] = static_cast<double>(state.range(0));
}

void Sweep(benchmark::internal::Benchmark* b) {
  for (int64_t d : bench::DistinctSweep()) b->Arg(d);
  b->Unit(benchmark::kMillisecond);
  b->Iterations(1);
  // Raw repetition entries stay in the JSON: the regression gate
  // tracks best-of-repetitions, which single-iteration series need
  // for stability on noisy runners.
  b->Repetitions(5);
  b->ReportAggregatesOnly(false);
}

BENCHMARK(BM_Filter_CompressedRank)->Apply(Sweep);
BENCHMARK(BM_Filter_CompressedStreaming)->Apply(Sweep);
BENCHMARK(BM_Filter_DecodeRecompress)->Apply(Sweep);

}  // namespace
}  // namespace cods

CODS_BENCH_MAIN("filter_ablation")
