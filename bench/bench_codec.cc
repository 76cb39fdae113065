// The density-adaptive codec vs the all-WAH path (PR 8's tentpole
// claim): for each representation pair, pairwise AND/OR/AND-count over
// the same bit content executed through the codec's specialized kernels
// (BM_Codec*) and through plain WAH merges on the same content
// re-encoded as WAH (BM_WahPath*). The committed series document the
// two regimes the codec targets:
//
//   * sparse x sparse (array containers): galloping sorted-set
//     intersection touches only the set positions, where the WAH merge
//     still walks every code word;
//   * dense x dense (bitset containers): word-parallel AND + popcount
//     auto-vectorizes, where WAH pays per-word decode branching for
//     literals that compress nothing.
//
// The mixed (WAH x WAH) pairs are committed too: they must track the
// plain WAH path (same kernel underneath), pinning "no regression in the
// regime WAH already handled well".

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "bitmap/codec.h"
#include "bitmap/wah_ops.h"
#include "common/random.h"

namespace cods {
namespace {

constexpr uint64_t kBits = 1 << 22;  // 4M bits per operand

// density = 1 / (2 << arg): 0 -> 50% (bitset), 2 -> 12.5% (WAH),
// 10 -> ~0.05% (array).
double DensityFromArg(int64_t arg) { return 1.0 / (uint64_t{2} << arg); }

WahBitmap MakeWah(double density, uint64_t seed) {
  Rng rng(seed);
  WahBitmap bm;
  uint64_t pos = 0;
  while (pos < kBits) {
    uint64_t gap = static_cast<uint64_t>(
        rng.NextDouble() < density
            ? 0
            : rng.Uniform(0, static_cast<int64_t>(2.0 / density)));
    pos += gap;
    if (pos >= kBits) break;
    bm.AppendSetBit(pos);
    ++pos;
  }
  bm.AppendRun(false, kBits - bm.size());
  return bm;
}

ValueBitmap MakeValue(double density, uint64_t seed) {
  return ValueBitmap::FromWah(MakeWah(density, seed));
}

void PairCounters(benchmark::State& state, const ValueBitmap& a,
                  const ValueBitmap& b) {
  state.counters["rep_a"] = static_cast<double>(a.rep());
  state.counters["rep_b"] = static_cast<double>(b.rep());
  state.counters["codec_bytes"] = static_cast<double>(a.SizeBytes());
  state.counters["wah_bytes"] = static_cast<double>(a.ToWah().SizeBytes());
}

// ---- Pairwise kernels, codec vs WAH path ---------------------------------

void BM_CodecAnd(benchmark::State& state) {
  ValueBitmap a = MakeValue(DensityFromArg(state.range(0)), 1);
  ValueBitmap b = MakeValue(DensityFromArg(state.range(1)), 2);
  for (auto _ : state) {
    ValueBitmap c = CodecAnd(a, b);
    benchmark::DoNotOptimize(c);
  }
  PairCounters(state, a, b);
}

void BM_WahPathAnd(benchmark::State& state) {
  WahBitmap a = MakeWah(DensityFromArg(state.range(0)), 1);
  WahBitmap b = MakeWah(DensityFromArg(state.range(1)), 2);
  for (auto _ : state) {
    WahBitmap c = WahAnd(a, b);
    benchmark::DoNotOptimize(c);
  }
}

void BM_CodecOr(benchmark::State& state) {
  ValueBitmap a = MakeValue(DensityFromArg(state.range(0)), 3);
  ValueBitmap b = MakeValue(DensityFromArg(state.range(1)), 4);
  for (auto _ : state) {
    ValueBitmap c = CodecOr(a, b);
    benchmark::DoNotOptimize(c);
  }
  PairCounters(state, a, b);
}

void BM_WahPathOr(benchmark::State& state) {
  WahBitmap a = MakeWah(DensityFromArg(state.range(0)), 3);
  WahBitmap b = MakeWah(DensityFromArg(state.range(1)), 4);
  for (auto _ : state) {
    WahBitmap c = WahOr(a, b);
    benchmark::DoNotOptimize(c);
  }
}

// The GROUP BY histogram kernel: |a & b| without materializing.
void BM_CodecAndCount(benchmark::State& state) {
  ValueBitmap a = MakeValue(DensityFromArg(state.range(0)), 5);
  ValueBitmap b = MakeValue(DensityFromArg(state.range(1)), 6);
  for (auto _ : state) {
    uint64_t n = CodecAndCount(a, b);
    benchmark::DoNotOptimize(n);
  }
  PairCounters(state, a, b);
}

void BM_WahPathAndCount(benchmark::State& state) {
  WahBitmap a = MakeWah(DensityFromArg(state.range(0)), 5);
  WahBitmap b = MakeWah(DensityFromArg(state.range(1)), 6);
  for (auto _ : state) {
    uint64_t n = WahAndCount(a, b);
    benchmark::DoNotOptimize(n);
  }
}

// ---- k-way union (EvalLeafBitmap shape) ----------------------------------
//
// k disjoint-ish sparse operands (one per qualifying dictionary value,
// ~1/k density each) unioned into a selection.

std::vector<ValueBitmap> MakeSparseOperands(int64_t k) {
  std::vector<ValueBitmap> out;
  out.reserve(static_cast<size_t>(k));
  double density = 1.0 / static_cast<double>(k * 64);
  for (int64_t i = 0; i < k; ++i) {
    out.push_back(MakeValue(density, 100 + static_cast<uint64_t>(i)));
  }
  return out;
}

void BM_CodecOrManySparse(benchmark::State& state) {
  std::vector<ValueBitmap> vbs = MakeSparseOperands(state.range(0));
  std::vector<const ValueBitmap*> operands;
  for (const ValueBitmap& vb : vbs) operands.push_back(&vb);
  for (auto _ : state) {
    ValueBitmap c = CodecOrMany(operands, kBits);
    benchmark::DoNotOptimize(c);
  }
  state.counters["rep_first"] = static_cast<double>(vbs[0].rep());
}

// Density-pair sweep: array x array, array x WAH, array x bitset,
// WAH x WAH, WAH x bitset, bitset x bitset.
void RepPairSweep(benchmark::internal::Benchmark* b) {
  b->Args({10, 10})
      ->Args({10, 2})
      ->Args({10, 0})
      ->Args({2, 2})
      ->Args({2, 0})
      ->Args({0, 0})
      ->Unit(benchmark::kMicrosecond);
}

void KSweep(benchmark::internal::Benchmark* b) {
  for (int64_t k : {8, 32, 128}) b->Arg(k);
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_CodecAnd)->Apply(RepPairSweep);
BENCHMARK(BM_WahPathAnd)->Apply(RepPairSweep);
BENCHMARK(BM_CodecOr)->Apply(RepPairSweep);
BENCHMARK(BM_WahPathOr)->Apply(RepPairSweep);
BENCHMARK(BM_CodecAndCount)->Apply(RepPairSweep);
BENCHMARK(BM_WahPathAndCount)->Apply(RepPairSweep);
BENCHMARK(BM_CodecOrManySparse)->Apply(KSweep);

}  // namespace
}  // namespace cods

CODS_BENCH_MAIN("codec")
