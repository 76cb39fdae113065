// Ablation A1: WAH compressed bitmap operations vs uncompressed bitmaps
// across bit densities — the §2.2 design choice. At low density (the
// regime of per-value bitmaps in high-cardinality columns) WAH wins on
// both space (see the `wah_bytes`/`plain_bytes` counters) and op time;
// at high density plain bitmaps catch up.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "bitmap/plain_bitmap.h"
#include "bitmap/wah_ops.h"
#include "common/random.h"

namespace cods {
namespace {

constexpr uint64_t kBits = 1 << 22;  // 4M bits per operand

// density = 1 / (1 << range(0)): Arg(0)=50%, Arg(4)≈3%, Arg(10)≈0.1%...
double DensityFromArg(int64_t arg) { return 1.0 / (uint64_t{2} << arg); }

WahBitmap MakeWah(double density, uint64_t seed) {
  Rng rng(seed);
  WahBitmap bm;
  uint64_t pos = 0;
  // Geometric gaps approximate Bernoulli(density) fast.
  while (pos < kBits) {
    uint64_t gap = static_cast<uint64_t>(
        rng.NextDouble() < density ? 0 : rng.Uniform(0, static_cast<int64_t>(2.0 / density)));
    pos += gap;
    if (pos >= kBits) break;
    bm.AppendSetBit(pos);
    ++pos;
  }
  bm.AppendRun(false, kBits - bm.size());
  return bm;
}

void BM_WahAnd(benchmark::State& state) {
  double density = DensityFromArg(state.range(0));
  WahBitmap a = MakeWah(density, 1);
  WahBitmap b = MakeWah(density, 2);
  for (auto _ : state) {
    WahBitmap c = WahAnd(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.counters["density_pct"] = density * 100;
  state.counters["wah_bytes"] = static_cast<double>(a.SizeBytes());
}

void BM_PlainAnd(benchmark::State& state) {
  double density = DensityFromArg(state.range(0));
  PlainBitmap a = PlainBitmap::FromWah(MakeWah(density, 1));
  PlainBitmap b = PlainBitmap::FromWah(MakeWah(density, 2));
  for (auto _ : state) {
    PlainBitmap c = a.And(b);
    benchmark::DoNotOptimize(c);
  }
  state.counters["density_pct"] = density * 100;
  state.counters["plain_bytes"] = static_cast<double>(a.SizeBytes());
}

void BM_WahOr(benchmark::State& state) {
  double density = DensityFromArg(state.range(0));
  WahBitmap a = MakeWah(density, 3);
  WahBitmap b = MakeWah(density, 4);
  for (auto _ : state) {
    WahBitmap c = WahOr(a, b);
    benchmark::DoNotOptimize(c);
  }
}

void BM_PlainOr(benchmark::State& state) {
  double density = DensityFromArg(state.range(0));
  PlainBitmap a = PlainBitmap::FromWah(MakeWah(density, 3));
  PlainBitmap b = PlainBitmap::FromWah(MakeWah(density, 4));
  for (auto _ : state) {
    PlainBitmap c = a.Or(b);
    benchmark::DoNotOptimize(c);
  }
}

void BM_WahCountOnes(benchmark::State& state) {
  WahBitmap a = MakeWah(DensityFromArg(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.CountOnes());
  }
}

void BM_WahDecompress(benchmark::State& state) {
  // Cost of the decompression CODS avoids.
  WahBitmap a = MakeWah(DensityFromArg(state.range(0)), 6);
  for (auto _ : state) {
    PlainBitmap p = PlainBitmap::FromWah(a);
    benchmark::DoNotOptimize(p);
  }
}

void BM_WahRecompress(benchmark::State& state) {
  // Cost of the re-compression CODS avoids.
  PlainBitmap p = PlainBitmap::FromWah(MakeWah(DensityFromArg(state.range(0)), 7));
  for (auto _ : state) {
    WahBitmap w = p.ToWah();
    benchmark::DoNotOptimize(w);
  }
}

// ---- k-way union/intersection as a fold of the pairwise kernels ----------
//
// Models a leaf's OR over its qualifying value bitmaps and the AND of a
// multi-leaf conjunction (EvalExpr): k operands of kBits bits
// each, ~1/k density so the union stays ~63% full like a real dictionary
// column's qualifying subset.

constexpr uint64_t kKWayBits = 1 << 20;  // 1M bits per operand

std::vector<WahBitmap> MakeOperands(int64_t k) {
  std::vector<WahBitmap> ops;
  ops.reserve(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    Rng rng(900 + static_cast<uint64_t>(i));
    WahBitmap bm;
    uint64_t pos = 0;
    double density = 1.0 / static_cast<double>(k);
    while (pos < kKWayBits) {
      uint64_t gap = static_cast<uint64_t>(
          rng.Uniform(0, static_cast<int64_t>(2.0 / density)));
      pos += gap;
      if (pos >= kKWayBits) break;
      bm.AppendSetBit(pos);
      ++pos;
    }
    bm.AppendRun(false, kKWayBits - bm.size());
    ops.push_back(std::move(bm));
  }
  return ops;
}

void BM_WahOrPairwiseFold(benchmark::State& state) {
  std::vector<WahBitmap> ops = MakeOperands(state.range(0));
  for (auto _ : state) {
    WahBitmap acc;
    acc.AppendRun(false, kKWayBits);
    for (const WahBitmap& bm : ops) acc = WahOr(acc, bm);
    benchmark::DoNotOptimize(acc);
  }
}

// AND operands: complements of sparse bitmaps, so the intersection keeps
// most bits (a conjunction where every leaf passes most rows).
std::vector<WahBitmap> MakeDenseOperands(int64_t k) {
  std::vector<WahBitmap> sparse = MakeOperands(k);
  std::vector<WahBitmap> dense;
  dense.reserve(sparse.size());
  for (const WahBitmap& bm : sparse) dense.push_back(WahNot(bm));
  return dense;
}

void BM_WahAndPairwiseFold(benchmark::State& state) {
  std::vector<WahBitmap> ops = MakeDenseOperands(state.range(0));
  for (auto _ : state) {
    WahBitmap acc;
    acc.AppendRun(true, kKWayBits);
    for (const WahBitmap& bm : ops) acc = WahAnd(acc, bm);
    benchmark::DoNotOptimize(acc);
  }
}

// Clustered operands: each operand holds a few dense clusters with long
// zero fills between them — the value-bitmap shape of clustered or
// sorted columns, where the pairwise fold skips whole fills and costs
// O(k · words).
std::vector<WahBitmap> MakeClusteredOperands(int64_t k) {
  std::vector<WahBitmap> ops;
  ops.reserve(static_cast<size_t>(k));
  uint64_t cluster = kKWayBits / static_cast<uint64_t>(k) / 4;
  for (int64_t i = 0; i < k; ++i) {
    Rng rng(77 + static_cast<uint64_t>(i));
    WahBitmap bm;
    for (int c = 0; c < 4; ++c) {
      uint64_t start = static_cast<uint64_t>(
          rng.Uniform(0, static_cast<int64_t>(kKWayBits - cluster)));
      if (start < bm.size()) start = bm.size();
      if (start + cluster > kKWayBits) break;
      bm.AppendRun(false, start - bm.size());
      for (uint64_t p = 0; p < cluster; ++p) {
        bm.AppendBit(rng.Uniform(0, 2) == 0);
      }
    }
    bm.AppendRun(false, kKWayBits - bm.size());
    ops.push_back(std::move(bm));
  }
  return ops;
}

void BM_WahOrFoldClustered(benchmark::State& state) {
  std::vector<WahBitmap> ops = MakeClusteredOperands(state.range(0));
  for (auto _ : state) {
    WahBitmap acc;
    acc.AppendRun(false, kKWayBits);
    for (const WahBitmap& bm : ops) acc = WahOr(acc, bm);
    benchmark::DoNotOptimize(acc);
  }
}

void KSweep(benchmark::internal::Benchmark* b) {
  for (int64_t k : {2, 8, 32, 64}) b->Arg(k);
  b->Unit(benchmark::kMicrosecond);
}

void WideKSweep(benchmark::internal::Benchmark* b) {
  for (int64_t k : {32, 64, 128, 256}) b->Arg(k);
  b->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_WahOrPairwiseFold)->Apply(KSweep);
BENCHMARK(BM_WahAndPairwiseFold)->Apply(KSweep);
BENCHMARK(BM_WahOrFoldClustered)->Apply(WideKSweep);

void Sweep(benchmark::internal::Benchmark* b) {
  // Densities: 50%, ~6%, ~0.8%, ~0.05%.
  for (int64_t a : {0, 3, 6, 10}) b->Arg(a);
  b->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_WahAnd)->Apply(Sweep);
BENCHMARK(BM_PlainAnd)->Apply(Sweep);
BENCHMARK(BM_WahOr)->Apply(Sweep);
BENCHMARK(BM_PlainOr)->Apply(Sweep);
BENCHMARK(BM_WahCountOnes)->Apply(Sweep);
BENCHMARK(BM_WahDecompress)->Apply(Sweep);
BENCHMARK(BM_WahRecompress)->Apply(Sweep);

}  // namespace
}  // namespace cods

CODS_BENCH_MAIN("wah")
