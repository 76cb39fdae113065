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

// ---- k-way union/intersection: single-pass kernel vs pairwise fold ---------
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

std::vector<const WahBitmap*> Ptrs(const std::vector<WahBitmap>& ops) {
  std::vector<const WahBitmap*> ptrs;
  for (const WahBitmap& bm : ops) ptrs.push_back(&bm);
  return ptrs;
}

void BM_WahOrMany(benchmark::State& state) {
  std::vector<WahBitmap> ops = MakeOperands(state.range(0));
  std::vector<const WahBitmap*> ptrs = Ptrs(ops);
  for (auto _ : state) {
    WahBitmap u = WahOrMany(ptrs, kKWayBits);
    benchmark::DoNotOptimize(u);
  }
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

// Fold with the in-place accumulator: each step merges into a recycled
// buffer and swaps, so the steady state allocates nothing per step —
// contrast with BM_WahOrPairwiseFold, which materializes (and frees) a
// fresh bitmap per operand. This is the shape of callers that cannot
// batch into WahOrMany (operands arrive one at a time).
void BM_WahOrWithFold(benchmark::State& state) {
  std::vector<WahBitmap> ops = MakeOperands(state.range(0));
  for (auto _ : state) {
    WahBitmap acc;
    acc.AppendRun(false, kKWayBits);
    for (const WahBitmap& bm : ops) acc.OrWith(bm);
    benchmark::DoNotOptimize(acc);
  }
}

void BM_WahOrManyCount(benchmark::State& state) {
  std::vector<WahBitmap> ops = MakeOperands(state.range(0));
  std::vector<const WahBitmap*> ptrs = Ptrs(ops);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WahOrManyCount(ptrs, kKWayBits));
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

void BM_WahAndMany(benchmark::State& state) {
  std::vector<WahBitmap> ops = MakeDenseOperands(state.range(0));
  std::vector<const WahBitmap*> ptrs = Ptrs(ops);
  for (auto _ : state) {
    WahBitmap m = WahAndMany(ptrs, kKWayBits);
    benchmark::DoNotOptimize(m);
  }
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

void BM_WahAndWithFold(benchmark::State& state) {
  std::vector<WahBitmap> ops = MakeDenseOperands(state.range(0));
  for (auto _ : state) {
    WahBitmap acc;
    acc.AppendRun(true, kKWayBits);
    for (const WahBitmap& bm : ops) acc.AndWith(bm);
    benchmark::DoNotOptimize(acc);
  }
}

// Clustered operands: each operand holds a few dense clusters with long
// zero fills between them — the value-bitmap shape of clustered or
// sorted columns. This is the regime the k-way kernel's heap/active-list
// merge targets: per output group it touches only the operands whose
// current run ends there, so the cost is nearly flat in k while the
// pairwise fold stays O(k · words).
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

void BM_WahOrManyClustered(benchmark::State& state) {
  std::vector<WahBitmap> ops = MakeClusteredOperands(state.range(0));
  std::vector<const WahBitmap*> ptrs = Ptrs(ops);
  for (auto _ : state) {
    WahBitmap u = WahOrMany(ptrs, kKWayBits);
    benchmark::DoNotOptimize(u);
  }
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

// Uniformly-scattered operands: short literal runs of 1–3 groups with
// comparably short zero fills between them, independent of k. In this
// shape nearly every operand is in the merge's active list for nearly
// every output group, so the event-driven merge has no fills to gallop
// over and pays O(k) per group, going memory-bound past k ≈ 32 — the
// regime the cache-blocked operand-grouping path targets (each operand
// deposits into a 4 KB L1-resident accumulator block instead).
std::vector<WahBitmap> MakeScatteredOperands(int64_t k) {
  std::vector<WahBitmap> ops;
  ops.reserve(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    Rng rng(4200 + static_cast<uint64_t>(i));
    WahBitmap bm;
    while (bm.size() < kKWayBits) {
      uint64_t lit_groups = static_cast<uint64_t>(rng.Uniform(1, 4));
      for (uint64_t g = 0; g < lit_groups && bm.size() < kKWayBits; ++g) {
        // A sparse literal group: a handful of set bits so the group is
        // neither all-zero nor all-one.
        uint64_t payload = 0;
        for (int s = 0; s < 3; ++s) {
          payload |= uint64_t{1} << rng.Uniform(0, 63);
        }
        uint64_t nbits = std::min<uint64_t>(63, kKWayBits - bm.size());
        bm.AppendBits(payload, nbits);
      }
      uint64_t fill_groups = static_cast<uint64_t>(rng.Uniform(1, 4));
      uint64_t nbits =
          std::min<uint64_t>(fill_groups * 63, kKWayBits - bm.size());
      bm.AppendRun(false, nbits);
    }
    ops.push_back(std::move(bm));
  }
  return ops;
}

void BM_WahOrManyScattered(benchmark::State& state) {
  std::vector<WahBitmap> ops = MakeScatteredOperands(state.range(0));
  std::vector<const WahBitmap*> ptrs = Ptrs(ops);
  for (auto _ : state) {
    WahBitmap u = WahOrMany(ptrs, kKWayBits);
    benchmark::DoNotOptimize(u);
  }
}

void BM_WahOrManyCountScattered(benchmark::State& state) {
  std::vector<WahBitmap> ops = MakeScatteredOperands(state.range(0));
  std::vector<const WahBitmap*> ptrs = Ptrs(ops);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WahOrManyCount(ptrs, kKWayBits));
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

BENCHMARK(BM_WahOrMany)->Apply(KSweep);
BENCHMARK(BM_WahOrPairwiseFold)->Apply(KSweep);
BENCHMARK(BM_WahOrWithFold)->Apply(KSweep);
BENCHMARK(BM_WahOrManyCount)->Apply(KSweep);
BENCHMARK(BM_WahAndMany)->Apply(KSweep);
BENCHMARK(BM_WahAndPairwiseFold)->Apply(KSweep);
BENCHMARK(BM_WahAndWithFold)->Apply(KSweep);
BENCHMARK(BM_WahOrManyClustered)->Apply(WideKSweep);
BENCHMARK(BM_WahOrFoldClustered)->Apply(WideKSweep);
BENCHMARK(BM_WahOrManyScattered)->Apply(WideKSweep);
BENCHMARK(BM_WahOrManyCountScattered)->Apply(WideKSweep);

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
