// Hardware popcount through runtime CPU dispatch.
//
// The library builds for the baseline ISA (no -march), where x86-64 has
// no POPCNT: std::popcount lowers to one libgcc `__popcountdi2` call per
// word. Every kernel whose loop popcounts therefore runs as one of two
// instances of the same body:
//
//   * the POPCNT instance — the body inlined (`flatten`) into a function
//     compiled with `target("popcnt")`, so every std::popcount in its
//     call tree, including the inlined WahDecoder walk, is one
//     instruction;
//   * the portable instance — the body as the baseline build compiles it.
//
// DispatchPopcount picks between them with one process-wide CPU check,
// once per kernel call, never once per word. Both instances compute the
// same integers, so results do not depend on the CPU. Non-x86 builds
// compile only the portable instance.
//
// A kernel is written as a lambda over its whole loop:
//
//   return DispatchPopcount([&] { return CountWords(words, n); });

#ifndef CODS_BITMAP_POPCOUNT_H_
#define CODS_BITMAP_POPCOUNT_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define CODS_POPCNT_DISPATCH 1
#else
#define CODS_POPCNT_DISPATCH 0
#endif

namespace cods {

/// True when the CPU executes POPCNT. Checked once per process; always
/// false on builds without the POPCNT instance.
bool CpuHasPopcnt();

#if CODS_POPCNT_DISPATCH
/// The POPCNT instance of `kernel`: its whole call tree inlined into a
/// function compiled for POPCNT. Call only when CpuHasPopcnt().
template <typename Kernel>
[[gnu::target("popcnt"), gnu::flatten]] auto RunPopcnt(const Kernel& kernel) {
  return kernel();
}
#endif

/// Runs `kernel` as its POPCNT instance when the CPU has the
/// instruction, else as its portable instance.
template <typename Kernel>
auto DispatchPopcount(const Kernel& kernel) {
#if CODS_POPCNT_DISPATCH
  if (CpuHasPopcnt()) return RunPopcnt(kernel);
#endif
  return kernel();
}

// ---- Word loops the kernels compose -----------------------------------
//
// Plain inline loops; which instruction their popcounts become depends
// on the instance they are inlined into.

inline uint64_t Popcount(uint64_t word) {
  return static_cast<uint64_t>(std::popcount(word));
}

/// Set bits of words[0, n).
inline uint64_t CountWords(const uint64_t* words, size_t n) {
  uint64_t ones = 0;
  for (size_t i = 0; i < n; ++i) ones += Popcount(words[i]);
  return ones;
}

/// |a & b| over words[0, n) of each.
inline uint64_t CountAndWords(const uint64_t* a, const uint64_t* b,
                              size_t n) {
  uint64_t ones = 0;
  for (size_t i = 0; i < n; ++i) ones += Popcount(a[i] & b[i]);
  return ones;
}

/// Set bits of the dense bit range [start, end).
inline uint64_t CountRange(const uint64_t* words, uint64_t start,
                           uint64_t end) {
  if (start >= end) return 0;
  const size_t qs = start >> 6, qe = (end - 1) >> 6;
  const uint64_t first = ~uint64_t{0} << (start & 63);
  const uint64_t last = ~uint64_t{0} >> (63 - ((end - 1) & 63));
  if (qs == qe) return Popcount(words[qs] & first & last);
  return Popcount(words[qs] & first) +
         CountWords(words + qs + 1, qe - qs - 1) +
         Popcount(words[qe] & last);
}

}  // namespace cods

#endif  // CODS_BITMAP_POPCOUNT_H_
