// Logical operations on WAH-compressed bitmaps, executed directly on the
// compressed code words (no decompression). AND with a zero fill and OR
// with a one fill skip whole fills without touching the other operand's
// payload bits, which is what makes bitmap algebra on compressed columns
// cheap (Wu et al., TODS 2006).
//
// Two families of kernels live here:
//
//  * Pairwise ops (WahAnd/WahOr/...): one streaming merge of two
//    decoders, emitting fills and combined literal groups.
//
//  * Multi-operand ops (WahOrMany/WahAndMany and their *Count
//    variants): a single-pass k-way merge over one WahDecoder per
//    operand. Instead of left-folding k-1 pairwise ops — which decodes
//    and re-encodes k-1 intermediate bitmaps, O(k·n) work and k-1
//    allocations — the k-way kernel walks all operands in lockstep once
//    and appends straight into the final result:
//
//      - Annihilation: a one-fill (OR) / zero-fill (AND) on ANY operand
//        determines the output for its whole span. The kernel takes the
//        WIDEST annihilating fill in sight and gallops every other
//        decoder across it in whole-run steps (O(runs skipped), no
//        payload work).
//      - Identity fills: when every operand is sitting on an identity
//        fill (zero for OR, one for AND), the minimum span is emitted as
//        one output fill.
//      - Literal step: otherwise one 63-bit group is combined across the
//        k operands with a flat OR/AND reduction.
//
//    The *Count variants run the same merge but only accumulate
//    popcounts — selectivity estimation and validation never materialize
//    a result bitmap.
//
// The in-place WahBitmap::OrWith/AndWith members are also implemented
// here: they keep the fold-accumulator pattern O(1) in the homogeneous
// cases (empty accumulator, saturated accumulator, homogeneous operand)
// and otherwise run one streaming merge into a recycled thread-local
// buffer that is swapped in as the accumulator's new representation —
// the displaced word vector becomes the next call's buffer, so
// fold-shaped loops reach a steady state with no per-step allocation.

#ifndef CODS_BITMAP_WAH_OPS_H_
#define CODS_BITMAP_WAH_OPS_H_

#include <vector>

#include "bitmap/wah_bitmap.h"

namespace cods {

/// a AND b. Requires a.size() == b.size().
WahBitmap WahAnd(const WahBitmap& a, const WahBitmap& b);

/// a OR b. Requires a.size() == b.size().
WahBitmap WahOr(const WahBitmap& a, const WahBitmap& b);

/// a XOR b. Requires a.size() == b.size().
WahBitmap WahXor(const WahBitmap& a, const WahBitmap& b);

/// a AND NOT b. Requires a.size() == b.size().
WahBitmap WahAndNot(const WahBitmap& a, const WahBitmap& b);

/// NOT a (complement of every bit up to a.size()).
WahBitmap WahNot(const WahBitmap& a);

/// Number of set bits in a AND b, without materializing the result.
uint64_t WahAndCount(const WahBitmap& a, const WahBitmap& b);

/// True if a AND b has at least one set bit (early-exit intersection).
bool WahIntersects(const WahBitmap& a, const WahBitmap& b);

// ---- Multi-operand kernels -------------------------------------------------
//
// All operands must have size() == `size`. `size` also defines the
// result for the empty operand list: OR of nothing is all zeros, AND of
// nothing is all ones (the identities of the respective folds).

/// Union of all operands in one pass.
WahBitmap WahOrMany(const std::vector<const WahBitmap*>& operands,
                    uint64_t size);

/// Intersection of all operands in one pass.
WahBitmap WahAndMany(const std::vector<const WahBitmap*>& operands,
                     uint64_t size);

/// Number of set bits of the union, never materializing it.
uint64_t WahOrManyCount(const std::vector<const WahBitmap*>& operands,
                        uint64_t size);

/// Number of set bits of the intersection, never materializing it.
uint64_t WahAndManyCount(const std::vector<const WahBitmap*>& operands,
                         uint64_t size);

}  // namespace cods

#endif  // CODS_BITMAP_WAH_OPS_H_
