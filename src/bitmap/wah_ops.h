// Logical operations on WAH-compressed bitmaps, executed directly on the
// compressed code words (no decompression). AND with a zero fill and OR
// with a one fill skip whole fills without touching the other operand's
// payload bits, which is what makes bitmap algebra on compressed columns
// cheap (Wu et al., TODS 2006).
//
// One family of kernels lives here: pairwise ops, each one streaming
// merge of two decoders that emits fills and combined literal groups.
// They serve the codec's WAH-WAH pairs (bitmap/codec.h); k-way unions
// and intersections are the codec's CodecOrMany / CodecAndMany.

#ifndef CODS_BITMAP_WAH_OPS_H_
#define CODS_BITMAP_WAH_OPS_H_

#include "bitmap/wah_bitmap.h"

namespace cods {

/// a AND b. Requires a.size() == b.size().
WahBitmap WahAnd(const WahBitmap& a, const WahBitmap& b);

/// a OR b. Requires a.size() == b.size().
WahBitmap WahOr(const WahBitmap& a, const WahBitmap& b);

/// NOT a (complement of every bit up to a.size()).
WahBitmap WahNot(const WahBitmap& a);

/// Number of set bits in a AND b, without materializing the result.
uint64_t WahAndCount(const WahBitmap& a, const WahBitmap& b);

}  // namespace cods

#endif  // CODS_BITMAP_WAH_OPS_H_
