// Uncompressed bitmap used (a) as a correctness oracle in tests and
// (b) as the baseline in the compression ablation benchmark (A1 in
// DESIGN.md): what column operations cost when bitmaps are stored verbatim.

#ifndef CODS_BITMAP_PLAIN_BITMAP_H_
#define CODS_BITMAP_PLAIN_BITMAP_H_

#include <cstdint>
#include <vector>

#include "bitmap/wah_bitmap.h"

namespace cods {

/// Fixed-size flat bitmap backed by a uint64_t array.
class PlainBitmap {
 public:
  PlainBitmap() = default;
  /// All-zero bitmap of `size` bits.
  explicit PlainBitmap(uint64_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  /// Converts from a WAH bitmap (decompression).
  static PlainBitmap FromWah(const WahBitmap& wah);

  uint64_t size() const { return size_; }

  void Set(uint64_t pos);
  void Clear(uint64_t pos);
  bool Get(uint64_t pos) const;

  uint64_t CountOnes() const;

  /// Bytes of backing storage (for compression-ratio reporting).
  uint64_t SizeBytes() const { return words_.size() * sizeof(uint64_t); }

  /// Converts to WAH (compression).
  WahBitmap ToWah() const;

  /// Word-wise logical ops; sizes must match.
  PlainBitmap And(const PlainBitmap& other) const;
  PlainBitmap Or(const PlainBitmap& other) const;

  const std::vector<uint64_t>& words() const { return words_; }

 private:
  uint64_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace cods

#endif  // CODS_BITMAP_PLAIN_BITMAP_H_
