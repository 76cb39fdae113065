// A row → vid map packed at a fixed bit width. A column with d distinct
// values needs bit_width(d − 1) bits per row (0 when d ≤ 1), so the map of
// a 1M-row column with 1000 values takes 10 bits per row, 1.25 MB, where a
// plain vid array would take 4 MB. Entry i occupies bits [i·w, (i+1)·w)
// of a little-endian word array.

#ifndef CODS_STORAGE_PACKED_VIDS_H_
#define CODS_STORAGE_PACKED_VIDS_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "storage/dictionary.h"

namespace cods {

class PackedVids {
 public:
  /// The width that holds every vid below `distinct`: bit_width(distinct
  /// − 1), 0 for distinct ≤ 1, at most 32.
  static unsigned WidthFor(uint64_t distinct) {
    return distinct <= 1
               ? 0
               : static_cast<unsigned>(std::bit_width(distinct - 1));
  }

  /// An empty map (zero entries).
  PackedVids() = default;

  /// `size` entries of `width` bits, all zero.
  PackedVids(uint64_t size, unsigned width)
      : words_((size * width + 63) / 64, 0),
        size_(size),
        width_(width),
        mask_(width == 0 ? 0 : ~uint64_t{0} >> (64 - width)) {
    CODS_CHECK(width <= 32) << "vid width " << width;
  }

  uint64_t size() const { return size_; }
  unsigned width() const { return width_; }
  /// Heap bytes held by the packed words.
  uint64_t SizeBytes() const { return words_.size() * sizeof(uint64_t); }

  /// Entry i. O(1): one or two word reads.
  Vid operator[](uint64_t i) const {
    CODS_DCHECK(i < size_);
    if (width_ == 0) return 0;
    const uint64_t bit = i * width_;
    const uint64_t w = bit >> 6;
    const unsigned off = static_cast<unsigned>(bit & 63);
    uint64_t v = words_[w] >> off;
    if (off + width_ > 64) v |= words_[w + 1] << (64 - off);
    return static_cast<Vid>(v & mask_);
  }

  /// Sets entry i, which must still be zero, to `vid` (< 2^width).
  void Set(uint64_t i, Vid vid) {
    CODS_DCHECK(i < size_ && (vid & ~mask_) == 0 && (*this)[i] == 0);
    if (width_ == 0) return;
    const uint64_t bit = i * width_;
    const uint64_t w = bit >> 6;
    const unsigned off = static_cast<unsigned>(bit & 63);
    words_[w] |= uint64_t{vid} << off;
    if (off + width_ > 64) words_[w + 1] |= uint64_t{vid} >> (64 - off);
  }

 private:
  std::vector<uint64_t> words_;
  uint64_t size_ = 0;
  unsigned width_ = 0;
  uint64_t mask_ = 0;
};

}  // namespace cods

#endif  // CODS_STORAGE_PACKED_VIDS_H_
