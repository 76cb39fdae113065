#include "bitmap/plain_bitmap.h"

#include <bit>

namespace cods {

PlainBitmap PlainBitmap::FromWah(const WahBitmap& wah) {
  PlainBitmap out(wah.size());
  WahSetBitIterator it(wah);
  uint64_t pos;
  while (it.Next(&pos)) out.Set(pos);
  return out;
}

void PlainBitmap::Set(uint64_t pos) {
  CODS_DCHECK(pos < size_);
  words_[pos / 64] |= uint64_t{1} << (pos % 64);
}

void PlainBitmap::Clear(uint64_t pos) {
  CODS_DCHECK(pos < size_);
  words_[pos / 64] &= ~(uint64_t{1} << (pos % 64));
}

bool PlainBitmap::Get(uint64_t pos) const {
  CODS_DCHECK(pos < size_);
  return (words_[pos / 64] >> (pos % 64)) & 1;
}

uint64_t PlainBitmap::CountOnes() const {
  uint64_t ones = 0;
  for (uint64_t w : words_) ones += static_cast<uint64_t>(std::popcount(w));
  return ones;
}

WahBitmap PlainBitmap::ToWah() const {
  WahBitmap out;
  for (uint64_t pos = 0; pos < size_;) {
    uint64_t word = words_[pos / 64];
    uint64_t in_word = pos % 64;
    bool bit = (word >> in_word) & 1;
    uint64_t x = (bit ? ~word : word) >> in_word;
    uint64_t run = x == 0 ? 64 - in_word
                          : static_cast<uint64_t>(std::countr_zero(x));
    if (pos + run > size_) run = size_ - pos;
    out.AppendRun(bit, run);
    pos += run;
  }
  return out;
}

PlainBitmap PlainBitmap::And(const PlainBitmap& other) const {
  CODS_CHECK(size_ == other.size_);
  PlainBitmap out(size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    out.words_[i] = words_[i] & other.words_[i];
  }
  return out;
}

PlainBitmap PlainBitmap::Or(const PlainBitmap& other) const {
  CODS_CHECK(size_ == other.size_);
  PlainBitmap out(size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    out.words_[i] = words_[i] | other.words_[i];
  }
  return out;
}

}  // namespace cods
