#include "bitmap/wah_bitmap.h"

#include <bit>
#include <sstream>

#include "common/result.h"

namespace cods {

namespace {
// Mask with the low `n` bits set (n <= 63).
inline uint64_t LowBits(uint64_t n) {
  return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}
}  // namespace

WahBitmap WahBitmap::FromPositions(const std::vector<uint64_t>& set_positions,
                                   uint64_t size) {
  WahBitmap bm;
  for (uint64_t pos : set_positions) {
    CODS_DCHECK(pos < size);
    bm.AppendSetBit(pos);
  }
  CODS_DCHECK(bm.num_bits_ <= size);
  bm.AppendRun(false, size - bm.num_bits_);
  return bm;
}

WahBitmap WahBitmap::FromBools(const std::vector<bool>& bits) {
  WahBitmap bm;
  for (bool b : bits) bm.AppendBit(b);
  return bm;
}

Result<WahBitmap> WahBitmap::FromRawParts(std::vector<uint64_t> words,
                                          uint64_t tail, uint64_t tail_bits,
                                          uint64_t num_bits) {
  if (tail_bits >= kWahGroupBits) {
    return Status::Corruption("WAH tail with " + std::to_string(tail_bits) +
                              " bits (max 62)");
  }
  if (tail_bits < 64 && (tail >> tail_bits) != 0) {
    return Status::Corruption("WAH tail has bits beyond its length");
  }
  if (tail_bits > num_bits) {
    return Status::Corruption("WAH tail longer than the bitmap");
  }
  // Every word is checked against the bits the header has left before it
  // is added, so no claimed length (and no popcount below) can wrap. The
  // first test bounds groups * kWahGroupBits by word_bits.
  const uint64_t word_bits = num_bits - tail_bits;
  const uint64_t max_groups = word_bits / kWahGroupBits;
  uint64_t bits = 0;
  for (uint64_t w : words) {
    uint64_t groups = 1;
    if (wah::IsFill(w)) {
      groups = wah::FillGroups(w);
      if (groups == 0) return Status::Corruption("zero-length WAH fill");
    }
    if (groups > max_groups || groups * kWahGroupBits > word_bits - bits) {
      return Status::Corruption("WAH word stream covers more than the " +
                                std::to_string(num_bits) +
                                " bits its header claims");
    }
    bits += groups * kWahGroupBits;
  }
  if (bits != word_bits) {
    return Status::Corruption(
        "WAH word stream covers " + std::to_string(bits + tail_bits) +
        " bits but header claims " + std::to_string(num_bits));
  }
  WahBitmap bm;
  bm.words_ = std::move(words);
  bm.tail_ = tail;
  bm.tail_bits_ = tail_bits;
  bm.num_bits_ = num_bits;
  // The one place the cached popcount is computed rather than maintained:
  // raw words arrive without a count.
  uint64_t ones = 0;
  for (uint64_t w : bm.words_) {
    if (wah::IsFill(w)) {
      if (wah::FillValue(w)) ones += wah::FillGroups(w) * kWahGroupBits;
    } else {
      ones += static_cast<uint64_t>(std::popcount(wah::Literal(w)));
    }
  }
  ones += static_cast<uint64_t>(std::popcount(bm.tail_));
  bm.ones_ = ones;
  return bm;
}

void WahBitmap::FlushTailGroup() {
  CODS_DCHECK(tail_bits_ == kWahGroupBits);
  if (tail_ == 0) {
    AppendFillGroups(false, 1);
  } else if (tail_ == wah::kPayloadMask) {
    AppendFillGroups(true, 1);
  } else {
    words_.push_back(tail_);
  }
  tail_ = 0;
  tail_bits_ = 0;
}

void WahBitmap::AppendFillGroups(bool value, uint64_t groups) {
  if (groups == 0) return;
  if (!words_.empty() && wah::IsFill(words_.back()) &&
      wah::FillValue(words_.back()) == value) {
    words_.back() += groups;  // count is in the low bits; cannot overflow
                              // in practice (2^62 groups)
    return;
  }
  words_.push_back(wah::MakeFill(value, groups));
}

void WahBitmap::AppendBit(bool value) {
  if (value) {
    tail_ |= uint64_t{1} << tail_bits_;
    ++ones_;
  }
  ++tail_bits_;
  ++num_bits_;
  if (tail_bits_ == kWahGroupBits) FlushTailGroup();
}

void WahBitmap::AppendRun(bool value, uint64_t count) {
  if (value) ones_ += count;
  while (count > 0) {
    if (tail_bits_ == 0 && count >= kWahGroupBits) {
      uint64_t groups = count / kWahGroupBits;
      AppendFillGroups(value, groups);
      uint64_t bits = groups * kWahGroupBits;
      num_bits_ += bits;
      count -= bits;
      continue;
    }
    uint64_t take = kWahGroupBits - tail_bits_;
    if (take > count) take = count;
    if (value) tail_ |= LowBits(take) << tail_bits_;
    tail_bits_ += take;
    num_bits_ += take;
    count -= take;
    if (tail_bits_ == kWahGroupBits) FlushTailGroup();
  }
}

void WahBitmap::AppendSetBit(uint64_t pos) {
  CODS_DCHECK(pos >= num_bits_);
  AppendRun(false, pos - num_bits_);
  AppendBit(true);
}

void WahBitmap::AppendGroup(uint64_t payload) {
  CODS_DCHECK(tail_bits_ == 0);
  payload &= wah::kPayloadMask;
  ones_ += static_cast<uint64_t>(std::popcount(payload));
  if (payload == 0) {
    AppendFillGroups(false, 1);
  } else if (payload == wah::kPayloadMask) {
    AppendFillGroups(true, 1);
  } else {
    words_.push_back(payload);
  }
  num_bits_ += kWahGroupBits;
}

void WahBitmap::AppendBits(uint64_t payload, uint64_t nbits) {
  CODS_DCHECK(nbits <= kWahGroupBits);
  if (nbits == 0) return;
  payload &= LowBits(nbits);
  ones_ += static_cast<uint64_t>(std::popcount(payload));
  uint64_t space = kWahGroupBits - tail_bits_;
  if (nbits < space) {
    tail_ |= payload << tail_bits_;
    tail_bits_ += nbits;
    num_bits_ += nbits;
    return;
  }
  // Complete the current group, flush it, and carry the remainder.
  tail_ |= (payload << tail_bits_) & wah::kPayloadMask;
  tail_bits_ = kWahGroupBits;
  num_bits_ += space;
  FlushTailGroup();
  uint64_t rest = nbits - space;
  if (rest > 0) {
    tail_ = payload >> space;
    tail_bits_ = rest;
    num_bits_ += rest;
  }
}

void WahBitmap::Concat(const WahBitmap& other) {
  if (other.num_bits_ == 0) return;
  if (&other == this) {
    // Self-concat would mutate the source mid-decode; copy first.
    WahBitmap copy = other;
    Concat(copy);
    return;
  }
  if (tail_bits_ == 0) {
    // Group-aligned: splice other's code words directly, merging the fill
    // at the boundary. AppendGroup re-canonicalizes homogeneous literals
    // from non-canonical producers (FromRawParts).
    Reserve(words_.size() + other.words_.size());
    for (uint64_t w : other.words_) {
      if (wah::IsFill(w)) {
        uint64_t groups = wah::FillGroups(w);
        AppendFillGroups(wah::FillValue(w), groups);
        num_bits_ += groups * kWahGroupBits;
        if (wah::FillValue(w)) ones_ += groups * kWahGroupBits;
      } else {
        AppendGroup(w);
      }
    }
    tail_ = other.tail_;
    tail_bits_ = other.tail_bits_;
    num_bits_ += other.tail_bits_;
    ones_ += static_cast<uint64_t>(std::popcount(other.tail_));
    return;
  }
  // Unaligned: stream other's runs, shifting literal groups in whole.
  Reserve(words_.size() + other.words_.size());
  uint64_t bits_left = other.num_bits_;
  WahDecoder dec(other);
  while (bits_left > 0) {
    CODS_DCHECK(!dec.exhausted());
    if (dec.is_fill()) {
      uint64_t groups = dec.remaining_groups();
      uint64_t bits = groups * kWahGroupBits;
      CODS_DCHECK(bits <= bits_left);
      AppendRun(dec.fill_value(), bits);
      dec.Consume(groups);
      bits_left -= bits;
    } else {
      uint64_t bits = bits_left < kWahGroupBits ? bits_left : kWahGroupBits;
      AppendBits(dec.group_payload(), bits);
      dec.Consume(1);
      bits_left -= bits;
    }
  }
}

bool WahBitmap::Get(uint64_t pos) const {
  CODS_DCHECK(pos < num_bits_);
  uint64_t offset = 0;
  for (uint64_t w : words_) {
    uint64_t span = wah::IsFill(w) ? wah::FillGroups(w) * kWahGroupBits
                                   : kWahGroupBits;
    if (pos < offset + span) {
      if (wah::IsFill(w)) return wah::FillValue(w);
      return (wah::Literal(w) >> (pos - offset)) & 1;
    }
    offset += span;
  }
  CODS_DCHECK(pos - offset < tail_bits_);
  return (tail_ >> (pos - offset)) & 1;
}

uint64_t WahBitmap::FirstSetBit() const {
  uint64_t offset = 0;
  for (uint64_t w : words_) {
    if (wah::IsFill(w)) {
      uint64_t span = wah::FillGroups(w) * kWahGroupBits;
      if (wah::FillValue(w)) return offset;
      offset += span;
    } else {
      uint64_t payload = wah::Literal(w);
      if (payload != 0) {
        return offset + static_cast<uint64_t>(std::countr_zero(payload));
      }
      offset += kWahGroupBits;
    }
  }
  if (tail_ != 0) {
    return offset + static_cast<uint64_t>(std::countr_zero(tail_));
  }
  return num_bits_;
}

std::string WahBitmap::ToString() const {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < words_.size(); ++i) {
    if (i > 0) out << "|";
    uint64_t w = words_[i];
    if (wah::IsFill(w)) {
      out << "F" << (wah::FillValue(w) ? 1 : 0) << "x" << wah::FillGroups(w);
    } else {
      out << "L:" << std::popcount(wah::Literal(w)) << "ones";
    }
  }
  out << "]";
  if (tail_bits_ > 0) {
    out << " tail=" << std::popcount(tail_) << "/" << tail_bits_;
  }
  out << " (" << num_bits_ << " bits)";
  return out.str();
}

std::vector<bool> WahBitmap::ToBools() const {
  std::vector<bool> out(num_bits_, false);
  WahSetBitIterator it(*this);
  uint64_t pos;
  while (it.Next(&pos)) out[pos] = true;
  return out;
}

std::vector<uint64_t> WahBitmap::SetPositions() const {
  std::vector<uint64_t> out;
  out.reserve(CountOnes());
  WahSetBitIterator it(*this);
  uint64_t pos;
  while (it.Next(&pos)) out.push_back(pos);
  return out;
}

// ---- WahSetBitIterator ----------------------------------------------------

WahSetBitIterator::WahSetBitIterator(const WahBitmap& bm)
    : decoder_(bm), logical_size_(bm.size()) {}

bool WahSetBitIterator::Next(uint64_t* pos) {
  while (pending_ == 0) {
    if (decoder_.exhausted()) return false;
    if (decoder_.is_fill() && !decoder_.fill_value()) {
      uint64_t groups = decoder_.remaining_groups();
      group_start_ += groups * kWahGroupBits;
      decoder_.Consume(groups);
    } else {
      pending_ = decoder_.group_payload();
      group_start_ += kWahGroupBits;
      decoder_.Consume(1);
    }
  }
  uint64_t bit = static_cast<uint64_t>(std::countr_zero(pending_));
  pending_ &= pending_ - 1;
  *pos = group_start_ - kWahGroupBits + bit;
  CODS_DCHECK(*pos < logical_size_);
  return true;
}

// ---- WahRunIterator -------------------------------------------------------

WahRunIterator::WahRunIterator(const WahBitmap& bm)
    : decoder_(bm), logical_size_(bm.size()) {}

bool WahRunIterator::NextPrimitive(bool* value, uint64_t* length) {
  while (true) {
    if (group_bits_left_ > 0) {
      bool bit = group_ & 1;
      uint64_t x = bit ? ~group_ : group_;
      uint64_t run = x == 0 ? 64 : static_cast<uint64_t>(std::countr_zero(x));
      if (run > group_bits_left_) run = group_bits_left_;
      group_ >>= run;
      group_bits_left_ -= run;
      *value = bit;
      *length = run;
      return true;
    }
    if (decoder_.exhausted()) return false;
    if (decoder_.is_fill()) {
      uint64_t groups = decoder_.remaining_groups();
      *value = decoder_.fill_value();
      *length = groups * kWahGroupBits;
      decoder_.Consume(groups);
      emitted_or_buffered_ += *length;
      return true;
    }
    group_ = decoder_.group_payload();
    uint64_t remaining_bits = logical_size_ - emitted_or_buffered_;
    group_bits_left_ =
        remaining_bits < kWahGroupBits ? remaining_bits : kWahGroupBits;
    emitted_or_buffered_ += group_bits_left_;
    decoder_.Consume(1);
    if (group_bits_left_ == 0) {
      // Logical size is an exact multiple of the group size and this was
      // a phantom empty tail; keep looking.
      continue;
    }
  }
}

bool WahRunIterator::Next(Run* run) {
  if (!have_carry_) {
    if (!NextPrimitive(&carry_value_, &carry_length_)) return false;
    have_carry_ = true;
  }
  bool v;
  uint64_t l;
  while (NextPrimitive(&v, &l)) {
    if (v == carry_value_) {
      carry_length_ += l;
    } else {
      run->value = carry_value_;
      run->start = pos_;
      run->length = carry_length_;
      pos_ += carry_length_;
      carry_value_ = v;
      carry_length_ = l;
      return true;
    }
  }
  run->value = carry_value_;
  run->start = pos_;
  run->length = carry_length_;
  pos_ += carry_length_;
  have_carry_ = false;
  return true;
}

}  // namespace cods
