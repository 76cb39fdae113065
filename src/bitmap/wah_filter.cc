#include "bitmap/wah_filter.h"

#include <bit>

#include "bitmap/popcount.h"

namespace cods {

WahBitmap WahFilterPositions(const WahBitmap& src,
                             const std::vector<uint64_t>& positions) {
  WahBitmap out;
  if (positions.empty()) return out;
  CODS_CHECK(positions.back() < src.size())
      << "position list reaches past the bitmap (" << positions.back()
      << " >= " << src.size() << ")";
  WahDecoder dec(src);
  uint64_t offset = 0;  // bit offset of the current run within src
  size_t i = 0;
  const size_t n = positions.size();
  while (i < n && !dec.exhausted()) {
    if (dec.is_fill()) {
      uint64_t groups = dec.remaining_groups();
      uint64_t span = groups * kWahGroupBits;
      uint64_t end = offset + span;
      size_t j = i;
      while (j < n && positions[j] < end) ++j;
      if (j > i) {
        out.AppendRun(dec.fill_value(), j - i);
        i = j;
      }
      dec.Consume(groups);
      offset = end;
    } else {
      uint64_t payload = dec.group_payload();
      uint64_t end = offset + kWahGroupBits;
      while (i < n && positions[i] < end) {
        CODS_DCHECK(positions[i] >= offset);
        out.AppendBit((payload >> (positions[i] - offset)) & 1);
        ++i;
      }
      dec.Consume(1);
      offset = end;
    }
  }
  CODS_CHECK(i == n) << "position list reaches past the bitmap ("
                     << positions.back() << " >= " << src.size() << ")";
  return out;
}

WahPositionFilter::WahPositionFilter(const std::vector<uint64_t>& positions,
                                     uint64_t domain)
    : domain_(domain),
      num_positions_(positions.size()),
      member_words_((domain + 63) / 64, 0),
      rank_prefix_((domain + 63) / 64 + 1, 0) {
  for (size_t i = 0; i < positions.size(); ++i) {
    uint64_t pos = positions[i];
    CODS_CHECK(pos < domain) << "position " << pos << " outside domain "
                             << domain;
    if (i > 0) {
      CODS_DCHECK(positions[i - 1] < pos);
    }
    member_words_[pos / 64] |= uint64_t{1} << (pos % 64);
  }
  const uint64_t running = DispatchPopcount([&] {
    uint64_t ones = 0;
    for (size_t w = 0; w < member_words_.size(); ++w) {
      rank_prefix_[w] = ones;
      ones += Popcount(member_words_[w]);
    }
    return ones;
  });
  rank_prefix_[member_words_.size()] = running;
  CODS_CHECK(running == num_positions_);
}

bool WahPositionFilter::Contains(uint64_t pos) const {
  CODS_DCHECK(pos < domain_);
  return (member_words_[pos / 64] >> (pos % 64)) & 1;
}

uint64_t WahPositionFilter::Rank(uint64_t pos) const {
  CODS_DCHECK(Contains(pos));
  uint64_t word = member_words_[pos / 64] & ((uint64_t{1} << (pos % 64)) - 1);
  return rank_prefix_[pos / 64] +
         static_cast<uint64_t>(std::popcount(word));
}

WahBitmap WahPositionFilter::Filter(const WahBitmap& src) const {
  CODS_CHECK(src.size() == domain_)
      << "filter domain " << domain_ << " != bitmap size " << src.size();
  WahBitmap out;
  WahSetBitIterator it(src);
  uint64_t pos;
  while (it.Next(&pos)) {
    if (Contains(pos)) {
      out.AppendSetBit(Rank(pos));
    }
  }
  out.AppendRun(false, num_positions_ - out.size());
  return out;
}

WahBitmap WahGatherPositions(const WahBitmap& src,
                             const std::vector<uint64_t>& take) {
  WahBitmap out;
  // Process maximal sorted runs of `take` with the streaming filter; a
  // fully sorted input degenerates to one WahFilterPositions call.
  size_t start = 0;
  while (start < take.size()) {
    size_t end = start + 1;
    while (end < take.size() && take[end] > take[end - 1]) ++end;
    std::vector<uint64_t> chunk(take.begin() + static_cast<ptrdiff_t>(start),
                                take.begin() + static_cast<ptrdiff_t>(end));
    WahBitmap part = WahFilterPositions(src, chunk);
    out.Concat(part);
    start = end;
  }
  return out;
}

}  // namespace cods
