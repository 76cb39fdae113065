#include "bitmap/codec.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <sstream>

#include "bitmap/popcount.h"
#include "bitmap/wah_filter.h"
#include "bitmap/wah_ops.h"

namespace cods {

namespace {

inline uint64_t LowBits(uint64_t n) {
  return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

inline uint64_t DenseWordCount(uint64_t size) { return (size + 63) / 64; }

// 63-bit group window helpers over a dense word array. A WAH group at
// index g occupies bits [63g, 63g + 63) and straddles at most two words.

inline uint64_t Extract63(const uint64_t* words, size_t nwords,
                          uint64_t bit_off) {
  size_t q = bit_off >> 6;
  unsigned r = bit_off & 63;
  if (q >= nwords) return 0;
  uint64_t lo = words[q] >> r;
  if (r != 0 && q + 1 < nwords) lo |= words[q + 1] << (64 - r);
  return lo & wah::kPayloadMask;
}

inline void Deposit63(uint64_t* words, size_t nwords, uint64_t bit_off,
                      uint64_t payload) {
  size_t q = bit_off >> 6;
  unsigned r = bit_off & 63;
  words[q] |= payload << r;
  if (r != 0 && q + 1 < nwords) words[q + 1] |= payload >> (64 - r);
}

// Clears, within the 63-bit window at bit_off, the bits that are zero in
// `payload` (dense &= literal group).
inline void MaskGroup63(uint64_t* words, size_t nwords, uint64_t bit_off,
                        uint64_t payload) {
  uint64_t inv = (~payload) & wah::kPayloadMask;
  size_t q = bit_off >> 6;
  unsigned r = bit_off & 63;
  words[q] &= ~(inv << r);
  if (r != 0 && q + 1 < nwords) words[q + 1] &= ~(inv >> (64 - r));
}

// Sets the dense bits in [start, end).
void FillRange(uint64_t* words, uint64_t start, uint64_t end) {
  if (start >= end) return;
  size_t qs = start >> 6, qe = (end - 1) >> 6;
  uint64_t first = ~uint64_t{0} << (start & 63);
  uint64_t last = LowBits(((end - 1) & 63) + 1);
  if (qs == qe) {
    words[qs] |= first & last;
    return;
  }
  words[qs] |= first;
  for (size_t q = qs + 1; q < qe; ++q) words[q] = ~uint64_t{0};
  words[qe] |= last;
}

// Clears the dense bits in [start, end).
void ZeroRange(uint64_t* words, uint64_t start, uint64_t end) {
  if (start >= end) return;
  size_t qs = start >> 6, qe = (end - 1) >> 6;
  uint64_t first = ~uint64_t{0} << (start & 63);
  uint64_t last = LowBits(((end - 1) & 63) + 1);
  if (qs == qe) {
    words[qs] &= ~(first & last);
    return;
  }
  words[qs] &= ~first;
  for (size_t q = qs + 1; q < qe; ++q) words[q] = 0;
  words[qe] &= ~last;
}

// Set bits of a dense word vector (dispatched: see bitmap/popcount.h).
uint64_t PopcountWords(const std::vector<uint64_t>& words) {
  return DispatchPopcount(
      [&] { return CountWords(words.data(), words.size()); });
}

// Canonical WAH encode of a dense word span, one 63-bit group per step
// (AppendRun for homogeneous groups, AppendBits otherwise — both O(1)
// per group, and the canonical append API coalesces adjacent fills), so
// the output is representation-identical to any other canonical producer
// of the same content. Group-wise beats run-wise here: a dense random
// span has ~2-bit runs, and per-run appends made this the bottleneck of
// every kernel that re-encodes a dense accumulator.
WahBitmap DenseToWah(const uint64_t* words, uint64_t size) {
  WahBitmap out;
  size_t nwords = (size + 63) / 64;
  uint64_t pos = 0;
  for (; pos + kWahGroupBits <= size; pos += kWahGroupBits) {
    uint64_t payload = Extract63(words, nwords, pos);
    if (payload == 0) {
      out.AppendRun(false, kWahGroupBits);
    } else if (payload == wah::kPayloadMask) {
      out.AppendRun(true, kWahGroupBits);
    } else {
      out.AppendBits(payload, kWahGroupBits);
    }
  }
  if (pos < size) out.AppendBits(Extract63(words, nwords, pos), size - pos);
  return out;
}

// Expands a WAH bitmap's set bits into pre-zeroed dense words (OR
// semantics: existing bits survive).
void OrWahIntoDense(const WahBitmap& wah, uint64_t* words, size_t nwords) {
  WahDecoder dec(wah);
  uint64_t offset = 0;
  while (!dec.exhausted()) {
    if (dec.is_fill()) {
      uint64_t span = dec.remaining_groups() * kWahGroupBits;
      if (dec.fill_value()) {
        uint64_t end = std::min(offset + span, wah.size());
        FillRange(words, offset, end);
      }
      offset += span;
      dec.Consume(dec.remaining_groups());
    } else {
      Deposit63(words, nwords, offset, dec.group_payload());
      offset += kWahGroupBits;
      dec.Consume(1);
    }
  }
}

// dense &= wah (0-fills clear ranges, literals mask groups).
void AndWahIntoDense(const WahBitmap& wah, uint64_t* words, size_t nwords) {
  WahDecoder dec(wah);
  uint64_t offset = 0;
  while (!dec.exhausted()) {
    if (dec.is_fill()) {
      uint64_t span = dec.remaining_groups() * kWahGroupBits;
      if (!dec.fill_value()) {
        uint64_t end = std::min(offset + span, wah.size());
        ZeroRange(words, offset, end);
      }
      offset += span;
      dec.Consume(dec.remaining_groups());
    } else {
      MaskGroup63(words, nwords, offset, dec.group_payload());
      offset += kWahGroupBits;
      dec.Consume(1);
    }
  }
}

// |wah & dense| on the compressed walk: 1-fills popcount a dense range,
// literal groups popcount payload & window. Not dispatched itself: it is
// inlined into the dispatched kernels that call it.
uint64_t CountWahAndDense(const WahBitmap& wah, const uint64_t* words,
                          size_t nwords) {
  WahDecoder dec(wah);
  uint64_t offset = 0, ones = 0;
  while (!dec.exhausted()) {
    if (dec.is_fill()) {
      uint64_t span = dec.remaining_groups() * kWahGroupBits;
      if (dec.fill_value()) {
        uint64_t end = std::min(offset + span, wah.size());
        ones += CountRange(words, offset, end);
      }
      offset += span;
      dec.Consume(dec.remaining_groups());
    } else {
      ones += Popcount(dec.group_payload() & Extract63(words, nwords, offset));
      offset += kWahGroupBits;
      dec.Consume(1);
    }
  }
  return ones;
}

// Galloping lower-bound: exponential probe from `from`, then binary
// search inside the bracketing window.
size_t GallopTo(const std::vector<uint32_t>& v, size_t from, uint32_t x) {
  size_t offset = 1, lo = from;
  while (from + offset < v.size() && v[from + offset] < x) {
    lo = from + offset;
    offset <<= 1;
  }
  size_t hi = std::min(from + offset + 1, v.size());
  return static_cast<size_t>(
      std::lower_bound(v.begin() + static_cast<long>(lo),
                       v.begin() + static_cast<long>(hi), x) -
      v.begin());
}

// Sorted-set intersection; galloping when one side is much smaller.
// `emit(i)` is called with the index into `a` of each common position,
// in increasing order.
template <typename Emit>
void IntersectArrays(const std::vector<uint32_t>& a,
                     const std::vector<uint32_t>& b, Emit&& emit) {
  if (a.size() * 8 < b.size()) {
    size_t j = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      j = GallopTo(b, j, a[i]);
      if (j == b.size()) break;
      if (b[j] == a[i]) emit(i);
    }
    return;
  }
  if (b.size() * 8 < a.size()) {
    size_t i = 0;
    for (uint32_t y : b) {
      i = GallopTo(a, i, y);
      if (i == a.size()) break;
      if (a[i] == y) emit(i);
    }
    return;
  }
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    uint32_t x = a[i], y = b[j];
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      emit(i);
      ++i;
      ++j;
    }
  }
}

// Walks sorted positions against a WAH bitmap's runs, emitting the
// index of each position whose bit is set. Shared by the
// AND-materialize, AND-count and probe array×WAH kernels.
template <typename Emit>
void IntersectPositionsWithWah(const std::vector<uint32_t>& positions,
                               const WahBitmap& wah, Emit&& emit) {
  WahDecoder dec(wah);
  uint64_t offset = 0;
  size_t i = 0;
  const size_t n = positions.size();
  while (!dec.exhausted() && i < n) {
    if (dec.is_fill()) {
      uint64_t end = offset + dec.remaining_groups() * kWahGroupBits;
      if (dec.fill_value()) {
        while (i < n && positions[i] < end) emit(i++);
      } else if (end > positions[i]) {
        i = GallopTo(positions, i,
                     end > UINT32_MAX ? UINT32_MAX
                                      : static_cast<uint32_t>(end));
        // GallopTo finds the first position >= end except when end
        // saturates; positions are < 2^32 so saturation only occurs
        // past the last one.
        if (end > UINT32_MAX) i = n;
      }
      offset = end;
      dec.Consume(dec.remaining_groups());
    } else {
      uint64_t payload = dec.group_payload();
      uint64_t end = offset + kWahGroupBits;
      while (i < n && positions[i] < end) {
        if ((payload >> (positions[i] - offset)) & 1) emit(i);
        ++i;
      }
      offset = end;
      dec.Consume(1);
    }
  }
}

// Thread-local dense accumulator for the count-only k-way union; reused
// across calls so steady-state fan-outs stop allocating. (CodecOrMany
// accumulates into fresh words, which a bitset result keeps.)
std::vector<uint64_t>& DenseScratch() {
  thread_local std::vector<uint64_t> scratch;
  return scratch;
}

void OrOperandIntoDense(const ValueBitmap& vb, uint64_t* words,
                        size_t nwords) {
  switch (vb.rep()) {
    case BitmapRep::kArray:
      for (uint32_t p : vb.array_positions()) {
        words[p >> 6] |= uint64_t{1} << (p & 63);
      }
      return;
    case BitmapRep::kWah:
      OrWahIntoDense(vb.wah(), words, nwords);
      return;
    case BitmapRep::kBitset: {
      const std::vector<uint64_t>& src = vb.bitset_words();
      for (size_t i = 0; i < src.size(); ++i) words[i] |= src[i];
      return;
    }
  }
}

// ORs every operand into `acc`, resized to `size` bits and zeroed first.
// Shared by CodecOrMany / -Count.
void AccumulateUnion(const std::vector<const ValueBitmap*>& operands,
                     uint64_t size, std::vector<uint64_t>* acc) {
  acc->assign(DenseWordCount(size), 0);
  for (const ValueBitmap* vb : operands) {
    if (vb->IsAllZeros()) continue;
    OrOperandIntoDense(*vb, acc->data(), acc->size());
  }
}

// The union of operands that are all arrays (or empty), as sorted
// distinct positions, when merging them beats the dense accumulator:
// a sort of T positions costs about T·log2 T steps, the accumulator
// about size/32 (zero the scratch, then re-encode it). Nullopt
// otherwise. Needs no domain-sized scratch.
std::optional<std::vector<uint32_t>> SparseUnion(
    const std::vector<const ValueBitmap*>& operands, uint64_t size) {
  uint64_t total = 0;
  for (const ValueBitmap* vb : operands) {
    if (vb->IsAllZeros()) continue;
    if (vb->rep() != BitmapRep::kArray) return std::nullopt;
    total += vb->array_positions().size();
  }
  if (total * std::bit_width(total) > size / 32) return std::nullopt;
  std::vector<uint32_t> merged;
  merged.reserve(total);
  for (const ValueBitmap* vb : operands) {
    if (vb->IsAllZeros()) continue;
    merged.insert(merged.end(), vb->array_positions().begin(),
                  vb->array_positions().end());
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

bool AnyEmpty(const std::vector<const ValueBitmap*>& operands) {
  for (const ValueBitmap* vb : operands) {
    if (vb->IsAllZeros()) return true;
  }
  return false;
}

// Every k-way kernel CHECKs its operands' sizes, in release builds too:
// the dense accumulator writes up to an operand's own size, so a longer
// operand would write past it.
void CheckOperandSizes(const std::vector<const ValueBitmap*>& operands,
                       uint64_t size) {
  for (const ValueBitmap* vb : operands) {
    CODS_CHECK(vb->size() == size)
        << "k-way codec operand of size " << vb->size() << ", want " << size;
  }
}

// The operands in increasing popcount order (ties keep operand order):
// folding an intersection sparsest first keeps every intermediate as
// small as the smallest operand and reaches an empty result soonest.
std::vector<const ValueBitmap*> BySparsity(
    std::vector<const ValueBitmap*> operands) {
  std::stable_sort(operands.begin(), operands.end(),
                   [](const ValueBitmap* a, const ValueBitmap* b) {
                     return a->CountOnes() < b->CountOnes();
                   });
  return operands;
}

// order[0] & ... & order[n - 1] for n >= 2, folded pairwise; stops at
// the first empty intermediate.
ValueBitmap FoldAnd(const std::vector<const ValueBitmap*>& order, size_t n) {
  ValueBitmap acc = CodecAnd(*order[0], *order[1]);
  for (size_t i = 2; i < n && !acc.IsAllZeros(); ++i) {
    acc = CodecAnd(acc, *order[i]);
  }
  return acc;
}

WahBitmap MakeWahFill(bool value, uint64_t size) {
  WahBitmap bm;
  bm.AppendRun(value, size);
  return bm;
}

ValueBitmap AllZeros(uint64_t size) {
  return ValueBitmap::FromWah(MakeWahFill(false, size));
}

}  // namespace

const char* BitmapRepName(BitmapRep rep) {
  switch (rep) {
    case BitmapRep::kArray:
      return "array";
    case BitmapRep::kWah:
      return "wah";
    case BitmapRep::kBitset:
      return "bitset";
  }
  return "?";
}

BitmapRep ChooseBitmapRep(uint64_t ones, uint64_t size) {
  CODS_DCHECK(ones <= size);
  if (ones == 0 || ones == size) return BitmapRep::kWah;
  if (size <= (uint64_t{1} << 32) && ones <= size / 64) {
    return BitmapRep::kArray;
  }
  if (ones >= (size + 3) / 4) return BitmapRep::kBitset;
  return BitmapRep::kWah;
}

CodecStats& GlobalCodecStats() {
  static CodecStats stats;
  return stats;
}

// ---- ValueBitmap construction --------------------------------------------

ValueBitmap ValueBitmap::FromWah(WahBitmap wah) {
  ValueBitmap vb;
  vb.size_ = wah.size();
  vb.ones_ = wah.CountOnes();
  vb.rep_ = ChooseBitmapRep(vb.ones_, vb.size_);
  switch (vb.rep_) {
    case BitmapRep::kArray: {
      vb.positions_.reserve(vb.ones_);
      WahSetBitIterator it(wah);
      uint64_t pos;
      while (it.Next(&pos)) {
        vb.positions_.push_back(static_cast<uint32_t>(pos));
      }
      GlobalCodecStats().array_built.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    case BitmapRep::kWah:
      vb.wah_ = std::move(wah);
      GlobalCodecStats().wah_built.fetch_add(1, std::memory_order_relaxed);
      break;
    case BitmapRep::kBitset: {
      vb.words_.assign(DenseWordCount(vb.size_), 0);
      OrWahIntoDense(wah, vb.words_.data(), vb.words_.size());
      GlobalCodecStats().bitset_built.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  return vb;
}

ValueBitmap ValueBitmap::FromPositions(std::vector<uint32_t> positions,
                                       uint64_t size) {
  ValueBitmap vb;
  vb.size_ = size;
  vb.ones_ = positions.size();
  vb.rep_ = ChooseBitmapRep(vb.ones_, size);
  switch (vb.rep_) {
    case BitmapRep::kArray:
      vb.positions_ = std::move(positions);
      GlobalCodecStats().array_built.fetch_add(1, std::memory_order_relaxed);
      break;
    case BitmapRep::kWah: {
      for (uint32_t p : positions) vb.wah_.AppendSetBit(p);
      vb.wah_.AppendRun(false, size - vb.wah_.size());
      GlobalCodecStats().wah_built.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    case BitmapRep::kBitset: {
      vb.words_.assign(DenseWordCount(size), 0);
      for (uint32_t p : positions) {
        vb.words_[p >> 6] |= uint64_t{1} << (p & 63);
      }
      GlobalCodecStats().bitset_built.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  return vb;
}

ValueBitmap ValueBitmap::FromDenseWords(std::vector<uint64_t> words,
                                        uint64_t size) {
  CODS_DCHECK(words.size() == DenseWordCount(size));
  ValueBitmap vb;
  vb.size_ = size;
  vb.ones_ = PopcountWords(words);
  vb.rep_ = ChooseBitmapRep(vb.ones_, size);
  switch (vb.rep_) {
    case BitmapRep::kArray: {
      vb.positions_.reserve(vb.ones_);
      for (size_t w = 0; w < words.size(); ++w) {
        uint64_t word = words[w];
        while (word != 0) {
          vb.positions_.push_back(static_cast<uint32_t>(
              w * 64 + static_cast<uint64_t>(std::countr_zero(word))));
          word &= word - 1;
        }
      }
      GlobalCodecStats().array_built.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    case BitmapRep::kWah:
      vb.wah_ = DenseToWah(words.data(), size);
      GlobalCodecStats().wah_built.fetch_add(1, std::memory_order_relaxed);
      break;
    case BitmapRep::kBitset:
      vb.words_ = std::move(words);
      GlobalCodecStats().bitset_built.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  return vb;
}

Result<ValueBitmap> ValueBitmap::FromRawParts(BitmapRep rep, uint64_t size,
                                              std::vector<uint32_t> positions,
                                              WahBitmap wah,
                                              std::vector<uint64_t> words) {
  ValueBitmap vb;
  vb.rep_ = rep;
  vb.size_ = size;
  switch (rep) {
    case BitmapRep::kArray: {
      uint32_t prev = 0;
      for (size_t i = 0; i < positions.size(); ++i) {
        if (positions[i] >= size || (i > 0 && positions[i] <= prev)) {
          return Status::Corruption(
              "array container positions not strictly increasing in range");
        }
        prev = positions[i];
      }
      vb.ones_ = positions.size();
      vb.positions_ = std::move(positions);
      break;
    }
    case BitmapRep::kWah:
      if (wah.size() != size) {
        return Status::Corruption("WAH container size mismatch");
      }
      vb.ones_ = wah.CountOnes();
      vb.wah_ = std::move(wah);
      break;
    case BitmapRep::kBitset: {
      if (words.size() != DenseWordCount(size)) {
        return Status::Corruption("bitset container word count mismatch");
      }
      if (size % 64 != 0 && !words.empty() &&
          (words.back() & ~LowBits(size % 64)) != 0) {
        return Status::Corruption("bitset container has bits beyond size");
      }
      vb.ones_ = PopcountWords(words);
      vb.words_ = std::move(words);
      break;
    }
    default:
      return Status::Corruption("unknown bitmap representation tag");
  }
  if (ChooseBitmapRep(vb.ones_, size) != rep) {
    return Status::Corruption(
        std::string("non-canonical bitmap representation: ") +
        BitmapRepName(rep) + " holding " + std::to_string(vb.ones_) + "/" +
        std::to_string(size) + " bits");
  }
  return vb;
}

// ---- ValueBitmap inspection ----------------------------------------------

bool ValueBitmap::Get(uint64_t pos) const {
  CODS_DCHECK(pos < size_);
  switch (rep_) {
    case BitmapRep::kArray:
      return std::binary_search(positions_.begin(), positions_.end(),
                                static_cast<uint32_t>(pos));
    case BitmapRep::kWah:
      return wah_.Get(pos);
    case BitmapRep::kBitset:
      return (words_[pos / 64] >> (pos % 64)) & 1;
  }
  return false;
}

uint64_t ValueBitmap::FirstSetBit() const {
  switch (rep_) {
    case BitmapRep::kArray:
      return positions_.empty() ? size_ : positions_.front();
    case BitmapRep::kWah:
      return wah_.FirstSetBit();
    case BitmapRep::kBitset:
      for (size_t w = 0; w < words_.size(); ++w) {
        if (words_[w] != 0) {
          return w * 64 + static_cast<uint64_t>(std::countr_zero(words_[w]));
        }
      }
      return size_;
  }
  return size_;
}

std::vector<uint64_t> ValueBitmap::SetPositions() const {
  std::vector<uint64_t> out;
  out.reserve(ones_);
  ForEachSetBit([&out](uint64_t pos) { out.push_back(pos); });
  return out;
}

WahBitmap ValueBitmap::ToWah() const {
  switch (rep_) {
    case BitmapRep::kArray: {
      WahBitmap out;
      for (uint32_t p : positions_) out.AppendSetBit(p);
      out.AppendRun(false, size_ - out.size());
      return out;
    }
    case BitmapRep::kWah:
      return wah_;
    case BitmapRep::kBitset:
      return DenseToWah(words_.data(), size_);
  }
  return WahBitmap();
}

void ValueBitmap::AppendToWah(WahBitmap* out) const {
  switch (rep_) {
    case BitmapRep::kArray: {
      uint64_t base = out->size();
      for (uint32_t p : positions_) out->AppendSetBit(base + p);
      out->AppendRun(false, base + size_ - out->size());
      return;
    }
    case BitmapRep::kWah:
      out->Concat(wah_);
      return;
    case BitmapRep::kBitset: {
      for (uint64_t off = 0; off < size_; off += kWahGroupBits) {
        uint64_t nbits = std::min(kWahGroupBits, size_ - off);
        out->AppendBits(Extract63(words_.data(), words_.size(), off), nbits);
      }
      return;
    }
  }
}

uint64_t ValueBitmap::SizeBytes() const {
  switch (rep_) {
    case BitmapRep::kArray:
      return positions_.size() * sizeof(uint32_t);
    case BitmapRep::kWah:
      return wah_.SizeBytes();
    case BitmapRep::kBitset:
      return words_.size() * sizeof(uint64_t);
  }
  return 0;
}

bool ValueBitmap::Equals(const ValueBitmap& other) const {
  if (rep_ != other.rep_ || size_ != other.size_ || ones_ != other.ones_) {
    return false;
  }
  switch (rep_) {
    case BitmapRep::kArray:
      return positions_ == other.positions_;
    case BitmapRep::kWah:
      return wah_ == other.wah_;
    case BitmapRep::kBitset:
      return words_ == other.words_;
  }
  return false;
}

std::string ValueBitmap::ToString() const {
  std::ostringstream out;
  out << BitmapRepName(rep_) << "(" << ones_ << "/" << size_ << ")";
  return out.str();
}

Status ValueBitmap::Validate(uint64_t expected_size) const {
  if (size_ != expected_size) {
    return Status::Corruption("value bitmap covers " + std::to_string(size_) +
                              " rows, expected " +
                              std::to_string(expected_size));
  }
  switch (rep_) {
    case BitmapRep::kArray: {
      uint32_t prev = 0;
      for (size_t i = 0; i < positions_.size(); ++i) {
        if (positions_[i] >= size_ || (i > 0 && positions_[i] <= prev)) {
          return Status::Corruption("array container positions invalid");
        }
        prev = positions_[i];
      }
      if (ones_ != positions_.size()) {
        return Status::Corruption("array container popcount mismatch");
      }
      break;
    }
    case BitmapRep::kWah:
      if (wah_.size() != size_ || wah_.CountOnes() != ones_) {
        return Status::Corruption("WAH container popcount mismatch");
      }
      break;
    case BitmapRep::kBitset: {
      if (words_.size() != DenseWordCount(size_)) {
        return Status::Corruption("bitset container word count mismatch");
      }
      if (size_ % 64 != 0 && !words_.empty() &&
          (words_.back() & ~LowBits(size_ % 64)) != 0) {
        return Status::Corruption("bitset container has bits beyond size");
      }
      if (ones_ != PopcountWords(words_)) {
        return Status::Corruption("bitset container popcount mismatch");
      }
      break;
    }
  }
  if (ChooseBitmapRep(ones_, size_) != rep_) {
    return Status::Corruption(
        std::string("non-canonical representation ") + BitmapRepName(rep_) +
        " for " + std::to_string(ones_) + "/" + std::to_string(size_));
  }
  return Status::OK();
}

// ---- Pairwise kernels ----------------------------------------------------

uint64_t CodecAndCount(const ValueBitmap& a, const ValueBitmap& b) {
  CODS_DCHECK(a.size() == b.size());
  if (a.IsAllZeros() || b.IsAllZeros()) return 0;
  if (a.IsAllOnes()) return b.CountOnes();
  if (b.IsAllOnes()) return a.CountOnes();
  const ValueBitmap* x = &a;
  const ValueBitmap* y = &b;
  // Normalize the dispatch to rep(x) <= rep(y): array < wah < bitset.
  if (static_cast<uint8_t>(x->rep()) > static_cast<uint8_t>(y->rep())) {
    std::swap(x, y);
  }
  switch (x->rep()) {
    case BitmapRep::kArray: {
      uint64_t count = 0;
      switch (y->rep()) {
        case BitmapRep::kArray:
          IntersectArrays(x->array_positions(), y->array_positions(),
                          [&count](size_t) { ++count; });
          return count;
        case BitmapRep::kWah:
          IntersectPositionsWithWah(x->array_positions(), y->wah(),
                                    [&count](size_t) { ++count; });
          return count;
        case BitmapRep::kBitset: {
          const std::vector<uint64_t>& words = y->bitset_words();
          for (uint32_t p : x->array_positions()) {
            count += (words[p >> 6] >> (p & 63)) & 1;
          }
          return count;
        }
      }
      return 0;
    }
    case BitmapRep::kWah:
      if (y->rep() == BitmapRep::kWah) return WahAndCount(x->wah(), y->wah());
      return DispatchPopcount([&] {
        return CountWahAndDense(x->wah(), y->bitset_words().data(),
                                y->bitset_words().size());
      });
    case BitmapRep::kBitset:
      return DispatchPopcount([&] {
        return CountAndWords(x->bitset_words().data(),
                             y->bitset_words().data(),
                             x->bitset_words().size());
      });
  }
  return 0;
}

ValueBitmap CodecAnd(const ValueBitmap& a, const ValueBitmap& b) {
  CODS_DCHECK(a.size() == b.size());
  if (a.IsAllZeros() || b.IsAllZeros()) return AllZeros(a.size());
  if (a.IsAllOnes()) return b;
  if (b.IsAllOnes()) return a;
  const ValueBitmap* x = &a;
  const ValueBitmap* y = &b;
  if (static_cast<uint8_t>(x->rep()) > static_cast<uint8_t>(y->rep())) {
    std::swap(x, y);
  }
  if (x->rep() == BitmapRep::kArray) {
    // The intersection is a subset of the sparse side, so it stays
    // array-eligible; collect positions directly.
    std::vector<uint32_t> out;
    const std::vector<uint32_t>& xs = x->array_positions();
    switch (y->rep()) {
      case BitmapRep::kArray:
        IntersectArrays(xs, y->array_positions(),
                        [&](size_t i) { out.push_back(xs[i]); });
        break;
      case BitmapRep::kWah:
        IntersectPositionsWithWah(xs, y->wah(),
                                  [&](size_t i) { out.push_back(xs[i]); });
        break;
      case BitmapRep::kBitset: {
        const std::vector<uint64_t>& words = y->bitset_words();
        for (uint32_t p : x->array_positions()) {
          if ((words[p >> 6] >> (p & 63)) & 1) out.push_back(p);
        }
        break;
      }
    }
    return ValueBitmap::FromPositions(std::move(out), a.size());
  }
  if (x->rep() == BitmapRep::kWah && y->rep() == BitmapRep::kWah) {
    return ValueBitmap::FromWah(WahAnd(x->wah(), y->wah()));
  }
  // At least one bitset: run word-parallel over a dense copy.
  std::vector<uint64_t> words;
  if (x->rep() == BitmapRep::kBitset) {
    words = x->bitset_words();
    if (y->rep() == BitmapRep::kBitset) {
      const std::vector<uint64_t>& wb = y->bitset_words();
      for (size_t i = 0; i < words.size(); ++i) words[i] &= wb[i];
    } else {
      AndWahIntoDense(y->wah(), words.data(), words.size());
    }
  } else {
    words = y->bitset_words();
    AndWahIntoDense(x->wah(), words.data(), words.size());
  }
  return ValueBitmap::FromDenseWords(std::move(words), a.size());
}

ValueBitmap CodecOr(const ValueBitmap& a, const ValueBitmap& b) {
  CODS_DCHECK(a.size() == b.size());
  if (a.IsAllZeros()) return b;
  if (b.IsAllZeros()) return a;
  if (a.IsAllOnes()) return a;
  if (b.IsAllOnes()) return b;
  const ValueBitmap* x = &a;
  const ValueBitmap* y = &b;
  if (static_cast<uint8_t>(x->rep()) > static_cast<uint8_t>(y->rep())) {
    std::swap(x, y);
  }
  if (x->rep() == BitmapRep::kArray && y->rep() == BitmapRep::kArray) {
    std::vector<uint32_t> out;
    out.reserve(x->array_positions().size() + y->array_positions().size());
    std::set_union(x->array_positions().begin(), x->array_positions().end(),
                   y->array_positions().begin(), y->array_positions().end(),
                   std::back_inserter(out));
    return ValueBitmap::FromPositions(std::move(out), a.size());
  }
  if (x->rep() == BitmapRep::kWah && y->rep() == BitmapRep::kWah) {
    return ValueBitmap::FromWah(WahOr(x->wah(), y->wah()));
  }
  // Mixed: accumulate into dense words.
  std::vector<uint64_t> words;
  if (y->rep() == BitmapRep::kBitset) {
    words = y->bitset_words();
  } else {
    words.assign(DenseWordCount(a.size()), 0);
    OrOperandIntoDense(*y, words.data(), words.size());
  }
  OrOperandIntoDense(*x, words.data(), words.size());
  return ValueBitmap::FromDenseWords(std::move(words), a.size());
}

ValueBitmap CodecNot(const ValueBitmap& a) {
  switch (a.rep()) {
    case BitmapRep::kArray: {
      // ~sparse is dense: start from all-ones and clear the positions.
      std::vector<uint64_t> words(DenseWordCount(a.size()), ~uint64_t{0});
      if (a.size() % 64 != 0 && !words.empty()) {
        words.back() = LowBits(a.size() % 64);
      }
      for (uint32_t p : a.array_positions()) {
        words[p >> 6] &= ~(uint64_t{1} << (p & 63));
      }
      return ValueBitmap::FromDenseWords(std::move(words), a.size());
    }
    case BitmapRep::kWah:
      return ValueBitmap::FromWah(WahNot(a.wah()));
    case BitmapRep::kBitset: {
      std::vector<uint64_t> words(a.bitset_words());
      for (uint64_t& w : words) w = ~w;
      if (a.size() % 64 != 0 && !words.empty()) {
        words.back() &= LowBits(a.size() % 64);
      }
      return ValueBitmap::FromDenseWords(std::move(words), a.size());
    }
  }
  return ValueBitmap();
}

// ---- k-way kernels -------------------------------------------------------

ValueBitmap CodecOrMany(const std::vector<const ValueBitmap*>& operands,
                        uint64_t size) {
  CheckOperandSizes(operands, size);
  if (operands.empty()) return AllZeros(size);
  if (operands.size() == 1) return *operands[0];
  if (std::optional<std::vector<uint32_t>> merged =
          SparseUnion(operands, size)) {
    return ValueBitmap::FromPositions(std::move(*merged), size);
  }
  // The accumulator becomes the result's words when the union is dense.
  std::vector<uint64_t> words;
  AccumulateUnion(operands, size, &words);
  return ValueBitmap::FromDenseWords(std::move(words), size);
}

uint64_t CodecOrManyCount(const std::vector<const ValueBitmap*>& operands,
                          uint64_t size) {
  CheckOperandSizes(operands, size);
  if (operands.empty()) return 0;
  if (operands.size() == 1) return operands[0]->CountOnes();
  if (std::optional<std::vector<uint32_t>> merged =
          SparseUnion(operands, size)) {
    return merged->size();
  }
  std::vector<uint64_t>& acc = DenseScratch();
  AccumulateUnion(operands, size, &acc);
  return PopcountWords(acc);
}

ValueBitmap CodecAndMany(const std::vector<const ValueBitmap*>& operands,
                         uint64_t size) {
  CheckOperandSizes(operands, size);
  if (operands.empty()) return ValueBitmap::FromWah(MakeWahFill(true, size));
  if (AnyEmpty(operands)) return AllZeros(size);
  const std::vector<const ValueBitmap*> order = BySparsity(operands);
  if (order.size() == 1) return *order[0];
  return FoldAnd(order, order.size());
}

uint64_t CodecAndManyCount(const std::vector<const ValueBitmap*>& operands,
                           uint64_t size) {
  CheckOperandSizes(operands, size);
  if (operands.empty()) return size;
  if (AnyEmpty(operands)) return 0;
  const std::vector<const ValueBitmap*> order = BySparsity(operands);
  const ValueBitmap& last = *order.back();
  switch (order.size()) {
    case 1:
      return last.CountOnes();
    case 2:
      return CodecAndCount(*order[0], last);
    default:
      return CodecAndCount(FoldAnd(order, order.size() - 1), last);
  }
}

// ---- Position filter -----------------------------------------------------

ValueBitmap CodecFilter(const WahPositionFilter& filter,
                        const ValueBitmap& vb) {
  CODS_DCHECK(vb.size() == filter.domain());
  switch (vb.rep()) {
    case BitmapRep::kArray: {
      std::vector<uint32_t> out;
      out.reserve(vb.array_positions().size());
      for (uint32_t p : vb.array_positions()) {
        if (filter.Contains(p)) {
          out.push_back(static_cast<uint32_t>(filter.Rank(p)));
        }
      }
      return ValueBitmap::FromPositions(std::move(out),
                                        filter.num_positions());
    }
    case BitmapRep::kWah:
      return ValueBitmap::FromWah(filter.Filter(vb.wah()));
    case BitmapRep::kBitset: {
      std::vector<uint64_t> out(DenseWordCount(filter.num_positions()), 0);
      vb.ForEachSetBit([&](uint64_t p) {
        if (filter.Contains(p)) {
          uint64_t r = filter.Rank(p);
          out[r >> 6] |= uint64_t{1} << (r & 63);
        }
      });
      return ValueBitmap::FromDenseWords(std::move(out),
                                         filter.num_positions());
    }
  }
  return ValueBitmap();
}

// ---- Dense selection -----------------------------------------------------

DenseSelection::DenseSelection(const ValueBitmap& vb)
    : size_(vb.size()), ones_(vb.CountOnes()), words_(nullptr) {
  if (vb.rep() == BitmapRep::kBitset) {
    words_ = vb.bitset_words().data();
    return;
  }
  owned_.assign(DenseWordCount(size_), 0);
  OrOperandIntoDense(vb, owned_.data(), owned_.size());
  words_ = owned_.data();
}

DenseSelection::DenseSelection(const DenseSelection& selection,
                               const ValueBitmap& vb)
    : size_(selection.size_),
      owned_(selection.words_,
             selection.words_ + DenseWordCount(selection.size_)),
      words_(owned_.data()) {
  CODS_DCHECK(vb.size() == size_);
  switch (vb.rep()) {
    case BitmapRep::kArray: {
      std::vector<uint64_t> mask(owned_.size(), 0);
      OrOperandIntoDense(vb, mask.data(), mask.size());
      for (size_t i = 0; i < owned_.size(); ++i) owned_[i] &= mask[i];
      break;
    }
    case BitmapRep::kWah:
      AndWahIntoDense(vb.wah(), owned_.data(), owned_.size());
      break;
    case BitmapRep::kBitset: {
      const std::vector<uint64_t>& wb = vb.bitset_words();
      for (size_t i = 0; i < owned_.size(); ++i) owned_[i] &= wb[i];
      break;
    }
  }
  ones_ = PopcountWords(owned_);
}

bool DenseSelection::Pays(const ValueBitmap& vb, uint64_t probes) {
  switch (vb.rep()) {
    case BitmapRep::kArray:
      return false;
    case BitmapRep::kWah:
      return probes * vb.wah().NumWords() > DenseWordCount(vb.size());
    case BitmapRep::kBitset:
      return true;
  }
  return false;
}

uint64_t DenseSelection::AndCount(const ValueBitmap& vb) const {
  CODS_DCHECK(vb.size() == size_);
  if (vb.IsAllZeros()) return 0;
  if (vb.IsAllOnes()) return ones_;
  const size_t nwords = DenseWordCount(size_);
  switch (vb.rep()) {
    case BitmapRep::kArray: {
      uint64_t count = 0;
      for (uint32_t p : vb.array_positions()) {
        count += (words_[p >> 6] >> (p & 63)) & 1;
      }
      return count;
    }
    case BitmapRep::kWah:
      return DispatchPopcount(
          [&] { return CountWahAndDense(vb.wah(), words_, nwords); });
    case BitmapRep::kBitset:
      return DispatchPopcount([&] {
        return CountAndWords(words_, vb.bitset_words().data(), nwords);
      });
  }
  return 0;
}

uint64_t DenseSelection::AndCount(const DenseSelection& other) const {
  CODS_DCHECK(other.size_ == size_);
  if (ones_ == 0 || other.ones_ == 0) return 0;
  return DispatchPopcount([&] {
    return CountAndWords(words_, other.words_, DenseWordCount(size_));
  });
}

ValueBitmap DenseSelection::AndArray(const ValueBitmap& vb) const {
  CODS_DCHECK(vb.size() == size_ && vb.rep() == BitmapRep::kArray);
  std::vector<uint32_t> kept;
  for (uint32_t p : vb.array_positions()) {
    if ((words_[p >> 6] >> (p & 63)) & 1) kept.push_back(p);
  }
  return ValueBitmap::FromPositions(std::move(kept), size_);
}

void DenseSelection::AndPositions(const ValueBitmap& vb,
                                  std::vector<uint64_t>* out) const {
  CODS_DCHECK(vb.size() == size_);
  vb.ForEachSetBit([&](uint64_t pos) {
    if ((words_[pos >> 6] >> (pos & 63)) & 1) out->push_back(pos);
  });
}

}  // namespace cods
