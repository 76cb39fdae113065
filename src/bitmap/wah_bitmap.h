// Word-Aligned Hybrid (WAH) compressed bitmap, after Wu, Otoo &
// Shoshani, "Optimizing Bitmap Indices With Efficient Compression",
// TODS 31(1), 2006 — the compression scheme CODS stores all columns in.
//
// We use 64-bit code words with 63-bit payload groups:
//   * literal word: MSB = 0, low 63 bits hold one group of bitmap bits;
//   * fill word:    MSB = 1, bit 62 is the fill value, low 62 bits count
//                   how many consecutive 63-bit groups the fill covers.
//
// The bitmap is append-only (bits are appended at increasing positions)
// and kept in canonical form: adjacent equal fills are merged and a
// completed all-zero / all-one literal group is converted into (or merged
// with) a fill. Two bitmaps with the same logical content built through
// the append API therefore have identical words, which makes equality a
// cheap memcmp. The pairwise logical operations (bitmap/wah_ops.h) and
// the position filter (bitmap/wah_filter.h) consume and produce
// compressed words directly.

#ifndef CODS_BITMAP_WAH_BITMAP_H_
#define CODS_BITMAP_WAH_BITMAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/result.h"

namespace cods {

/// Number of payload bits per WAH group.
inline constexpr uint64_t kWahGroupBits = 63;

namespace wah {

inline constexpr uint64_t kFillFlag = uint64_t{1} << 63;
inline constexpr uint64_t kFillValueBit = uint64_t{1} << 62;
inline constexpr uint64_t kPayloadMask = (uint64_t{1} << 63) - 1;
inline constexpr uint64_t kFillCountMask = (uint64_t{1} << 62) - 1;

inline bool IsFill(uint64_t word) { return (word & kFillFlag) != 0; }
inline bool FillValue(uint64_t word) { return (word & kFillValueBit) != 0; }
inline uint64_t FillGroups(uint64_t word) { return word & kFillCountMask; }
inline uint64_t Literal(uint64_t word) { return word & kPayloadMask; }
inline uint64_t MakeFill(bool value, uint64_t groups) {
  return kFillFlag | (value ? kFillValueBit : 0) | groups;
}

}  // namespace wah

/// An append-only WAH-compressed bitmap.
class WahBitmap {
 public:
  /// Constructs an empty bitmap (zero bits).
  WahBitmap() = default;

  WahBitmap(const WahBitmap&) = default;
  WahBitmap& operator=(const WahBitmap&) = default;
  WahBitmap(WahBitmap&&) noexcept = default;
  WahBitmap& operator=(WahBitmap&&) noexcept = default;

  /// Builds a bitmap of `size` bits whose set positions are exactly
  /// `set_positions` (which must be strictly increasing and < size).
  static WahBitmap FromPositions(const std::vector<uint64_t>& set_positions,
                                 uint64_t size);

  /// Builds from a bool vector (test convenience).
  static WahBitmap FromBools(const std::vector<bool>& bits);

  /// Reassembles a bitmap from its raw representation (persistence
  /// path). Validates structural consistency: word kinds, bit counts,
  /// tail bounds; does NOT require canonical form, so bitmaps written by
  /// other producers load too.
  static Result<WahBitmap> FromRawParts(std::vector<uint64_t> words,
                                        uint64_t tail, uint64_t tail_bits,
                                        uint64_t num_bits);

  // ---- Appending -------------------------------------------------------

  /// Appends a single bit at the end.
  void AppendBit(bool value);

  /// Appends `count` copies of `value`.
  void AppendRun(bool value, uint64_t count);

  /// Appends zeros up to position `pos`, then a set bit, leaving the
  /// bitmap `pos + 1` bits long. Requires pos >= size().
  void AppendSetBit(uint64_t pos);

  /// Appends 63 bits given as a literal payload (low 63 bits of `payload`).
  /// Requires the current size to be a multiple of 63 (i.e. group aligned).
  void AppendGroup(uint64_t payload);

  /// Appends the low `nbits` (<= 63) bits of `payload`, at any alignment.
  /// The group-straddling shift is done word-at-a-time, so appending a
  /// whole group costs O(1) regardless of its bit pattern.
  void AppendBits(uint64_t payload, uint64_t nbits);

  /// Appends the full content of `other` after this bitmap's bits. When
  /// this bitmap is group-aligned (size() % 63 == 0) the code words of
  /// `other` are spliced in directly — O(#words of other), no per-bit
  /// re-canonicalization; otherwise each group is shifted in via
  /// AppendBits (still O(1) per group).
  void Concat(const WahBitmap& other);

  /// Capacity hint for append-heavy builders: reserves room for `words`
  /// compressed code words.
  void Reserve(uint64_t words) { words_.reserve(words); }

  // ---- Inspection ------------------------------------------------------

  /// Logical length in bits.
  uint64_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  /// Value of the bit at `pos`. O(#code words); intended for tests and
  /// point lookups, not bulk scans (use iterators for those).
  bool Get(uint64_t pos) const;

  /// Number of set bits. O(1): the count is maintained incrementally by
  /// every append path (and computed once in FromRawParts), so the
  /// per-value popcount histograms the query layer reads are free.
  uint64_t CountOnes() const { return ones_; }

  /// Position of the first set bit, or size() if none. Used by the
  /// decomposition "distinction" step.
  uint64_t FirstSetBit() const;

  /// True iff no bit is set. O(1) via the cached popcount.
  bool IsAllZeros() const { return ones_ == 0; }

  /// True iff every bit is set. O(1) via the cached popcount.
  bool IsAllOnes() const { return ones_ == num_bits_; }

  /// Compressed size in bytes (code words + active tail group).
  uint64_t SizeBytes() const { return (words_.size() + 1) * sizeof(uint64_t); }

  /// Number of compressed code words.
  uint64_t NumWords() const { return words_.size(); }

  const std::vector<uint64_t>& words() const { return words_; }
  uint64_t tail() const { return tail_; }
  uint64_t tail_bits() const { return tail_bits_; }

  /// Content equality. Because append keeps canonical form, this is a
  /// straight comparison of the representation.
  bool Equals(const WahBitmap& other) const {
    return num_bits_ == other.num_bits_ && tail_ == other.tail_ &&
           words_ == other.words_;
  }
  friend bool operator==(const WahBitmap& a, const WahBitmap& b) {
    return a.Equals(b);
  }

  /// Debug rendering, e.g. "[F0x3|L:101..|F1x2] tail=01 (197 bits)".
  std::string ToString() const;

  /// Decompresses into a bool vector (test oracle only).
  std::vector<bool> ToBools() const;

  /// Collects the positions of all set bits.
  std::vector<uint64_t> SetPositions() const;

 private:
  friend class WahDecoder;

  // Flushes the completed 63-bit tail group into words_, merging with a
  // trailing fill when the group is homogeneous.
  void FlushTailGroup();
  // Appends `groups` full fill groups of `value` directly to words_.
  void AppendFillGroups(bool value, uint64_t groups);

  std::vector<uint64_t> words_;
  uint64_t tail_ = 0;       // bits of the current partial group (LSB-first)
  uint64_t tail_bits_ = 0;  // how many bits of tail_ are valid (0..62)
  uint64_t num_bits_ = 0;   // logical size
  uint64_t ones_ = 0;       // cached popcount, maintained on every append
};

/// Streaming run decoder over a WahBitmap. Exposes the bitmap as a
/// sequence of "runs": either one literal 63-bit group or a fill covering
/// `remaining_groups()` groups. The final partial group (if any) is
/// exposed as a literal group whose bits above the logical size are zero;
/// callers that care about exact sizes should track bit counts themselves
/// (the logical ops do).
class WahDecoder {
 public:
  explicit WahDecoder(const WahBitmap& bm) : bm_(&bm) { LoadNext(); }

  /// True when all groups (including the partial tail) are consumed.
  bool exhausted() const { return exhausted_; }

  /// Whether the current run is a fill.
  bool is_fill() const { return is_fill_; }
  /// Fill value of the current fill run.
  bool fill_value() const { return fill_value_; }
  /// Groups remaining in the current run (>= 1 unless exhausted).
  uint64_t remaining_groups() const { return remaining_groups_; }
  /// Payload of the current group: the literal payload, or the expanded
  /// fill pattern (all zeros / all ones).
  uint64_t group_payload() const {
    CODS_DCHECK(!exhausted_);
    if (is_fill_) return fill_value_ ? wah::kPayloadMask : 0;
    return literal_;
  }

  /// Consumes `groups` groups from the current run. Must be
  /// <= remaining_groups(); advances to the next code word as needed.
  void Consume(uint64_t groups) {
    CODS_DCHECK(groups <= remaining_groups_);
    remaining_groups_ -= groups;
    if (remaining_groups_ == 0) LoadNext();
  }

 private:
  // The per-group hot path of every WAH kernel lives in this header, so
  // kernels in other translation units walk runs without a call per
  // group.
  void LoadNext() {
    if (word_index_ < bm_->words_.size()) {
      const uint64_t w = bm_->words_[word_index_++];
      if (wah::IsFill(w)) {
        is_fill_ = true;
        fill_value_ = wah::FillValue(w);
        remaining_groups_ = wah::FillGroups(w);
        CODS_DCHECK(remaining_groups_ > 0);
      } else {
        is_fill_ = false;
        literal_ = wah::Literal(w);
        remaining_groups_ = 1;
      }
      return;
    }
    if (!tail_emitted_ && bm_->tail_bits_ > 0) {
      tail_emitted_ = true;
      is_fill_ = false;
      literal_ = bm_->tail_;
      remaining_groups_ = 1;
      return;
    }
    exhausted_ = true;
    remaining_groups_ = 0;
  }

  const WahBitmap* bm_;
  size_t word_index_ = 0;
  bool tail_emitted_ = false;
  bool exhausted_ = false;
  bool is_fill_ = false;
  bool fill_value_ = false;
  uint64_t remaining_groups_ = 0;
  uint64_t literal_ = 0;
};

/// Iterates the positions of set bits of a WahBitmap in increasing order,
/// skipping zero fills in O(1) per fill word.
class WahSetBitIterator {
 public:
  explicit WahSetBitIterator(const WahBitmap& bm);

  /// Stores the next set position in *pos and returns true, or returns
  /// false when the iteration is done.
  bool Next(uint64_t* pos);

 private:
  WahDecoder decoder_;
  uint64_t group_start_ = 0;   // bit offset of the current group
  uint64_t pending_ = 0;       // unread set bits of the current group
  uint64_t logical_size_;
};

/// Iterates maximal runs of consecutive equal bits as (value, start,
/// length) triples. Used by the row-order column scanner.
class WahRunIterator {
 public:
  explicit WahRunIterator(const WahBitmap& bm);

  struct Run {
    bool value;
    uint64_t start;
    uint64_t length;
  };

  /// Fetches the next maximal run; false at end.
  bool Next(Run* run);

 private:
  // Pulls the next primitive (non-maximal) run from the decoder.
  bool NextPrimitive(bool* value, uint64_t* length);

  WahDecoder decoder_;
  uint64_t pos_ = 0;
  uint64_t logical_size_;
  uint64_t emitted_or_buffered_ = 0;  // bits pulled from the decoder so far
  uint64_t group_bits_left_ = 0;  // unread bits in current literal group
  uint64_t group_ = 0;
  bool have_carry_ = false;
  bool carry_value_ = false;
  uint64_t carry_length_ = 0;
};

}  // namespace cods

#endif  // CODS_BITMAP_WAH_BITMAP_H_
