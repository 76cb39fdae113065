// Density-adaptive per-value bitmap codec (Roaring-style containers).
//
// A dictionary column stores one bitmap per distinct value, and their
// densities span orders of magnitude: in a high-cardinality dictionary
// most values mark a handful of rows (the bitmap is almost all zero
// fill), while a skewed column has a few values covering most rows. One
// representation cannot be optimal for both, so `ValueBitmap` picks one
// of three per value:
//
//   * kArray  — sorted uint32_t positions, for sparse values. AND/OR
//               become galloping sorted-set merges over just the set
//               positions; a position filter is a per-element rank.
//   * kWah    — the paper's WAH runs (bitmap/wah_bitmap.h), for the
//               mixed regime and for homogeneous bitmaps (one fill
//               word).
//   * kBitset — raw uint64_t words, for dense values. AND/OR/count are
//               word-parallel loops the compiler auto-vectorizes; the
//               counting loops run as POPCNT or portable instances
//               (bitmap/popcount.h).
//
// `ValueBitmap` is also the query layer's selection type: a WHERE
// evaluates leaf to root through the k-way kernels below, and every
// consumer (projection, ORDER BY walk, join count, GROUP BY, PARTITION)
// reads the result with the same kernels the column bitmaps use.
//
// Determinism contract (extends the canonical-form contract of
// WahBitmap): the representation is a pure function of
// (popcount, size) — ChooseBitmapRep — and every constructor routes
// through it, so two ValueBitmaps holding the same row set are
// representation-identical no matter which thread count or code path
// built them. Equality therefore stays a payload comparison, and the
// staged-commit / parallel-build bit-identity proofs carry over
// unchanged.
//
// Every container caches its popcount; CountOnes is O(1) everywhere
// (these are the exact histograms the cost advisor and the future
// planner read).

#ifndef CODS_BITMAP_CODEC_H_
#define CODS_BITMAP_CODEC_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "bitmap/wah_bitmap.h"
#include "common/logging.h"
#include "common/result.h"

namespace cods {

class WahPositionFilter;

/// The three container kinds. Values are the serde v3 wire tags.
enum class BitmapRep : uint8_t { kArray = 0, kWah = 1, kBitset = 2 };

const char* BitmapRepName(BitmapRep rep);

/// The deterministic density rule. Pure in (ones, size):
///   * homogeneous (ones == 0 or ones == size) -> kWah: one fill word
///     beats both an empty position list's header and a solid bitset;
///   * ones <= size/64 -> kArray: 4 bytes per position is at most half
///     the bitset's bytes, and kernels touch only set positions;
///   * ones >= (size+3)/4 -> kBitset: at >= 25% density WAH literals
///     dominate anyway, so drop to raw words and vectorize;
///   * otherwise -> kWah.
/// Positions are stored as uint32_t, so bitmaps longer than 2^32 bits
/// never choose kArray.
BitmapRep ChooseBitmapRep(uint64_t ones, uint64_t size);

/// Process-wide codec observability (cods_shell `.stats`). Relaxed
/// atomics: counts are advisory, never synchronization.
struct CodecStats {
  std::atomic<uint64_t> popcount_hits{0};  // O(1) CountOnes served
  std::atomic<uint64_t> array_built{0};
  std::atomic<uint64_t> wah_built{0};
  std::atomic<uint64_t> bitset_built{0};
  // Column::RowVidMap caches: maps built, and bytes held by live ones.
  std::atomic<uint64_t> row_vid_maps_built{0};
  std::atomic<uint64_t> row_vid_map_bytes{0};
};
CodecStats& GlobalCodecStats();

/// One per-value bitmap behind the density-adaptive codec.
class ValueBitmap {
 public:
  /// Empty bitmap (zero bits), kWah representation.
  ValueBitmap() = default;

  ValueBitmap(const ValueBitmap&) = default;
  ValueBitmap& operator=(const ValueBitmap&) = default;
  ValueBitmap(ValueBitmap&&) noexcept = default;
  ValueBitmap& operator=(ValueBitmap&&) noexcept = default;

  /// Wraps a WAH bitmap, re-encoding into the density-chosen container.
  static ValueBitmap FromWah(WahBitmap wah);

  /// Builds from strictly increasing set positions (< size).
  static ValueBitmap FromPositions(std::vector<uint32_t> positions,
                                   uint64_t size);

  /// Builds from `(size + 63) / 64` dense words; bits at and above
  /// `size` must be zero.
  static ValueBitmap FromDenseWords(std::vector<uint64_t> words,
                                    uint64_t size);

  /// Persistence path: reassembles from a representation tag and its raw
  /// payload (exactly one of the three payloads is non-empty, matching
  /// `rep`). Validates structural soundness AND that `rep` is the one
  /// ChooseBitmapRep picks for the payload's density — a foreign or
  /// corrupted image cannot smuggle in a non-canonical container.
  static Result<ValueBitmap> FromRawParts(BitmapRep rep, uint64_t size,
                                          std::vector<uint32_t> positions,
                                          WahBitmap wah,
                                          std::vector<uint64_t> words);

  // ---- Inspection ------------------------------------------------------

  BitmapRep rep() const { return rep_; }
  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// O(1): cached at construction for every representation.
  uint64_t CountOnes() const {
    GlobalCodecStats().popcount_hits.fetch_add(1, std::memory_order_relaxed);
    return ones_;
  }
  bool IsAllZeros() const { return ones_ == 0; }
  bool IsAllOnes() const { return ones_ == size_; }

  /// Value of the bit at `pos`. O(log ones) for kArray, O(1) for
  /// kBitset, O(words) for kWah.
  bool Get(uint64_t pos) const;

  /// Position of the first set bit, or size() if none.
  uint64_t FirstSetBit() const;

  /// Positions of all set bits, increasing.
  std::vector<uint64_t> SetPositions() const;

  /// Calls `fn(uint64_t pos)` for each set bit in increasing order. A
  /// `fn` that returns bool stops the walk by returning false.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    auto visit = [&fn](uint64_t pos) {
      if constexpr (std::is_same_v<std::invoke_result_t<Fn&, uint64_t>,
                                   bool>) {
        return fn(pos);
      } else {
        fn(pos);
        return true;
      }
    };
    switch (rep_) {
      case BitmapRep::kArray:
        for (uint32_t p : positions_) {
          if (!visit(static_cast<uint64_t>(p))) return;
        }
        return;
      case BitmapRep::kWah: {
        WahSetBitIterator it(wah_);
        uint64_t pos;
        while (it.Next(&pos)) {
          if (!visit(pos)) return;
        }
        return;
      }
      case BitmapRep::kBitset:
        for (size_t w = 0; w < words_.size(); ++w) {
          uint64_t word = words_[w];
          while (word != 0) {
            if (!visit(w * 64 +
                       static_cast<uint64_t>(std::countr_zero(word)))) {
              return;
            }
            word &= word - 1;
          }
        }
        return;
    }
  }

  /// Re-encodes as canonical WAH (the v1/v2 image writer).
  WahBitmap ToWah() const;

  /// Appends this bitmap's full content after `out`'s bits (the UNION
  /// concatenation path). Equivalent to out->Concat(ToWah()) without
  /// materializing the intermediate.
  void AppendToWah(WahBitmap* out) const;

  /// Bytes of the active container's payload.
  uint64_t SizeBytes() const;

  /// Bytes a raw bitset of this size would take (the `.stats`
  /// compression-ratio denominator).
  uint64_t DenseSizeBytes() const { return ((size_ + 63) / 64) * 8; }

  /// Content equality. Because the representation is a pure function of
  /// content, this compares rep + payload directly.
  bool Equals(const ValueBitmap& other) const;
  friend bool operator==(const ValueBitmap& a, const ValueBitmap& b) {
    return a.Equals(b);
  }

  std::string ToString() const;

  /// Structural + canonical-form check (ValidateInvariants, serde):
  /// expected size, in-range sorted-unique positions / zeroed bitset
  /// slack, cached popcount consistent, representation the one
  /// ChooseBitmapRep mandates.
  Status Validate(uint64_t expected_size) const;

  // ---- Payload accessors (kernels, serde) ------------------------------

  const std::vector<uint32_t>& array_positions() const {
    CODS_DCHECK(rep_ == BitmapRep::kArray);
    return positions_;
  }
  const WahBitmap& wah() const {
    CODS_DCHECK(rep_ == BitmapRep::kWah);
    return wah_;
  }
  const std::vector<uint64_t>& bitset_words() const {
    CODS_DCHECK(rep_ == BitmapRep::kBitset);
    return words_;
  }

 private:
  BitmapRep rep_ = BitmapRep::kWah;
  uint64_t size_ = 0;
  uint64_t ones_ = 0;
  std::vector<uint32_t> positions_;  // kArray: sorted set positions
  WahBitmap wah_;                    // kWah
  std::vector<uint64_t> words_;      // kBitset: (size+63)/64 words
};

// ---- Kernels (specialized per representation pair) -----------------------
//
// All kernels require operands of one size. Results are ValueBitmaps in
// their own density-chosen representation, so a result never depends on
// which path or operand order produced it.

ValueBitmap CodecAnd(const ValueBitmap& a, const ValueBitmap& b);
ValueBitmap CodecOr(const ValueBitmap& a, const ValueBitmap& b);
ValueBitmap CodecNot(const ValueBitmap& a);

/// |a & b| without materializing — the GROUP BY / join-classification
/// histogram kernel: galloping for array pairs, word-AND + popcount for
/// bitset pairs, run-walks against WAH.
uint64_t CodecAndCount(const ValueBitmap& a, const ValueBitmap& b);

/// k-way union (EvalExpr leaves and OR nodes: the per-predicate OR over
/// qualifying values). All-array sets with few positions in total
/// (`K IN (a, b, c)` on a key column) merge their position lists in
/// O(total ones · log); any other set ORs into dense words (scatter for
/// arrays, word-OR for bitsets, run-deposit for WAH) that become the
/// result's container. That costs O(size / 64) plus a re-encode even
/// when every operand is a fill-heavy (clustered) WAH bitmap and the
/// union stays WAH, a regime a run merge would answer in O(runs).
/// CHECKs that every operand has `size` bits.
ValueBitmap CodecOrMany(const std::vector<const ValueBitmap*>& operands,
                        uint64_t size);

/// Count-only k-way union (the ValidateInvariants coverage check and a
/// COUNT under an OR root), on the same two paths.
uint64_t CodecOrManyCount(const std::vector<const ValueBitmap*>& operands,
                          uint64_t size);

/// k-way intersection (EvalExpr AND nodes): folds CodecAnd pairwise,
/// smallest popcount first, and stops at the first empty result. No
/// operands means every row. CHECKs that every operand has `size` bits.
ValueBitmap CodecAndMany(const std::vector<const ValueBitmap*>& operands,
                         uint64_t size);

/// Count-only k-way intersection (a COUNT under an AND root): the same
/// fold up to the last operand, finished by CodecAndCount.
uint64_t CodecAndManyCount(const std::vector<const ValueBitmap*>& operands,
                           uint64_t size);

/// Row-subset projection through a position filter (PARTITION / SELECT
/// materialization): keeps the bits at the filter's positions, re-based
/// onto the filtered domain. Per-element Contains/Rank for arrays and
/// bitset set-bits; the compressed-domain WahPositionFilter::Filter for
/// WAH.
ValueBitmap CodecFilter(const WahPositionFilter& filter,
                        const ValueBitmap& vb);

/// A selection or value bitmap expanded once into raw words, for callers
/// that probe it with many value bitmaps: the count-only join's
/// per-value counts, the ORDER BY walk, and GROUP BY's contingency pass
/// (query/query_engine.h). CodecAndCount / CodecAnd against a WAH
/// operand re-walk its code words on every call; a dense probe costs
/// only the value's own positions (array), words (bitset) or code words
/// (WAH) — its set bits, for AndPositions — and two dense operands count
/// with one word AND + popcount loop.
///
/// Contract:
///   * A bitset ValueBitmap is used in place, not copied: it must
///     outlive the DenseSelection. Every other source is expanded into
///     owned words, (size + 63) / 64 of them.
///   * Move-only (a moved-from instance may only be destroyed).
///   * The popcount is cached at construction; the counting members
///     run as POPCNT or portable instances (bitmap/popcount.h) and agree
///     exactly with CodecAndCount on the same row sets.
class DenseSelection {
 public:
  /// Expands a value bitmap (a bitset is borrowed in place).
  explicit DenseSelection(const ValueBitmap& vb);

  /// selection & vb as owned words: the GROUP BY fold of a WHERE into
  /// one group. Requires vb.size() == selection.size().
  DenseSelection(const DenseSelection& selection, const ValueBitmap& vb);

  DenseSelection(DenseSelection&&) noexcept = default;
  DenseSelection& operator=(DenseSelection&&) noexcept = default;

  /// The size rule: for kWah, `probes` walks of its code words cost
  /// more than one dense copy (one word per 64 rows); always for kBitset
  /// (used in place, so free); never for kArray, whose probes are
  /// O(positions) already.
  static bool Pays(const ValueBitmap& vb, uint64_t probes);

  [[nodiscard]] uint64_t size() const { return size_; }

  /// O(1): cached at construction.
  [[nodiscard]] uint64_t CountOnes() const { return ones_; }

  /// |vb & selection|.
  [[nodiscard]] uint64_t AndCount(const ValueBitmap& vb) const;

  /// |other & selection|. Requires equal sizes.
  [[nodiscard]] uint64_t AndCount(const DenseSelection& other) const;

  /// vb & selection for an array vb, in O(positions): the result is a
  /// subset of vb, so it stays an array (or the empty bitmap).
  [[nodiscard]] ValueBitmap AndArray(const ValueBitmap& vb) const;

  /// Appends the positions of vb & selection to *out, increasing.
  void AndPositions(const ValueBitmap& vb, std::vector<uint64_t>* out) const;

 private:
  uint64_t size_;
  uint64_t ones_ = 0;
  std::vector<uint64_t> owned_;
  const uint64_t* words_;  // owned_.data(), or a borrowed bitset's words
};

}  // namespace cods

#endif  // CODS_BITMAP_CODEC_H_
