// Bitmap-indexed column (CODS §2.2): a column with v distinct values over
// r rows is stored as a dictionary plus v bit vectors of length r —
// vector k has bit j set iff row j holds value k. Each bit vector is held
// behind the density-adaptive codec (bitmap/codec.h): sparse values as
// sorted position arrays, mixed ones as the paper's WAH runs, dense ones
// as raw bitset words, chosen deterministically per value. This is the
// only column encoding: the paper's run-length option for sorted columns
// is subsumed by the codec, and legacy RLE images re-encode on load
// (storage/serde.h).
//
// Columns are immutable once built and shared between tables via
// shared_ptr: reusing an unchanged column during evolution (Property 1 of
// §2.4) is a pointer copy, exactly the effect the paper exploits.
//
// The bitmaps answer "which rows hold v" but not "what does row r hold".
// RowVidMap() adds that inverse as a cache: a bit-packed row → vid map
// built on first use and freed with the column. It is not part of the
// stored image (SizeBytes, serde), and since snapshots share columns by
// pointer it survives every commit that leaves the column alone.

#ifndef CODS_STORAGE_COLUMN_H_
#define CODS_STORAGE_COLUMN_H_

#include <memory>
#include <mutex>
#include <vector>

#include "bitmap/codec.h"
#include "bitmap/wah_bitmap.h"
#include "common/result.h"
#include "storage/dictionary.h"
#include "storage/packed_vids.h"
#include "storage/value.h"

namespace cods {

// The parallel build/decode/validate members take an execution context
// but storage sits below exec in the layering: the context is only ever
// passed through by pointer, and the exec-using member definitions live
// in exec/parallel_build.cc, one layer up.
class ExecContext;

/// An immutable column of one table.
class Column {
 public:
  /// Builds a column from a row-ordered vid sequence. The bitmap
  /// compression runs on `ctx` (nullptr: default context); the result is
  /// bit-identical at every thread count.
  static std::shared_ptr<Column> FromVids(DataType type, Dictionary dict,
                                          const std::vector<Vid>& vids,
                                          const ExecContext* ctx = nullptr);

  /// Builds directly from prepared WAH bitmaps (used by the evolution
  /// operators, whose output builders append WAH runs, and by the image
  /// loader for v1/v2 and legacy RLE payloads). Each bitmap is
  /// re-encoded into its density-chosen codec container (on `ctx` when
  /// given — bit-identical either way, since the representation choice
  /// is a pure function of content).
  /// Every bitmap must have length `rows`, and each row must be covered
  /// by exactly one bitmap (checked lazily by ValidateInvariants).
  static std::shared_ptr<Column> FromBitmaps(DataType type, Dictionary dict,
                                             std::vector<WahBitmap> bitmaps,
                                             uint64_t rows,
                                             const ExecContext* ctx = nullptr);

  /// Builds from already codec-encoded value bitmaps (the position-filter
  /// and persistence paths, whose kernels produce ValueBitmaps natively).
  static std::shared_ptr<Column> FromValueBitmaps(
      DataType type, Dictionary dict, std::vector<ValueBitmap> bitmaps,
      uint64_t rows);

  ~Column();
  Column(const Column&) = delete;
  Column& operator=(const Column&) = delete;

  DataType type() const { return type_; }
  uint64_t rows() const { return rows_; }
  const Dictionary& dict() const { return dict_; }
  size_t distinct_count() const { return dict_.size(); }

  /// The codec-encoded bitmap of value id `vid`.
  const ValueBitmap& bitmap(Vid vid) const;
  /// All value bitmaps, indexed by vid.
  const std::vector<ValueBitmap>& bitmaps() const;

  /// Decodes the column into a row-ordered vid vector.
  /// Cost: O(rows + compressed words); bitmap decoding parallelizes over
  /// value bitmaps (their set positions are disjoint).
  std::vector<Vid> DecodeVids(const ExecContext* ctx = nullptr) const;

  /// The row → vid map (DecodeVids' content), packed at
  /// PackedVids::WidthFor(distinct_count()) bits per row: rows × width / 8
  /// bytes. Built once, on first use, by one serial decode straight into
  /// the packed words — O(rows + compressed words); concurrent first
  /// callers wait for that one build, and every later call is O(1). The
  /// content is a pure function of the column, so which caller builds it
  /// never shows. Counted in GlobalCodecStats (row_vid_maps_built,
  /// row_vid_map_bytes), never in SizeBytes.
  const PackedVids& RowVidMap() const;

  /// Value at `row` (point lookup; O(compressed words) — use DecodeVids
  /// for scans).
  Value GetValue(uint64_t row) const;

  /// Number of rows holding `vid` (popcount on the compressed bitmap).
  uint64_t ValueCount(Vid vid) const;

  /// Compressed footprint of the value bitmaps plus the dictionary.
  uint64_t SizeBytes() const;

  /// Verifies structural invariants: every bitmap has length rows(); the
  /// bitmaps partition the row set (each row covered exactly once); the
  /// dictionary and bitmap count agree. O(distinct * compressed words);
  /// the per-bitmap checks parallelize over value bitmaps.
  Status ValidateInvariants(const ExecContext* ctx = nullptr) const;

 private:
  Column() = default;

  DataType type_ = DataType::kInt64;
  Dictionary dict_;
  std::vector<ValueBitmap> bitmaps_;  // indexed by vid
  uint64_t rows_ = 0;

  // RowVidMap's cache: written once under the flag, then read-only.
  mutable std::once_flag row_vids_once_;
  mutable PackedVids row_vids_;
};

}  // namespace cods

#endif  // CODS_STORAGE_COLUMN_H_
