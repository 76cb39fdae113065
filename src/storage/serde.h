// Binary persistence for the column store: catalogs, tables, columns,
// dictionaries, and WAH bitmaps serialize to a single-file database
// image. The format is little-endian, length-prefixed, and versioned;
// every read is bounds-checked and structural invariants are re-verified
// on load, so truncated or bit-flipped files surface as
// Status::Corruption instead of undefined behavior.
//
// Layout (all integers little-endian):
//   file   := magic:u32 version:u32 table_count:u32 table* footer?
//   footer := wal_lsn:u64 crc:u32          (version >= 2 only)
//   table  := name:str rows:u64 schema column*
//   schema := key_count:u32 key_name* column_count:u32 colspec*
//   colspec:= name:str type:u8 sorted:u8     sorted: written 0, read 0|1
//   column := type:u8 encoding:u8 rows:u64 dict payload
//                                            encoding: written 0, read 0|1
//   dict   := count:u32 value*
//   value  := tag:u8 (i64 | f64 | str)
//   payload(WAH, v1/v2) := bitmap_count:u32 bitmap*
//   bitmap := num_bits:u64 tail:u64 tail_bits:u8 word_count:u32 word*
//   payload(WAH, v3)    := bitmap_count:u32 vbitmap*
//   vbitmap := rep:u8 (array | bitmap | bitset)     rep = BitmapRep tag
//   array  := pos_count:u32 pos:u32*                (size = column rows)
//   bitset := word_count:u32 word:u64*              (size = column rows)
//   payload(RLE): read-only, re-encoded on load
//                := run_count:u32 (vid:u32 len:u64)*  (encoding = 1)
//
// Version 2 (the checkpoint format, durability/checkpoint.h) appends a
// 12-byte footer: the WAL LSN the image covers, then the MASKED CRC32C
// (common/crc32c.h) of every preceding byte — so any single bit flip
// anywhere in a v2 image is detected, not just structurally implausible
// ones. Version 1 images (no footer) remain readable.
//
// Version 3 keeps the v2 footer but stores each value bitmap in its
// density-chosen codec container (bitmap/codec.h), tagged per value, so
// images round-trip without re-encoding through WAH. Loads re-validate
// that every tag is the representation ChooseBitmapRep mandates for the
// payload's density. v1 and v2 images (WAH-shaped payloads) remain
// readable; their bitmaps re-encode into codec containers on load.
//
// Columns were once declared SORTED (schema flag 1) and stored as vid
// runs (encoding 1). Images of any version may still hold such columns:
// the flag is ignored, and each run list is validated (vids inside the
// dictionary, non-empty runs summing exactly to the row count) and
// rebuilt into per-value bitmaps, so the column loads exactly as a
// WAH payload of the same rows would. Writers emit 0 for both bytes, so
// a re-saved legacy image holds no RLE column.

#ifndef CODS_STORAGE_SERDE_H_
#define CODS_STORAGE_SERDE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/catalog.h"
#include "storage/table.h"

namespace cods {

/// Format identification.
inline constexpr uint32_t kCodsFileMagic = 0x434F4453;  // "CODS"
inline constexpr uint32_t kCodsFileVersion = 1;
inline constexpr uint32_t kCodsFileVersionV2 = 2;  // + checksummed footer
inline constexpr uint32_t kCodsFileVersionV3 = 3;  // + codec-tagged bitmaps
/// Footer size of a v2/v3 image: wal_lsn:u64 crc:u32.
inline constexpr size_t kCodsFooterSize = 12;

/// Append-only binary encoder.
class BinaryWriter {
 public:
  void U8(uint8_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  /// Length-prefixed string.
  void Str(const std::string& s);

  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buffer_); }

 private:
  std::vector<uint8_t> buffer_;
};

/// Bounds-checked binary decoder.
class BinaryReader {
 public:
  BinaryReader(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}
  explicit BinaryReader(const std::vector<uint8_t>& buffer)
      : BinaryReader(buffer.data(), buffer.size()) {}

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<int64_t> I64();
  Result<double> F64();
  Result<std::string> Str();

  /// Bytes consumed so far.
  size_t position() const { return pos_; }
  /// True when the whole buffer has been consumed.
  bool AtEnd() const { return pos_ == size_; }
  /// OK when at least `n` more bytes remain; otherwise a Corruption
  /// naming `n`. Loaders check a claimed element count × element size
  /// here before reserving room for the elements.
  Status Need(size_t n) const;

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// ---- Component-level serialization (exposed for tests and tools). ---------

void WriteBitmap(const WahBitmap& bitmap, BinaryWriter* out);
Result<WahBitmap> ReadBitmap(BinaryReader* in);

/// One codec-tagged value bitmap (the v3 payload element). The bitmap's
/// logical size is the enclosing column's row count, passed on read.
void WriteValueBitmap(const ValueBitmap& vb, BinaryWriter* out);
Result<ValueBitmap> ReadValueBitmap(BinaryReader* in, uint64_t rows);

void WriteValue(const Value& value, BinaryWriter* out);
Result<Value> ReadValue(BinaryReader* in);

void WriteDictionary(const Dictionary& dict, BinaryWriter* out);
Result<Dictionary> ReadDictionary(BinaryReader* in);

/// `version` selects the bitmap payload shape: v1/v2 write WAH-shaped
/// bitmaps (codec containers re-encode through ToWah), v3 writes
/// codec-tagged containers directly.
void WriteColumn(const Column& column, BinaryWriter* out,
                 uint32_t version = kCodsFileVersion);
Result<std::shared_ptr<const Column>> ReadColumn(
    BinaryReader* in, uint32_t version = kCodsFileVersion);

void WriteSchema(const Schema& schema, BinaryWriter* out);
Result<Schema> ReadSchema(BinaryReader* in);

void WriteTable(const Table& table, BinaryWriter* out,
                uint32_t version = kCodsFileVersion);
Result<std::shared_ptr<const Table>> ReadTable(
    BinaryReader* in, uint32_t version = kCodsFileVersion);

// ---- Whole-database round trips. -------------------------------------------

/// Serializes a catalog into a v1 database image (no footer).
std::vector<uint8_t> SerializeCatalog(const Catalog& catalog);

/// Serializes a catalog into a v2 image whose footer records the WAL
/// LSN the image covers and a CRC32C over the whole image.
std::vector<uint8_t> SerializeCatalogV2(const Catalog& catalog,
                                        uint64_t wal_lsn);

/// Serializes a catalog into a v3 image: codec-tagged per-value bitmap
/// containers, plus the v2-style checksummed footer. The checkpoint and
/// SaveCatalog format.
std::vector<uint8_t> SerializeCatalogV3(const Catalog& catalog,
                                        uint64_t wal_lsn);

/// Parses a database image of any supported version. Each loaded
/// table's invariants are verified; a v2/v3 footer checksum mismatch is
/// Status::Corruption. `wal_lsn` (optional) receives the footer LSN
/// (0 for v1 images).
Result<Catalog> DeserializeCatalog(const std::vector<uint8_t>& image,
                                   uint64_t* wal_lsn = nullptr);

/// Writes a catalog to a database file crash-safely: temp file + fsync +
/// atomic rename, so a failure mid-save never destroys a previous good
/// image. Thin shim over the checkpoint write path (v3 image, LSN 0).
Status SaveCatalog(const Catalog& catalog, const std::string& path);

/// Reads a catalog from a database file (either format version).
Result<Catalog> LoadCatalog(const std::string& path);

}  // namespace cods

#endif  // CODS_STORAGE_SERDE_H_
