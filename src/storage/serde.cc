#include "storage/serde.h"

#include <cstring>

#include "common/crc32c.h"
#include "common/env.h"

namespace cods {

namespace {
constexpr uint8_t kTagInt64 = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;

// Guard rails against absurd counts from corrupted length prefixes; a
// length can never (meaningfully) exceed the remaining input, and these
// caps keep allocation failures from preceding the bounds check.
constexpr uint32_t kMaxReasonableCount = 1u << 30;
}  // namespace

void BinaryWriter::U8(uint8_t v) { buffer_.push_back(v); }

void BinaryWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void BinaryWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void BinaryWriter::F64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void BinaryWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

Status BinaryReader::Need(size_t n) const {
  if (n > size_ - pos_) {
    return Status::Corruption("unexpected end of input at byte " +
                              std::to_string(pos_) + " (need " +
                              std::to_string(n) + ")");
  }
  return Status::OK();
}

Result<uint8_t> BinaryReader::U8() {
  CODS_RETURN_NOT_OK(Need(1));
  return data_[pos_++];
}

Result<uint32_t> BinaryReader::U32() {
  CODS_RETURN_NOT_OK(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> BinaryReader::U64() {
  CODS_RETURN_NOT_OK(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Result<int64_t> BinaryReader::I64() {
  CODS_ASSIGN_OR_RETURN(uint64_t v, U64());
  return static_cast<int64_t>(v);
}

Result<double> BinaryReader::F64() {
  CODS_ASSIGN_OR_RETURN(uint64_t bits, U64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> BinaryReader::Str() {
  CODS_ASSIGN_OR_RETURN(uint32_t len, U32());
  CODS_RETURN_NOT_OK(Need(len));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

// ---- Bitmaps ---------------------------------------------------------------

void WriteBitmap(const WahBitmap& bitmap, BinaryWriter* out) {
  out->U64(bitmap.size());
  out->U64(bitmap.tail());
  out->U8(static_cast<uint8_t>(bitmap.tail_bits()));
  out->U32(static_cast<uint32_t>(bitmap.NumWords()));
  for (uint64_t w : bitmap.words()) out->U64(w);
}

Result<WahBitmap> ReadBitmap(BinaryReader* in) {
  CODS_ASSIGN_OR_RETURN(uint64_t num_bits, in->U64());
  CODS_ASSIGN_OR_RETURN(uint64_t tail, in->U64());
  CODS_ASSIGN_OR_RETURN(uint8_t tail_bits, in->U8());
  CODS_ASSIGN_OR_RETURN(uint32_t word_count, in->U32());
  if (word_count > kMaxReasonableCount) {
    return Status::Corruption("implausible WAH word count");
  }
  CODS_RETURN_NOT_OK(in->Need(size_t{word_count} * 8));
  std::vector<uint64_t> words;
  words.reserve(word_count);
  for (uint32_t i = 0; i < word_count; ++i) {
    CODS_ASSIGN_OR_RETURN(uint64_t w, in->U64());
    words.push_back(w);
  }
  return WahBitmap::FromRawParts(std::move(words), tail, tail_bits,
                                 num_bits);
}

void WriteValueBitmap(const ValueBitmap& vb, BinaryWriter* out) {
  out->U8(static_cast<uint8_t>(vb.rep()));
  switch (vb.rep()) {
    case BitmapRep::kArray: {
      const std::vector<uint32_t>& positions = vb.array_positions();
      out->U32(static_cast<uint32_t>(positions.size()));
      for (uint32_t p : positions) out->U32(p);
      return;
    }
    case BitmapRep::kWah:
      WriteBitmap(vb.wah(), out);
      return;
    case BitmapRep::kBitset: {
      const std::vector<uint64_t>& words = vb.bitset_words();
      out->U32(static_cast<uint32_t>(words.size()));
      for (uint64_t w : words) out->U64(w);
      return;
    }
  }
  CODS_CHECK(false) << "unreachable bitmap representation";
}

Result<ValueBitmap> ReadValueBitmap(BinaryReader* in, uint64_t rows) {
  CODS_ASSIGN_OR_RETURN(uint8_t rep_byte, in->U8());
  if (rep_byte > static_cast<uint8_t>(BitmapRep::kBitset)) {
    return Status::Corruption("unknown bitmap representation tag " +
                              std::to_string(rep_byte));
  }
  BitmapRep rep = static_cast<BitmapRep>(rep_byte);
  switch (rep) {
    case BitmapRep::kArray: {
      CODS_ASSIGN_OR_RETURN(uint32_t count, in->U32());
      if (count > kMaxReasonableCount) {
        return Status::Corruption("implausible position count");
      }
      CODS_RETURN_NOT_OK(in->Need(size_t{count} * 4));
      std::vector<uint32_t> positions;
      positions.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        CODS_ASSIGN_OR_RETURN(uint32_t p, in->U32());
        positions.push_back(p);
      }
      return ValueBitmap::FromRawParts(rep, rows, std::move(positions),
                                       WahBitmap(), {});
    }
    case BitmapRep::kWah: {
      CODS_ASSIGN_OR_RETURN(WahBitmap bm, ReadBitmap(in));
      if (bm.size() != rows) {
        return Status::Corruption("bitmap length does not match row count");
      }
      return ValueBitmap::FromRawParts(rep, rows, {}, std::move(bm), {});
    }
    case BitmapRep::kBitset: {
      CODS_ASSIGN_OR_RETURN(uint32_t word_count, in->U32());
      if (word_count > kMaxReasonableCount) {
        return Status::Corruption("implausible bitset word count");
      }
      CODS_RETURN_NOT_OK(in->Need(size_t{word_count} * 8));
      std::vector<uint64_t> words;
      words.reserve(word_count);
      for (uint32_t i = 0; i < word_count; ++i) {
        CODS_ASSIGN_OR_RETURN(uint64_t w, in->U64());
        words.push_back(w);
      }
      return ValueBitmap::FromRawParts(rep, rows, {}, WahBitmap(),
                                       std::move(words));
    }
  }
  return Status::Corruption("unreachable bitmap representation");
}

// ---- Values and dictionaries ------------------------------------------------

void WriteValue(const Value& value, BinaryWriter* out) {
  if (value.is_int64()) {
    out->U8(kTagInt64);
    out->I64(value.int64());
  } else if (value.is_double()) {
    out->U8(kTagDouble);
    out->F64(value.dbl());
  } else if (value.is_string()) {
    out->U8(kTagString);
    out->Str(value.str());
  } else {
    // Nulls never reach storage (TableBuilder rejects them); encoding a
    // null would be an internal logic error.
    CODS_CHECK(false) << "cannot serialize a null value";
  }
}

Result<Value> ReadValue(BinaryReader* in) {
  CODS_ASSIGN_OR_RETURN(uint8_t tag, in->U8());
  switch (tag) {
    case kTagInt64: {
      CODS_ASSIGN_OR_RETURN(int64_t v, in->I64());
      return Value(v);
    }
    case kTagDouble: {
      CODS_ASSIGN_OR_RETURN(double v, in->F64());
      return Value(v);
    }
    case kTagString: {
      CODS_ASSIGN_OR_RETURN(std::string v, in->Str());
      return Value(std::move(v));
    }
    default:
      return Status::Corruption("unknown value tag " + std::to_string(tag));
  }
}

void WriteDictionary(const Dictionary& dict, BinaryWriter* out) {
  out->U32(static_cast<uint32_t>(dict.size()));
  for (const Value& v : dict.values()) WriteValue(v, out);
}

Result<Dictionary> ReadDictionary(BinaryReader* in) {
  CODS_ASSIGN_OR_RETURN(uint32_t count, in->U32());
  if (count > kMaxReasonableCount) {
    return Status::Corruption("implausible dictionary size");
  }
  Dictionary dict;
  for (uint32_t i = 0; i < count; ++i) {
    CODS_ASSIGN_OR_RETURN(Value v, ReadValue(in));
    Vid vid = dict.GetOrInsert(v);
    if (vid != i) {
      return Status::Corruption("duplicate value in serialized dictionary");
    }
  }
  return dict;
}

// ---- Columns -----------------------------------------------------------------

namespace {

// Column encoding bytes. Every column is written as kEncodingBitmaps;
// kEncodingLegacyRle payloads come from images written while columns
// could be declared SORTED, and re-encode on load.
constexpr uint8_t kEncodingBitmaps = 0;
constexpr uint8_t kEncodingLegacyRle = 1;

// Reads a legacy RLE payload, run_count:u32 (vid:u32 len:u64)*, into one
// WAH bitmap per dictionary value. Every run is validated before any
// bitmap is built: vids inside the dictionary, no zero-length run, and
// lengths summing (overflow-checked) to exactly `rows`.
Result<std::vector<WahBitmap>> ReadLegacyRlePayload(BinaryReader* in,
                                                    uint64_t rows,
                                                    size_t distinct) {
  CODS_ASSIGN_OR_RETURN(uint32_t run_count, in->U32());
  if (run_count > kMaxReasonableCount) {
    return Status::Corruption("implausible RLE run count");
  }
  std::vector<std::pair<Vid, uint64_t>> runs;
  uint64_t total = 0;
  for (uint32_t i = 0; i < run_count; ++i) {
    CODS_ASSIGN_OR_RETURN(uint32_t vid, in->U32());
    CODS_ASSIGN_OR_RETURN(uint64_t length, in->U64());
    if (vid >= distinct) {
      return Status::Corruption("RLE vid outside dictionary");
    }
    if (length == 0) return Status::Corruption("zero-length RLE run");
    if (length > rows - total) {
      return Status::Corruption("RLE runs exceed the row count");
    }
    total += length;
    runs.emplace_back(vid, length);
  }
  if (total != rows) {
    return Status::Corruption("RLE length does not match row count");
  }
  std::vector<WahBitmap> bitmaps(distinct);
  uint64_t offset = 0;
  for (const auto& [vid, length] : runs) {
    WahBitmap& bm = bitmaps[vid];
    bm.AppendRun(false, offset - bm.size());
    bm.AppendRun(true, length);
    offset += length;
  }
  for (WahBitmap& bm : bitmaps) bm.AppendRun(false, rows - bm.size());
  return bitmaps;
}

}  // namespace

void WriteColumn(const Column& column, BinaryWriter* out, uint32_t version) {
  out->U8(static_cast<uint8_t>(column.type()));
  out->U8(kEncodingBitmaps);
  out->U64(column.rows());
  WriteDictionary(column.dict(), out);
  out->U32(static_cast<uint32_t>(column.bitmaps().size()));
  if (version >= kCodsFileVersionV3) {
    // Each container serializes in its own representation, tagged.
    for (const ValueBitmap& vb : column.bitmaps()) {
      WriteValueBitmap(vb, out);
    }
  } else {
    // v1/v2 images are WAH-shaped: re-encode each container as WAH so
    // older readers stay compatible.
    for (const ValueBitmap& vb : column.bitmaps()) {
      WriteBitmap(vb.ToWah(), out);
    }
  }
}

Result<std::shared_ptr<const Column>> ReadColumn(BinaryReader* in,
                                                 uint32_t version) {
  CODS_ASSIGN_OR_RETURN(uint8_t type_byte, in->U8());
  if (type_byte > static_cast<uint8_t>(DataType::kString)) {
    return Status::Corruption("unknown data type " +
                              std::to_string(type_byte));
  }
  DataType type = static_cast<DataType>(type_byte);
  CODS_ASSIGN_OR_RETURN(uint8_t encoding, in->U8());
  if (encoding != kEncodingBitmaps && encoding != kEncodingLegacyRle) {
    return Status::Corruption("unknown column encoding " +
                              std::to_string(encoding));
  }
  CODS_ASSIGN_OR_RETURN(uint64_t rows, in->U64());
  CODS_ASSIGN_OR_RETURN(Dictionary dict, ReadDictionary(in));
  std::vector<WahBitmap> bitmaps;
  if (encoding == kEncodingLegacyRle) {
    CODS_ASSIGN_OR_RETURN(bitmaps,
                          ReadLegacyRlePayload(in, rows, dict.size()));
  } else {
    CODS_ASSIGN_OR_RETURN(uint32_t count, in->U32());
    if (count != dict.size()) {
      return Status::Corruption("bitmap count does not match dictionary");
    }
    if (version >= kCodsFileVersionV3) {
      std::vector<ValueBitmap> vbs;
      vbs.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        CODS_ASSIGN_OR_RETURN(ValueBitmap vb, ReadValueBitmap(in, rows));
        vbs.push_back(std::move(vb));
      }
      return std::shared_ptr<const Column>(Column::FromValueBitmaps(
          type, std::move(dict), std::move(vbs), rows));
    }
    bitmaps.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      CODS_ASSIGN_OR_RETURN(WahBitmap bm, ReadBitmap(in));
      if (bm.size() != rows) {
        return Status::Corruption("bitmap length does not match row count");
      }
      bitmaps.push_back(std::move(bm));
    }
  }
  return std::shared_ptr<const Column>(
      Column::FromBitmaps(type, std::move(dict), std::move(bitmaps), rows));
}

// ---- Schemas and tables -------------------------------------------------------

void WriteSchema(const Schema& schema, BinaryWriter* out) {
  out->U32(static_cast<uint32_t>(schema.key().size()));
  for (const std::string& k : schema.key()) out->Str(k);
  out->U32(static_cast<uint32_t>(schema.num_columns()));
  for (const ColumnSpec& spec : schema.columns()) {
    out->Str(spec.name);
    out->U8(static_cast<uint8_t>(spec.type));
    out->U8(0);  // the removed SORTED flag
  }
}

Result<Schema> ReadSchema(BinaryReader* in) {
  CODS_ASSIGN_OR_RETURN(uint32_t key_count, in->U32());
  if (key_count > kMaxReasonableCount) {
    return Status::Corruption("implausible key count");
  }
  std::vector<std::string> key;
  for (uint32_t i = 0; i < key_count; ++i) {
    CODS_ASSIGN_OR_RETURN(std::string k, in->Str());
    key.push_back(std::move(k));
  }
  CODS_ASSIGN_OR_RETURN(uint32_t col_count, in->U32());
  if (col_count > kMaxReasonableCount) {
    return Status::Corruption("implausible column count");
  }
  std::vector<ColumnSpec> specs;
  for (uint32_t i = 0; i < col_count; ++i) {
    ColumnSpec spec;
    CODS_ASSIGN_OR_RETURN(spec.name, in->Str());
    CODS_ASSIGN_OR_RETURN(uint8_t type_byte, in->U8());
    if (type_byte > static_cast<uint8_t>(DataType::kString)) {
      return Status::Corruption("unknown column type in schema");
    }
    spec.type = static_cast<DataType>(type_byte);
    // The removed SORTED flag: 1 in legacy images, ignored.
    CODS_ASSIGN_OR_RETURN(uint8_t sorted, in->U8());
    if (sorted > 1) return Status::Corruption("bad sorted flag");
    specs.push_back(std::move(spec));
  }
  // Schema::Make re-validates name uniqueness and key references.
  return Schema::Make(std::move(specs), std::move(key));
}

void WriteTable(const Table& table, BinaryWriter* out, uint32_t version) {
  out->Str(table.name());
  out->U64(table.rows());
  WriteSchema(table.schema(), out);
  for (size_t i = 0; i < table.num_columns(); ++i) {
    WriteColumn(*table.column(i), out, version);
  }
}

Result<std::shared_ptr<const Table>> ReadTable(BinaryReader* in,
                                               uint32_t version) {
  CODS_ASSIGN_OR_RETURN(std::string name, in->Str());
  CODS_ASSIGN_OR_RETURN(uint64_t rows, in->U64());
  CODS_ASSIGN_OR_RETURN(Schema schema, ReadSchema(in));
  std::vector<std::shared_ptr<const Column>> columns;
  columns.reserve(schema.num_columns());
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    CODS_ASSIGN_OR_RETURN(auto col, ReadColumn(in, version));
    columns.push_back(std::move(col));
  }
  CODS_ASSIGN_OR_RETURN(
      auto table,
      Table::Make(std::move(name), std::move(schema), std::move(columns),
                  rows));
  // Structural re-verification: the file may be syntactically valid but
  // semantically corrupt (e.g. overlapping bitmaps).
  CODS_RETURN_NOT_OK(table->ValidateInvariants().WithContext(
      "loading table '" + table->name() + "'"));
  return table;
}

// ---- Whole database -------------------------------------------------------------

namespace {

std::vector<uint8_t> SerializeCatalogBody(const Catalog& catalog,
                                          uint32_t version) {
  BinaryWriter out;
  out.U32(kCodsFileMagic);
  out.U32(version);
  std::vector<std::string> names = catalog.TableNames();
  out.U32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    WriteTable(*catalog.GetTable(name).ValueOrDie(), &out, version);
  }
  return out.TakeBuffer();
}

// Appends the wal_lsn + masked-CRC32C footer shared by v2 and v3 images.
std::vector<uint8_t> AppendFooter(std::vector<uint8_t> image,
                                  uint64_t wal_lsn) {
  BinaryWriter footer;
  footer.U64(wal_lsn);
  image.insert(image.end(), footer.buffer().begin(), footer.buffer().end());
  // The CRC covers everything before it, LSN included.
  BinaryWriter crc;
  crc.U32(crc32c::Mask(crc32c::Value(image.data(), image.size())));
  image.insert(image.end(), crc.buffer().begin(), crc.buffer().end());
  return image;
}

}  // namespace

std::vector<uint8_t> SerializeCatalog(const Catalog& catalog) {
  return SerializeCatalogBody(catalog, kCodsFileVersion);
}

std::vector<uint8_t> SerializeCatalogV2(const Catalog& catalog,
                                        uint64_t wal_lsn) {
  return AppendFooter(SerializeCatalogBody(catalog, kCodsFileVersionV2),
                      wal_lsn);
}

std::vector<uint8_t> SerializeCatalogV3(const Catalog& catalog,
                                        uint64_t wal_lsn) {
  return AppendFooter(SerializeCatalogBody(catalog, kCodsFileVersionV3),
                      wal_lsn);
}

Result<Catalog> DeserializeCatalog(const std::vector<uint8_t>& image,
                                   uint64_t* wal_lsn) {
  if (wal_lsn != nullptr) *wal_lsn = 0;
  BinaryReader header(image.data(), image.size());
  CODS_ASSIGN_OR_RETURN(uint32_t magic, header.U32());
  if (magic != kCodsFileMagic) {
    return Status::Corruption("not a CODS database image (bad magic)");
  }
  CODS_ASSIGN_OR_RETURN(uint32_t version, header.U32());
  size_t body_size = image.size();
  if (version == kCodsFileVersionV2 || version == kCodsFileVersionV3) {
    // Verify the whole-image checksum before trusting any length field.
    if (image.size() < 8 + kCodsFooterSize) {
      return Status::Corruption("image too short for its footer");
    }
    BinaryReader footer(image.data() + image.size() - kCodsFooterSize,
                        kCodsFooterSize);
    uint64_t lsn = footer.U64().ValueOrDie();
    uint32_t stored_crc = footer.U32().ValueOrDie();
    uint32_t actual = crc32c::Value(image.data(), image.size() - 4);
    if (crc32c::Mask(actual) != stored_crc) {
      return Status::Corruption("database image checksum mismatch");
    }
    if (wal_lsn != nullptr) *wal_lsn = lsn;
    body_size = image.size() - kCodsFooterSize;
  } else if (version != kCodsFileVersion) {
    return Status::Corruption("unsupported format version " +
                              std::to_string(version));
  }
  BinaryReader in(image.data(), body_size);
  in.U32().IgnoreError();  // magic: validated above, re-consumed here
  in.U32().IgnoreError();  // version: validated above, re-consumed here
  CODS_ASSIGN_OR_RETURN(uint32_t table_count, in.U32());
  if (table_count > kMaxReasonableCount) {
    return Status::Corruption("implausible table count");
  }
  Catalog catalog;
  for (uint32_t i = 0; i < table_count; ++i) {
    CODS_ASSIGN_OR_RETURN(auto table, ReadTable(&in, version));
    CODS_RETURN_NOT_OK(catalog.AddTable(std::move(table)));
  }
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes after the last table");
  }
  return catalog;
}

Status SaveCatalog(const Catalog& catalog, const std::string& path) {
  // Checkpoint-style crash safety: the image lands under a temp name, is
  // fsync'd, and only then atomically replaces any previous good image.
  return WriteFileAtomic(Env::Default(), path,
                         SerializeCatalogV3(catalog, /*wal_lsn=*/0));
}

Result<Catalog> LoadCatalog(const std::string& path) {
  CODS_ASSIGN_OR_RETURN(std::vector<uint8_t> image,
                        Env::Default()->ReadFile(path));
  return DeserializeCatalog(image);
}

}  // namespace cods
