#include "storage/column.h"

#include "common/logging.h"

namespace cods {

const char* ColumnEncodingToString(ColumnEncoding encoding) {
  switch (encoding) {
    case ColumnEncoding::kWahBitmap:
      return "WAH_BITMAP";
    case ColumnEncoding::kRle:
      return "RLE";
  }
  return "?";
}

std::shared_ptr<Column> Column::FromVidsRle(DataType type, Dictionary dict,
                                            const std::vector<Vid>& vids) {
  auto col = std::shared_ptr<Column>(new Column());
  col->type_ = type;
  col->encoding_ = ColumnEncoding::kRle;
  col->rows_ = vids.size();
  col->dict_ = std::move(dict);
  for (Vid v : vids) col->rle_.Append(v);
  return col;
}

std::shared_ptr<Column> Column::FromRle(DataType type, Dictionary dict,
                                        RleVector rle) {
  auto col = std::shared_ptr<Column>(new Column());
  col->type_ = type;
  col->encoding_ = ColumnEncoding::kRle;
  col->rows_ = rle.size();
  col->dict_ = std::move(dict);
  col->rle_ = std::move(rle);
  return col;
}

std::shared_ptr<Column> Column::FromValueBitmaps(
    DataType type, Dictionary dict, std::vector<ValueBitmap> bitmaps,
    uint64_t rows) {
  CODS_CHECK(bitmaps.size() == dict.size())
      << "bitmap count " << bitmaps.size() << " != dictionary size "
      << dict.size();
  auto col = std::shared_ptr<Column>(new Column());
  col->type_ = type;
  col->encoding_ = ColumnEncoding::kWahBitmap;
  col->rows_ = rows;
  col->dict_ = std::move(dict);
  col->bitmaps_ = std::move(bitmaps);
  return col;
}

Column::~Column() {
  if (row_vids_.SizeBytes() > 0) {
    GlobalCodecStats().row_vid_map_bytes.fetch_sub(row_vids_.SizeBytes(),
                                                   std::memory_order_relaxed);
  }
}

const PackedVids& Column::RowVidMap() const {
  std::call_once(row_vids_once_, [this] {
    PackedVids map(rows_, PackedVids::WidthFor(dict_.size()));
    if (encoding_ == ColumnEncoding::kRle) {
      uint64_t row = 0;
      for (const RleVector::Run& run : rle_.runs()) {
        for (uint64_t i = 0; i < run.length; ++i) map.Set(row++, run.value);
      }
    } else {
      // Value-major scatter into the packed words, which stay cache
      // resident far longer than a plain vid array would.
      for (Vid vid = 0; vid < bitmaps_.size(); ++vid) {
        bitmaps_[vid].ForEachSetBit([&](uint64_t pos) { map.Set(pos, vid); });
      }
    }
    row_vids_ = std::move(map);
    CodecStats& stats = GlobalCodecStats();
    stats.row_vid_maps_built.fetch_add(1, std::memory_order_relaxed);
    stats.row_vid_map_bytes.fetch_add(row_vids_.SizeBytes(),
                                      std::memory_order_relaxed);
  });
  return row_vids_;
}

const ValueBitmap& Column::bitmap(Vid vid) const {
  CODS_CHECK(encoding_ == ColumnEncoding::kWahBitmap);
  CODS_DCHECK(vid < bitmaps_.size());
  return bitmaps_[vid];
}

const std::vector<ValueBitmap>& Column::bitmaps() const {
  CODS_CHECK(encoding_ == ColumnEncoding::kWahBitmap);
  return bitmaps_;
}

const RleVector& Column::rle() const {
  CODS_CHECK(encoding_ == ColumnEncoding::kRle);
  return rle_;
}

Value Column::GetValue(uint64_t row) const {
  CODS_CHECK(row < rows_);
  if (encoding_ == ColumnEncoding::kRle) {
    return dict_.value(rle_.Get(row));
  }
  for (Vid vid = 0; vid < bitmaps_.size(); ++vid) {
    if (bitmaps_[vid].Get(row)) return dict_.value(vid);
  }
  CODS_CHECK(false) << "row " << row << " not covered by any bitmap";
  return Value();
}

uint64_t Column::ValueCount(Vid vid) const {
  if (encoding_ == ColumnEncoding::kRle) {
    uint64_t count = 0;
    for (const RleVector::Run& r : rle_.runs()) {
      if (r.value == vid) count += r.length;
    }
    return count;
  }
  return bitmaps_[vid].CountOnes();
}

std::shared_ptr<Column> Column::WithEncoding(ColumnEncoding encoding) const {
  if (encoding == encoding_) {
    return encoding_ == ColumnEncoding::kRle
               ? FromRle(type_, dict_, rle_)
               : FromValueBitmaps(type_, dict_, bitmaps_, rows_);
  }
  std::vector<Vid> vids = DecodeVids();
  if (encoding == ColumnEncoding::kRle) {
    return FromVidsRle(type_, dict_, vids);
  }
  return FromVids(type_, dict_, vids);
}

uint64_t Column::SizeBytes() const {
  uint64_t bytes = dict_.SizeBytes();
  if (encoding_ == ColumnEncoding::kRle) {
    bytes += rle_.SizeBytes();
  } else {
    for (const ValueBitmap& bm : bitmaps_) bytes += bm.SizeBytes();
  }
  return bytes;
}

}  // namespace cods
